//! The one open-loop client on a single node: it sends exactly the
//! seeded schedule, follows a draining node's redirects, and reports a
//! refused connect as an error.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use live::{
    query_drain, read_frame, run_balancer, DrainAction, LivePolicy, LiveRunConfig, NodeDirectory,
    Request, Response, Server,
};
use rand::Rng;
use simkit::rng::stream_rng;

/// Wall-clock runs must own the machine (same discipline as
/// `tests/loopback.rs`).
static MACHINE: Mutex<()> = Mutex::new(());

/// `(req_id, sent_at_ns, service_ns, connection)` of one request frame.
type Sent = (u64, u64, u64, usize);

/// Echoes every request frame on `conn` and records it.
fn echo(mut stream: TcpStream, conn: usize, seen: &Mutex<Vec<Sent>>) {
    while let Ok(Some(payload)) = read_frame(&mut stream) {
        let req = Request::decode(&payload).expect("a request frame");
        seen.lock()
            .unwrap()
            .push((req.req_id, req.sent_at_ns, req.service_ns, conn));
        let resp = Response {
            req_id: req.req_id,
            sent_at_ns: req.sent_at_ns,
            service_ns: req.service_ns,
            worker: 0,
        };
        if stream.write_all(&resp.encode()).is_err() {
            return;
        }
    }
}

#[test]
fn the_client_sends_the_seeded_schedule() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let config = LiveRunConfig::new(LivePolicy::SingleQueue)
        .connections(3)
        .requests(400, 40)
        .seed(9);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let directory = Arc::new(NodeDirectory::new(vec![listener.local_addr().unwrap()]));
    let seen = Mutex::new(Vec::new());
    let (stats, accounting, redirects) = std::thread::scope(|scope| {
        scope.spawn(|| {
            for conn in 0..config.connections {
                let (stream, _) = listener.accept().unwrap();
                let seen = &seen;
                scope.spawn(move || echo(stream, conn, seen));
            }
        });
        run_balancer(&config.balancer_config(), &directory).unwrap()
    });
    accounting.assert_balanced("schedule pin");
    assert_eq!((accounting.completed, redirects), (400, 0));
    assert_eq!((stats.sent, stats.received), (400, 400));

    // The schedule, recomputed: exponential gaps from stream 0, the flow
    // from stream 1, the scaled service demand from stream 2.
    let mut arrival = stream_rng(config.seed, 0);
    let mut route = stream_rng(config.seed, 1);
    let mut service = stream_rng(config.seed, 2);
    let mean_gap_ns = 1e9 / config.rate_rps();
    let mut at_ns = 0.0f64;
    let want: Vec<Sent> = (0..config.requests)
        .map(|req_id| {
            let u: f64 = arrival.gen();
            at_ns -= mean_gap_ns * (1.0 - u).ln();
            let service_ns = (config.service.sample_ns(&mut service) * config.scale) as u64;
            let conn = route.gen_range(0..config.connections);
            (req_id, at_ns as u64, service_ns, conn)
        })
        .collect();
    let mut got = seen.into_inner().unwrap();
    got.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn a_draining_single_node_redirects_and_the_run_still_balances() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let config = LiveRunConfig::new(LivePolicy::SingleQueue)
        .requests(1_500, 150)
        .seed(5);
    let server = Server::start(config.server_config(None), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let client = config.balancer_config();
    let drain_at = config.expected_duration().mul_f64(0.4);
    let start = Instant::now();
    let drainer = std::thread::spawn(move || {
        std::thread::sleep(drain_at);
        query_drain(addr, DrainAction::Begin)
    });
    let (stats, accounting, redirects) =
        run_balancer(&client, &Arc::new(NodeDirectory::new(vec![addr]))).unwrap();
    let took = start.elapsed();
    assert!(drainer.join().unwrap().unwrap().draining);
    server.stop_after_drain();

    accounting.assert_balanced("single-node drain");
    assert_eq!(accounting.lost(), 0, "{accounting}");
    assert!(redirects > 0, "the drain redirected nothing: {accounting}");
    assert!(stats.measured > 0);
    // A redirect used to stop the reader, stranding its connection's
    // replies until the drain timeout ran out.
    assert!(
        took < client.drain_timeout / 4,
        "run took {took:?} of a {:?} drain timeout",
        client.drain_timeout
    );
}

#[test]
fn a_refused_connect_is_an_error_not_a_run() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let config = LiveRunConfig::new(LivePolicy::SingleQueue).requests(10, 1);
    let started = Instant::now();
    let run = run_balancer(
        &config.balancer_config(),
        &Arc::new(NodeDirectory::new(vec![addr])),
    );
    assert!(run.is_err(), "nothing listens at {addr}");
    assert!(started.elapsed() < Duration::from_secs(5));
}
