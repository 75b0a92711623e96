//! A `Server` is passive: exactly accept + workers + one reader per
//! connection threads under every policy (no dispatch thread), and while
//! nothing arrives none of them wakes — no poll interval, no timed wait
//! — so `start` → `stop` costs no sleep anywhere. Read off
//! `/proc/self/task`, so Linux only — and one `#[test]` only, so that
//! the test harness starts no thread of its own in between.
#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::fs;
use std::net::TcpStream;
use std::time::Duration;

use live::{
    read_frame, write_frame, BurnMode, LivePolicy, Request, Response, Server, ServerConfig,
};

const WORKERS: usize = 4;
const CONNECTIONS: usize = 3;

/// Every thread of this process: tid → (name, voluntary context
/// switches so far).
fn threads() -> BTreeMap<u64, (String, u64)> {
    let mut threads = BTreeMap::new();
    for task in fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let tid = task.file_name().to_string_lossy().parse().expect("tid");
        // A thread may exit between the listing and the reads.
        let name = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
        let switches = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|rest| rest.trim().parse().ok())
            .unwrap_or(0);
        threads.insert(tid, (name.trim().to_owned(), switches));
    }
    threads
}

/// A started server with [`CONNECTIONS`] clients that have each been
/// answered once, so every reader thread exists.
fn serving(policy: LivePolicy) -> (Server, Vec<TcpStream>) {
    let config = ServerConfig {
        policy,
        workers: WORKERS,
        burn: BurnMode::Sleep,
        ..ServerConfig::default()
    };
    let server = Server::start(config, "127.0.0.1:0").expect("server starts");
    let clients = (0..CONNECTIONS as u64)
        .map(|id| {
            let mut client = TcpStream::connect(server.local_addr()).expect("connect");
            let req = Request {
                req_id: id,
                sent_at_ns: 0,
                service_ns: 0,
            };
            write_frame(&mut client, &req.encode()).expect("send");
            let payload = read_frame(&mut client).expect("read").expect("a reply");
            assert_eq!(Response::decode(&payload).expect("a response").req_id, id);
            client
        })
        .collect();
    (server, clients)
}

/// accept + workers + one reader per connection, whatever the policy.
fn thread_census() {
    for policy in [
        LivePolicy::SingleQueue,
        LivePolicy::Partitioned { groups: 2 },
        LivePolicy::RssStatic,
        LivePolicy::Replenish,
    ] {
        let before = threads();
        let (server, clients) = serving(policy);
        let mut names: Vec<String> = threads()
            .into_iter()
            .filter(|(tid, _)| !before.contains_key(tid))
            .map(|(_, (name, _))| name)
            .collect();
        names.sort();
        let mut expected = vec!["valetd-accept".to_owned()];
        expected.extend((0..CONNECTIONS).map(|c| format!("valetd-reader-{c}")));
        expected.extend((0..WORKERS).map(|w| format!("valetd-worker-{w}")));
        assert_eq!(names, expected, "{policy}");
        drop(clients);
        server.stop();
    }
}

/// Voluntary context switches so far of each thread started since
/// `before` was taken.
fn switches_since(before: &BTreeMap<u64, (String, u64)>) -> BTreeMap<u64, (String, u64)> {
    let mut now = threads();
    now.retain(|tid, _| !before.contains_key(tid));
    now
}

fn an_idle_server_never_wakes() {
    for policy in [LivePolicy::SingleQueue, LivePolicy::Replenish] {
        let before = threads();
        let (server, clients) = serving(policy);
        // Settled is an observed state, not a guessed delay: every
        // thread blocked, so two looks a moment apart see the same
        // counts. A server that polls never gets there.
        let mut settled = switches_since(&before);
        for looks in 0.. {
            std::thread::sleep(Duration::from_millis(10));
            let again = switches_since(&before);
            if again == settled {
                break;
            }
            assert!(looks < 200, "{policy}: threads keep waking: {again:?}");
            settled = again;
        }
        // A quiet spell long enough for a millisecond-scale poll to show
        // many times. One switch is allowed: a thread the scheduler held
        // back all through the settling parks once, late.
        std::thread::sleep(Duration::from_millis(75));
        for (tid, (name, switches)) in switches_since(&before) {
            let Some((_, settled_switches)) = settled.get(&tid) else {
                panic!("{policy}: thread `{name}` started on an idle server");
            };
            assert!(
                switches <= settled_switches + 1,
                "{policy}: thread `{name}` woke {} times with nothing to do",
                switches - settled_switches
            );
        }
        drop(clients);
        server.stop();
    }
}

#[test]
fn server_is_passive() {
    thread_census();
    an_idle_server_never_wakes();
}
