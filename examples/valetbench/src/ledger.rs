//! The per-layer ledger: each crate's public functions timed from
//! outside, one row per name in `BENCHMARK.json`'s `per_layer` list.
//!
//! Every traced run produces every row, whatever `--workload` says, from
//! the same fixed probes; only `p99_us`, `proc.cpu_us_per_req` and
//! `trace.overhead_frac` belong to the workload named. Probes of the
//! simulator use fixed seeds, so the rows that are simulated quantities
//! or event counts (`*.events_per_req.*`, `*.sim_p99_ns`,
//! `simkit.queue.overflow_pushes`) repeat exactly until the model
//! changes. Microbenchmarks run hot and alone: their nanoseconds say
//! where to look and do not sum to an end-to-end time.

use std::hint::black_box;
use std::io::{self, Cursor};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dist::{workload_models, ServiceDist, SyntheticKind};
use harness::{PolicySpec, ScenarioMatrix, SweepReport};
use live::{make_dispatcher, BurnMode, LivePolicy, NodeDirectory, Request, RouteKey};
use metrics::{quantiles_unsorted, LatencyHistogram, Summary};
use noc::{Mesh, TileId};
use queueing::{QueueingModel, QxU, RunParams};
use rand::Rng;
use ring::SlotRing;
use rpcvalet::dispatch::Dispatcher;
use rpcvalet::mcs::McsLock;
use rpcvalet::reassembly::ReassemblyTable;
use rpcvalet::{McsParams, Policy};
use simkit::rng::stream_rng;
use simkit::{EventQueue, SimDuration, SimTime};
use sonuma::TrafficGenerator;
use telemetry::{assemble_timelines, Hop, SeriesRecorder, TraceEvent};

use crate::alloc::count_allocations;
use crate::estim::{median, LogHist};
use crate::live as live_wl;
use crate::sim::{self, SimKind};
use crate::spans::SpanLog;
use crate::Metric;

/// Seed of every simulator probe: fixed, so simulated quantities and
/// event counts are the same on every run.
const PROBE_SEED: u64 = 2019;
/// Time each microbenchmark measures for.
const BUDGET: Duration = Duration::from_millis(100);

/// Median ns per operation over repeated batches of `ops` operations.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 5 || start.elapsed() < BUDGET {
        let t = Instant::now();
        batch();
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

pub struct Ledger {
    pub rows: Vec<Metric>,
}

impl Ledger {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.rows.push((name, value, unit));
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.rows {
            out.push_str(&format!("  {name:<40} {value:>14.4} {unit}\n"));
        }
        out
    }
}

/// Runs every probe that does not depend on the workload named. `cpus`
/// is what the process could run on before it pinned itself to one.
pub fn fixed_probes(seed: u64, cpus: &[usize]) -> io::Result<Ledger> {
    let mut l = Ledger { rows: Vec::new() };
    dist_rows(&mut l);
    simkit_rows(&mut l);
    model_rows(&mut l);
    metrics_rows(&mut l);
    telemetry_rows(&mut l);
    ring_and_protocol_rows(&mut l);
    dispatch_rows(&mut l);
    sim_rows(&mut l, cpus);
    live_rows(&mut l, seed)?;
    Ok(l)
}

fn dist_rows(l: &mut Ledger) {
    const N: u64 = 100_000;
    let families: [(&'static str, ServiceDist); 6] = [
        (
            "dist.sample_ns.fixed",
            SyntheticKind::Fixed.processing_time(),
        ),
        (
            "dist.sample_ns.uniform",
            SyntheticKind::Uniform.processing_time(),
        ),
        (
            "dist.sample_ns.exponential",
            SyntheticKind::Exponential.processing_time(),
        ),
        ("dist.sample_ns.gev", SyntheticKind::Gev.processing_time()),
        ("dist.sample_ns.herd", workload_models::herd()),
        ("dist.sample_ns.masstree", workload_models::masstree()),
    ];
    for (i, (name, dist)) in families.iter().enumerate() {
        let mut rng = stream_rng(PROBE_SEED, i as u64);
        let ns = ns_per_op(N, || {
            let mut acc = 0.0;
            for _ in 0..N {
                acc += dist.sample_ns(&mut rng);
            }
            black_box(acc);
        });
        l.push(name, ns, "ns");
    }
    let dist = &families[2].1;
    let mut rng = stream_rng(PROBE_SEED, 6);
    let mut block = [0.0f64; 256];
    let ns = ns_per_op(400 * 256, || {
        for _ in 0..400 {
            dist.sample_block(&mut rng, &mut block);
            black_box(&block);
        }
    });
    l.push("dist.sample_block_ns.exponential", ns, "ns");
}

/// The classic hold model: pop the earliest event, push it back a
/// random lookahead later, at a steady depth. Lookaheads stay inside
/// half the ladder's 16 µs horizon.
fn queue_hold(mut q: EventQueue<u32>, depth: u32, stream: u64) -> f64 {
    const N: u64 = 50_000;
    const LOOKAHEAD_PS: u64 = 8_000_000;
    let mut rng = stream_rng(PROBE_SEED, stream);
    for i in 0..depth {
        q.push(SimTime::from_ps(rng.gen_range(0..LOOKAHEAD_PS)), i);
    }
    ns_per_op(N, || {
        for _ in 0..N {
            let e = q.pop().expect("steady depth");
            let at = e.time + SimDuration::from_ps(rng.gen_range(0..LOOKAHEAD_PS));
            q.push(at, e.event);
        }
    })
}

fn simkit_rows(l: &mut Ledger) {
    let ladder = || EventQueue::with_horizon(SimDuration::from_us(16));
    l.push(
        "simkit.queue_ns.ladder_d64",
        queue_hold(ladder(), 64, 10),
        "ns",
    );
    l.push(
        "simkit.queue_ns.ladder_d4096",
        queue_hold(ladder(), 4096, 11),
        "ns",
    );
    l.push(
        "simkit.queue_ns.heap_d4096",
        queue_hold(EventQueue::new(), 4096, 12),
        "ns",
    );
}

/// The simulator's building blocks, each driven the way
/// `rpcvalet::system` drives it.
fn model_rows(l: &mut Ledger) {
    const N: u64 = 100_000;
    let mut traffic = TrafficGenerator::new(200, 10.0e6, PROBE_SEED);
    let ns = ns_per_op(N, || {
        for _ in 0..N {
            black_box(traffic.next_arrival());
        }
    });
    l.push("sonuma.traffic_ns", ns, "ns");

    let mesh = Mesh::new_4x4();
    let tiles = mesh.tiles();
    let ns = ns_per_op((tiles * tiles * 100) as u64, || {
        for _ in 0..100 {
            for from in 0..tiles {
                for to in 0..tiles {
                    black_box(mesh.transfer_latency(TileId(from), TileId(black_box(to)), 64));
                }
            }
        }
    });
    l.push("noc.route_ns", ns, "ns");

    // One message through a dispatcher: enqueue, dispatch, and the
    // replenish of the message dispatched `cores` messages ago — half
    // the cores' two outstanding slots stay taken.
    for (name, cores) in [
        ("rpcvalet.dispatch_ns.1x16", 16usize),
        ("rpcvalet.dispatch_ns.4x4", 4),
        ("rpcvalet.dispatch_ns.16x1", 1),
    ] {
        let mut d = Dispatcher::new((0..cores).collect(), 2);
        let mut inflight = std::collections::VecDeque::with_capacity(cores + 1);
        let mut msg = 0u64;
        let ns = ns_per_op(N, || {
            for _ in 0..N {
                d.enqueue(msg);
                msg += 1;
                if let Some((_, core)) = d.try_dispatch() {
                    inflight.push_back(core);
                }
                if inflight.len() > cores {
                    d.on_replenish(inflight.pop_front().expect("non-empty"));
                }
            }
        });
        black_box(d.dispatched());
        l.push(name, ns, "ns");
    }

    let mut table = ReassemblyTable::with_domain(200, 32);
    let mut i = 0usize;
    let ns = ns_per_op(N, || {
        for _ in 0..N {
            black_box(table.on_message((i % 200, i % 32), 1 + (i % 4) as u64));
            i += 1;
        }
    });
    l.push("rpcvalet.reassembly_ns", ns, "ns");

    let params = McsParams::default_16core();
    let mut lock = McsLock::new();
    let mut ready = SimTime::ZERO;
    let ns = ns_per_op(N, || {
        for _ in 0..N {
            black_box(lock.acquire(ready, &params));
            ready += SimDuration::from_ns(100);
        }
    });
    l.push("rpcvalet.mcs_ns", ns, "ns");

    for (name, config) in [
        ("queueing.model_ns_per_req.1x16", QxU::SINGLE_16),
        ("queueing.model_ns_per_req.16x1", QxU::PARTITIONED_16),
    ] {
        let model = QueueingModel::new(config, SyntheticKind::Exponential.normalized());
        let params = RunParams {
            load: 0.8,
            requests: 32_000,
            warmup: 3_200,
            seed: PROBE_SEED,
        };
        let ns = ns_per_op(params.requests, || {
            black_box(model.run(&params));
        });
        l.push(name, ns, "ns");
    }
}

fn metrics_rows(l: &mut Ledger) {
    const N: u64 = 100_000;
    let mut rng = stream_rng(PROBE_SEED, 20);
    let samples: Vec<f64> = (0..25_000)
        .map(|_| rng.gen_range(100.0..100_000.0))
        .collect();

    let mut summary = Summary::new();
    let ns = ns_per_op(samples.len() as u64, || {
        for &s in &samples {
            summary.record_ns(s);
        }
    });
    black_box(summary.mean_ns());
    l.push("metrics.summary_ns", ns, "ns");

    let mut scratch = samples.clone();
    let ns = ns_per_op(samples.len() as u64, || {
        scratch.copy_from_slice(&samples);
        black_box(quantiles_unsorted(&mut scratch, &[0.5, 0.99]));
    });
    l.push("metrics.quantiles_ns", ns, "ns");

    let mut hist = LatencyHistogram::new();
    let ns = ns_per_op(N, || {
        for i in 0..N as usize {
            hist.record(SimDuration::from_ns_f64(samples[i % samples.len()]));
        }
    });
    l.push("metrics.hist_record_ns", ns, "ns");

    let ns = ns_per_op(100, || {
        for _ in 0..100 {
            black_box(hist.percentile(black_box(0.99)));
        }
    });
    l.push("metrics.hist_percentile_us", ns / 1e3, "us");
}

fn telemetry_rows(l: &mut Ledger) {
    const N: u64 = 50_000;
    // A fresh recorder per batch: 50 windows of 1 ms, as a live series
    // would see them.
    let ns = ns_per_op(N, || {
        let mut rec = SeriesRecorder::new(1_000_000_000, 2, 2);
        for i in 0..N {
            let t_ps = i * 1_000_000;
            rec.note_arrival(t_ps);
            rec.note_completion(t_ps, 70_000_000 + (i % 64) * 1_000_000, (i % 2) as usize);
        }
        black_box(rec.windows().len());
    });
    l.push("telemetry.series_note_ns", ns, "ns");

    let event = |req: u64, hop: Hop, t_ps: u64| TraceEvent {
        req,
        hop,
        t_ps,
        src: (req % 2) as u16,
        core: (req % 2) as u16,
    };
    let ns = ns_per_op(N, || {
        for i in 0..N {
            let bytes = event(i, Hop::Started, i * 1_000).encode();
            black_box(TraceEvent::decode(black_box(&bytes)));
        }
    });
    l.push("telemetry.trace_codec_ns", ns, "ns");

    const REQUESTS: u64 = 10_000;
    let hops = [
        Hop::Arrival,
        Hop::Reassembled,
        Hop::Dispatched,
        Hop::Started,
        Hop::Completed,
    ];
    let events: Vec<TraceEvent> = (0..REQUESTS)
        .flat_map(|req| {
            hops.iter()
                .enumerate()
                .map(move |(h, &hop)| event(req, hop, req * 600_000 + h as u64 * 20_000))
        })
        .collect();
    let ns = ns_per_op(REQUESTS, || {
        black_box(assemble_timelines(&events).timelines.len());
    });
    l.push("telemetry.assemble_us_per_kreq", ns, "us");
}

fn ring_and_protocol_rows(l: &mut Ledger) {
    const N: u64 = 100_000;
    let ring = SlotRing::<usize>::with_capacity(1024);
    let ns = ns_per_op(N, || {
        for i in 0..N as usize {
            ring.push(i);
            black_box(ring.pop());
        }
    });
    l.push("ring.slot_ns", ns, "ns");

    let frame = |i: u64| {
        let bytes = Request {
            req_id: i,
            sent_at_ns: i,
            service_ns: 0,
        }
        .encode();
        let payload = live::read_frame(&mut Cursor::new(&bytes[..]))
            .expect("in-memory read")
            .expect("one frame");
        black_box(Request::decode(&payload).expect("round trip"));
    };
    let ns = ns_per_op(N, || (0..N).for_each(frame));
    l.push("live.protocol.frame_ns", ns, "ns");
    let ((), allocs) = count_allocations(|| (0..N).for_each(frame));
    l.push(
        "live.protocol.allocs_per_frame",
        allocs as f64 / N as f64,
        "1/frame",
    );

    let addrs: Vec<SocketAddr> = (0..3)
        .map(|i| SocketAddr::from(([127, 0, 0, 1], 7000 + i)))
        .collect();
    let directory = NodeDirectory::new(addrs);
    let ns = ns_per_op(N, || {
        for flow in 0..N {
            black_box(directory.route(flow));
        }
    });
    l.push("live.cluster.route_ns", ns, "ns");

    live::reduce_timer_slack();
    const SLEEP_NS: u64 = 600_000;
    let mut overshoot = LogHist::new();
    for _ in 0..200 {
        let t = Instant::now();
        BurnMode::Sleep.burn(SLEEP_NS);
        overshoot.record((t.elapsed().as_nanos() as u64).saturating_sub(SLEEP_NS));
    }
    l.push(
        "live.burn.sleep_overshoot_us",
        overshoot.quantile(0.5) / 1e3,
        "us",
    );
}

/// Median time from `submit` on this thread to `recv` returning on a
/// parked worker thread, one item at a time.
fn handoff_us(policy: LivePolicy) -> f64 {
    const HANDOFFS: u64 = 4_000;
    let dispatcher = make_dispatcher::<Instant>(policy, live_wl::WORKERS);
    let done = AtomicU64::new(0);
    let mut merged = LogHist::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..live_wl::WORKERS)
            .map(|w| {
                let (dispatcher, done) = (&dispatcher, &done);
                scope.spawn(move || {
                    let mut hist = LogHist::new();
                    while let Some(submitted) = dispatcher.recv(w) {
                        hist.record(submitted.elapsed().as_nanos() as u64);
                        done.fetch_add(1, Ordering::Release);
                    }
                    hist
                })
            })
            .collect();
        for seq in 0..HANDOFFS {
            // Let the worker that just acknowledged get back into `recv`
            // and park, so every handoff pays the wake-up.
            std::thread::sleep(Duration::from_micros(20));
            dispatcher.submit(RouteKey { conn: seq, seq }, Instant::now());
            while done.load(Ordering::Acquire) <= seq {
                std::hint::spin_loop();
            }
        }
        dispatcher.shutdown();
        for worker in workers {
            merged.merge(&worker.join().expect("handoff worker"));
        }
    });
    merged.quantile(0.5) / 1e3
}

fn dispatch_rows(l: &mut Ledger) {
    for (name, policy) in [
        ("live.dispatch.handoff_us.single", LivePolicy::SingleQueue),
        (
            "live.dispatch.handoff_us.partitioned",
            LivePolicy::Partitioned {
                groups: live_wl::WORKERS,
            },
        ),
        ("live.dispatch.handoff_us.rss", LivePolicy::RssStatic),
        ("live.dispatch.handoff_us.replenish", LivePolicy::Replenish),
    ] {
        l.push(name, handoff_us(policy), "us");
    }
}

/// One fig8 replication point by point, the same points on a two-thread
/// pool, fig8's top-load point alone, and a Masstree point whose 90 µs
/// scans schedule past the ladder's 16 µs horizon.
fn sim_rows(l: &mut Ledger, cpus: &[usize]) {
    let plan = sim::Plan::new(SimKind::Fig8, PROBE_SEED);
    let one = sim::run(&plan, 0.0, &mut SpanLog::off());
    l.push("rpcvalet.sim.ns_per_event.hw", one.hw.ns_per_event(), "ns");
    l.push("rpcvalet.sim.ns_per_event.sw", one.sw.ns_per_event(), "ns");
    l.push(
        "rpcvalet.sim.events_per_req.hw",
        one.hw.events_per_req(),
        "1/req",
    );
    l.push(
        "rpcvalet.sim.events_per_req.sw",
        one.sw.events_per_req(),
        "1/req",
    );

    let scans = ScenarioMatrix::named("fig7b")
        .expect("catalogued matrix")
        .requests(16_000, 1_600)
        .jobs()
        .into_iter()
        .filter(|j| matches!(j.policy, PolicySpec::Sim(Policy::HwStatic)))
        .max_by(|a, b| a.rate_rps.total_cmp(&b.rate_rps))
        .expect("fig7b sweeps hw-static");
    let t = Instant::now();
    let m = scans.run();
    let ns = t.elapsed().as_nanos() as f64 / m.sim_events.max(1) as f64;
    l.push("rpcvalet.sim.ns_per_event.masstree_16x1", ns, "ns");

    let (_, top) = sim::fig8_top_load_point();
    l.push("rpcvalet.sim.sim_p99_ns", top.p99_latency_ns, "ns");
    l.push(
        "simkit.queue.overflow_pushes",
        top.queue_overflow_pushes as f64,
        "count",
    );

    let matrix = SimKind::Fig8.matrices().remove(0);
    let ns = ns_per_op(matrix.jobs().len() as u64, || {
        black_box(matrix.jobs());
    });
    l.push("harness.expand_us_per_job", ns / 1e3, "us");

    // The one probe that needs more than one CPU: the pool runs on
    // every CPU the process started with, from a thread of its own so
    // that this one stays pinned.
    const THREADS: usize = 2;
    let (outcomes, wall_ms) = std::thread::scope(|scope| {
        let pool = scope.spawn(|| {
            crate::proc::restrict_to(cpus);
            let t = Instant::now();
            let outcomes = harness::run_jobs(matrix.jobs(), THREADS);
            (outcomes, t.elapsed().as_secs_f64() * 1e3)
        });
        pool.join().expect("pool thread")
    });
    let busy_ms: f64 = outcomes.iter().map(|o| o.wall_ms).sum();
    l.push(
        "harness.pool_efficiency",
        busy_ms / (THREADS as f64 * wall_ms),
        "ratio",
    );

    let ns = ns_per_op(outcomes.len() as u64, || {
        black_box(SweepReport::from_outcomes(&matrix, &outcomes).to_json_pretty());
    });
    l.push("harness.report_us_per_job", ns / 1e3, "us");
}

/// Short runs of the two live workloads and the echo floor.
fn live_rows(l: &mut Ledger, seed: u64) -> io::Result<()> {
    let echo_us = live_wl::echo_rtt_us(0.4)?;
    l.push("live.echo_rtt_us", echo_us, "us");

    let tier = live_wl::start_tier(&mut SpanLog::off())?;
    let (closed, allocs) =
        count_allocations(|| live_wl::run_closed(tier, seed, 1.5, &mut SpanLog::off()));
    let requests = closed.sent.max(1) as f64;
    l.push(
        "live.server.rtt_over_echo_us",
        closed.latency.p50_us - echo_us,
        "us",
    );
    l.push(
        "live.server.allocs_per_req",
        allocs as f64 / requests,
        "1/req",
    );
    l.push(
        "live.server.ctx_switches_per_req",
        closed.context_switches as f64 / requests,
        "1/req",
    );
    l.push(
        "live.dispatch.queue_high_water",
        closed.server.queue_high_water as f64,
        "count",
    );
    l.push(
        "live.dispatch.ring_high_water",
        closed.server.ring_high_water as f64,
        "count",
    );
    l.push(
        "live.dispatch.replenish_batches",
        closed.server.replenish_batches as f64 / requests,
        "1/req",
    );
    l.push(
        "live.closed.disturbed_windows",
        closed.latency.disturbed as f64,
        "count",
    );

    // Every request traced through the product's five hops.
    let seconds = 4.0;
    let config = live_wl::open_config(seed, seconds, u64::MAX);
    let open = live_wl::run_open(&config, seconds, &mut SpanLog::off())?;
    let trace = assemble_timelines(&open.raw.events);
    let hop_p50_us = |hop: fn(&telemetry::RequestTimeline) -> f64| {
        let ns: Vec<f64> = trace.timelines.iter().map(hop).collect();
        median(&ns) / 1e3
    };
    let server_us = hop_p50_us(|t| t.total_ns());
    l.push("live.hop.parse_us", hop_p50_us(|t| t.reassembly_ns()), "us");
    l.push("live.hop.submit_us", hop_p50_us(|t| t.dispatch_ns()), "us");
    l.push("live.hop.queue_us", hop_p50_us(|t| t.core_queue_ns()), "us");
    l.push(
        "live.hop.service_us",
        hop_p50_us(|t| t.processing_ns()),
        "us",
    );
    // Whole-run medians on both sides, so the difference is the client's.
    let client_p50_us = open.raw.stats.p50_latency_ns / 1e3;
    l.push("live.hop.client_us", client_p50_us - server_us, "us");
    l.push("live.trace.dropped", open.raw.dropped as f64, "count");
    l.push("live.loadgen.duration_ratio", open.duration_ratio, "ratio");
    l.push("live.open.slo_miss_frac", open.slo_miss_frac, "ratio");
    l.push("live.open.jain", open.jain, "ratio");
    l.push(
        "live.open.disturbed_windows",
        open.latency.disturbed as f64,
        "count",
    );
    Ok(())
}
