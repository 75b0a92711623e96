//! Property-based tests (proptest) on the core data structures and
//! invariants across the workspace.

use proptest::prelude::*;

use rpcvalet_repro::dist::gev::Gev;
use rpcvalet_repro::dist::ServiceDist;
use rpcvalet_repro::metrics::{percentile_ns, quantiles_unsorted, LatencyHistogram};
use rpcvalet_repro::noc::{Mesh, TileId};
use rpcvalet_repro::rpcvalet::domain::MessagingDomain;
use rpcvalet_repro::rpcvalet::dispatch::Dispatcher;
use rpcvalet_repro::simkit::rng::stream_rng;
use rpcvalet_repro::simkit::{EventQueue, SimDuration, SimTime};
use rpcvalet_repro::sonuma::SerialResource;

proptest! {
    /// The event queue always pops in (time, insertion) order, whatever
    /// the push order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some(s) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(s.time > lt || (s.time == lt && s.event > li),
                    "order violated: ({:?},{}) after ({:?},{})", s.time, s.event, lt, li);
            }
            last = Some((s.time, s.event));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// A serial resource never overlaps grants and never goes backwards.
    #[test]
    fn serial_resource_no_overlap(jobs in prop::collection::vec((0u64..10_000, 0u64..500), 1..100)) {
        let mut r = SerialResource::new();
        let mut sorted = jobs.clone();
        sorted.sort();
        let mut prev_end = SimTime::ZERO;
        for (ready, dur) in sorted {
            let occ = r.schedule(SimTime::from_ns(ready), SimDuration::from_ns(dur));
            prop_assert!(occ.start >= prev_end, "overlapping occupancy");
            prop_assert!(occ.start >= SimTime::from_ns(ready), "started before ready");
            prop_assert_eq!(occ.end, occ.start + SimDuration::from_ns(dur));
            prev_end = occ.end;
        }
    }

    /// Histogram percentiles stay within 1 % of exact percentiles.
    #[test]
    fn histogram_matches_exact_percentiles(
        samples in prop::collection::vec(1u64..10_000_000, 100..2_000),
        q in 0.01f64..0.999,
    ) {
        let mut h = LatencyHistogram::new();
        let ns: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
        for &v in &samples {
            h.record(SimDuration::from_ns(v));
        }
        let exact = percentile_ns(&ns, q);
        let approx = h.percentile(q).as_ns_f64();
        prop_assert!(
            (approx - exact).abs() <= exact * 0.011 + 1.0,
            "q={}: histogram {} vs exact {}", q, approx, exact
        );
    }

    /// The production quantile selection returns exactly the sort-based
    /// reference's value for every q: arbitrary lengths, heavy
    /// duplication, and q sets holding 0, 1, random fractions and exact
    /// rank boundaries `k/n`.
    #[test]
    fn quantile_selection_matches_sort_reference(
        samples in prop::collection::vec(0u64..64, 1..2_000),
        fractions in prop::collection::vec(0.0f64..1.0, 0..5),
        ranks in prop::collection::vec(0usize..2_001, 0..5),
    ) {
        let ns: Vec<f64> = samples.iter().map(|&v| v as f64 / 4.0).collect();
        let n = ns.len();
        let qs: Vec<f64> = [0.0, 1.0]
            .into_iter()
            .chain(fractions)
            .chain(ranks.iter().map(|&k| (k % (n + 1)) as f64 / n as f64))
            .collect();
        let mut scratch = ns.clone();
        let got = quantiles_unsorted(&mut scratch, &qs);
        for (&q, &v) in qs.iter().zip(&got) {
            prop_assert_eq!(v, percentile_ns(&ns, q), "q={} n={}", q, n);
        }
    }

    /// Slot accounting: acquire/release sequences never lose or duplicate
    /// slots, and in-use counts stay within bounds.
    #[test]
    fn domain_slot_invariants(ops in prop::collection::vec(any::<bool>(), 1..300)) {
        let slots = 8;
        let mut d = MessagingDomain::new(2, slots, 64);
        let mut held: Vec<usize> = Vec::new();
        for acquire in ops {
            if acquire {
                if let Some(s) = d.try_acquire(1) {
                    prop_assert!(!held.contains(&s), "slot {} double-issued", s);
                    held.push(s);
                } else {
                    prop_assert_eq!(held.len(), slots, "refused with free slots");
                }
            } else if let Some(s) = held.pop() {
                d.release(1, s);
            }
            prop_assert_eq!(d.in_use(1), held.len());
        }
    }

    /// The dispatcher never exceeds its outstanding threshold and never
    /// loses or reorders messages.
    #[test]
    fn dispatcher_invariants(
        n_msgs in 1u64..200,
        threshold in 1u32..4,
        replenish_every in 1usize..5,
    ) {
        let cores = vec![0, 1, 2, 3];
        let mut disp = Dispatcher::new(cores.clone(), threshold);
        for m in 0..n_msgs {
            disp.enqueue(m);
        }
        let mut received = Vec::new();
        let mut outstanding = [0u32; 4];
        let mut i = 0usize;
        loop {
            match disp.try_dispatch() {
                Some((m, c)) => {
                    received.push(m);
                    outstanding[c] += 1;
                    prop_assert!(outstanding[c] <= threshold, "threshold exceeded");
                }
                None => {
                    // Replenish some core with outstanding work, else done.
                    let Some(c) = (0..4).find(|&c| outstanding[c] > 0) else { break };
                    let _ = replenish_every; // vary nothing; FIFO regardless
                    disp.on_replenish(cores[c]);
                    outstanding[c] -= 1;
                }
            }
            i += 1;
            prop_assert!(i < 100_000, "no livelock");
        }
        let expect: Vec<u64> = (0..n_msgs).collect();
        prop_assert_eq!(received, expect, "messages lost or reordered");
    }

    /// XY-mesh hop counts obey the triangle inequality and symmetry.
    #[test]
    fn mesh_metric_properties(a in 0usize..16, b in 0usize..16, c in 0usize..16) {
        let m = Mesh::new_4x4();
        let (ta, tb, tc) = (TileId::new(a), TileId::new(b), TileId::new(c));
        prop_assert_eq!(m.hops(ta, tb), m.hops(tb, ta));
        prop_assert!(m.hops(ta, tc) <= m.hops(ta, tb) + m.hops(tb, tc));
        prop_assert_eq!(m.hops(ta, ta), 0);
    }

    /// GEV quantile/CDF are inverse functions over the support.
    #[test]
    fn gev_quantile_cdf_roundtrip(
        loc in -100.0f64..1000.0,
        scale in 1.0f64..500.0,
        shape in -0.5f64..0.9,
        u in 0.001f64..0.999,
    ) {
        let g = Gev::new(loc, scale, shape);
        let x = g.quantile(u);
        prop_assert!((g.cdf(x) - u).abs() < 1e-6);
    }

    /// Every distribution samples non-negative values and (for bounded
    /// ones) stays within its support.
    #[test]
    fn service_dist_sampling_sane(seed in 0u64..1000) {
        let mut rng = stream_rng(seed, 0);
        let dists = [
            ServiceDist::fixed_ns(5.0),
            ServiceDist::uniform_ns(2.0, 9.0),
            ServiceDist::exponential_mean_ns(3.0),
            ServiceDist::lognormal_mean_ns(7.0, 0.5),
        ];
        for d in &dists {
            for _ in 0..50 {
                let v = d.sample_ns(&mut rng);
                prop_assert!(v >= 0.0 && v.is_finite());
            }
        }
        let u = ServiceDist::uniform_ns(2.0, 9.0);
        for _ in 0..200 {
            let v = u.sample_ns(&mut rng);
            prop_assert!((2.0..=9.0).contains(&v));
        }
    }

    /// Rescaling a distribution hits the target mean for any positive
    /// target.
    #[test]
    fn rescale_hits_target(target in 0.5f64..10_000.0) {
        for d in [
            ServiceDist::exponential_mean_ns(123.0),
            ServiceDist::uniform_ns(10.0, 20.0),
            ServiceDist::gev_cycles(363.0, 100.0, 0.65),
        ] {
            let r = d.rescaled_to_mean(target);
            prop_assert!((r.mean_ns() - target).abs() < target * 0.01 + 1e-9);
        }
    }
}
