//! NI backend resource model.
//!
//! The Manycore NI (Fig. 4) splits the NI into per-core frontends
//! ("control") and edge backends ("data"). Backends process packets in a
//! pipelined fashion; the binding resource is pipeline *occupancy*:
//! packets of different messages interleave, but each packet holds a
//! pipeline slot for a bounded time. [`SerialResource`] captures exactly
//! that busy-until semantics.

use noc::TileId;
use simkit::{SimDuration, SimTime};

/// A serially reusable resource (an NI pipeline, a DMA engine, a lock):
/// work items occupy it back-to-back, each for a given duration.
///
/// # Example
/// ```
/// use simkit::{SimDuration, SimTime};
/// use sonuma::SerialResource;
///
/// let mut r = SerialResource::new();
/// let a = r.schedule(SimTime::from_ns(10), SimDuration::from_ns(5));
/// assert_eq!(a.start.as_ns(), 10);
/// assert_eq!(a.end.as_ns(), 15);
/// // A second item arriving earlier still queues behind the first.
/// let b = r.schedule(SimTime::from_ns(12), SimDuration::from_ns(5));
/// assert_eq!(b.start.as_ns(), 15);
/// assert_eq!(b.end.as_ns(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SerialResource {
    free_at: SimTime,
    busy_total: SimDuration,
    items: u64,
}

/// The time window a scheduled item occupies its resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// When the item starts occupying the resource.
    pub start: SimTime,
    /// When the resource becomes free again.
    pub end: SimTime,
}

impl SerialResource {
    /// A resource that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an item that is ready at `ready` and needs the resource
    /// for `duration`. Returns the granted window and advances the
    /// resource's busy horizon.
    #[inline]
    pub fn schedule(&mut self, ready: SimTime, duration: SimDuration) -> Occupancy {
        let start = ready.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        self.busy_total += duration;
        self.items += 1;
        Occupancy { start, end }
    }

    /// Schedules a burst of `count` equal items whose ready times step by
    /// `gap` from `first_ready` — one message's packets draining through
    /// a pipeline. Returns the **last** item's occupancy. Exactly
    /// equivalent to `count` consecutive [`SerialResource::schedule`]
    /// calls (same busy accounting, same final window), fused so the
    /// per-packet path is a single loop over registers instead of repeated
    /// method dispatch on the resource's counters.
    ///
    /// # Panics
    /// Panics if `count` is zero.
    #[inline]
    pub fn schedule_many(
        &mut self,
        first_ready: SimTime,
        gap: SimDuration,
        duration: SimDuration,
        count: u64,
    ) -> Occupancy {
        assert!(count > 0, "a burst has at least one item");
        let mut free_at = self.free_at;
        let mut start = first_ready.max(free_at);
        for i in 1..=count {
            free_at = start + duration;
            if i < count {
                start = (first_ready + gap * i).max(free_at);
            }
        }
        self.free_at = free_at;
        self.busy_total += duration * count;
        self.items += count;
        Occupancy {
            start,
            end: free_at,
        }
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of items scheduled so far.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Utilization over the window `[0, horizon]`.
    ///
    /// # Panics
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        self.busy_total.as_ns_f64() / horizon.as_ns_f64()
    }
}

/// One NI backend: its receive pipeline plus its mesh position. Replies
/// leave the measured path when the core posts them, so no transmit
/// pipeline is modelled.
#[derive(Debug, Clone, Copy)]
pub struct NiBackend {
    /// Mesh tile this backend attaches to.
    pub tile: TileId,
    /// Receive-side pipeline (network → memory).
    pub rx: SerialResource,
}

impl NiBackend {
    /// Creates an idle backend at `tile`.
    pub fn new(tile: TileId) -> Self {
        NiBackend {
            tile,
            rx: SerialResource::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }
    fn d(ns: u64) -> SimDuration {
        SimDuration::from_ns(ns)
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = SerialResource::new();
        let o = r.schedule(t(100), d(10));
        assert_eq!(o.start, t(100));
        assert_eq!(o.end, t(110));
        assert_eq!(r.free_at(), t(110));
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = SerialResource::new();
        r.schedule(t(0), d(100));
        let o = r.schedule(t(10), d(5));
        assert_eq!(o.start, t(100));
        assert_eq!(o.end, t(105));
    }

    #[test]
    fn gap_leaves_idle_time() {
        let mut r = SerialResource::new();
        r.schedule(t(0), d(10));
        let o = r.schedule(t(50), d(10));
        assert_eq!(o.start, t(50));
        assert_eq!(r.busy_total(), d(20));
        assert_eq!(r.items(), 2);
    }

    #[test]
    fn utilization_accounts_busy_fraction() {
        let mut r = SerialResource::new();
        r.schedule(t(0), d(25));
        r.schedule(t(50), d(25));
        assert!((r.utilization(t(100)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn schedule_many_matches_per_item_schedule() {
        // Sparse burst (gaps dominate) and dense burst (pipeline
        // backlogs) both match the per-item loop exactly.
        for (gap, dur) in [(10u64, 2u64), (2, 10), (5, 5), (0, 3)] {
            let mut a = SerialResource::new();
            a.schedule(t(0), d(7)); // pre-existing busy horizon
            let mut b = a;
            let last = {
                let mut occ = None;
                for i in 0..6u64 {
                    occ = Some(a.schedule(t(100) + d(gap) * i, d(dur)));
                }
                occ.unwrap()
            };
            let many = b.schedule_many(t(100), d(gap), d(dur), 6);
            assert_eq!(many, last, "gap={gap} dur={dur}");
            assert_eq!(a, b, "resource state must match");
        }
    }

    #[test]
    fn schedule_many_single_item_equals_schedule() {
        let mut a = SerialResource::new();
        let mut b = SerialResource::new();
        assert_eq!(
            a.schedule(t(3), d(4)),
            b.schedule_many(t(3), d(9), d(4), 1)
        );
        assert_eq!(a, b);
    }

    #[test]
    fn zero_duration_items_pass_through() {
        let mut r = SerialResource::new();
        let o = r.schedule(t(5), SimDuration::ZERO);
        assert_eq!(o.start, o.end);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn utilization_zero_horizon_panics() {
        SerialResource::new().utilization(SimTime::ZERO);
    }
}
