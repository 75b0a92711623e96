//! Messaging domains: buffer provisioning and slot accounting (§4.2).
//!
//! A messaging domain spans `N` nodes. Each node allocates a **send
//! buffer** of `N × S` slots (bookkeeping for its outgoing messages,
//! `S` per peer) and a **receive buffer** of `N × S` slots (where peers'
//! `send` payloads land). The sender picks the receive-slot address, so
//! soNUMA's stateless request–response protocol can deliver a message as
//! independent cache-block writes with no NI reassembly buffers.
//!
//! From the server's perspective (which is what the simulation needs),
//! the relevant state is the *receive* side: per-source slot occupancy —
//! a source with all `S` of its slots outstanding must wait for a
//! `replenish` before sending again (end-to-end flow control).

/// Size of one send-slot bookkeeping record in bytes (§4.2: valid bit +
/// payload pointer + size field, padded; "32 × N × S" in the footprint
/// formula).
pub const SEND_SLOT_BYTES: u64 = 32;
/// The over-provisioned counter field per receive slot: one full cache
/// block to avoid unaligned payloads (§4.2).
pub const COUNTER_FIELD_BYTES: u64 = 64;

/// Slot-accounting view of a messaging domain at the receiving node.
///
/// # Example
/// ```
/// use rpcvalet::MessagingDomain;
///
/// let mut dom = MessagingDomain::new(200, 32, 512);
/// let slot = dom.try_acquire(5).expect("fresh source has free slots");
/// assert_eq!(dom.in_use(5), 1);
/// dom.release(5, slot);
/// assert_eq!(dom.in_use(5), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MessagingDomain {
    nodes: usize,
    slots_per_node: usize,
    max_msg_bytes: u64,
    /// Per-source free-slot stacks (indices 0..S).
    free: Vec<Vec<usize>>,
    /// Per-source in-use counters (redundant with `free`, kept for O(1)
    /// queries and invariant checks).
    used: Vec<usize>,
}

impl MessagingDomain {
    /// Creates a domain of `nodes` nodes with `slots_per_node` slots per
    /// peer and a maximum message payload of `max_msg_bytes`.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(nodes: usize, slots_per_node: usize, max_msg_bytes: u64) -> Self {
        assert!(nodes > 0, "domain needs at least one node");
        assert!(slots_per_node > 0, "need at least one slot per node");
        assert!(max_msg_bytes > 0, "max message size must be positive");
        MessagingDomain {
            nodes,
            slots_per_node,
            max_msg_bytes,
            free: (0..nodes)
                .map(|_| (0..slots_per_node).rev().collect())
                .collect(),
            used: vec![0; nodes],
        }
    }

    /// Number of nodes `N` in the domain.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Slots `S` provisioned per peer node.
    pub fn slots_per_node(&self) -> usize {
        self.slots_per_node
    }

    /// The domain's `max_msg_size` in bytes.
    pub fn max_msg_bytes(&self) -> u64 {
        self.max_msg_bytes
    }

    /// Tries to take a free receive slot for messages from `source`.
    /// Returns the slot index, or `None` if the source has exhausted its
    /// `S` slots (it must wait for a `replenish`).
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn try_acquire(&mut self, source: usize) -> Option<usize> {
        assert!(source < self.nodes, "source {source} out of range");
        let slot = self.free[source].pop()?;
        self.used[source] += 1;
        Some(slot)
    }

    /// Returns `source`'s `slot` to the free pool (the effect of a
    /// `replenish` reaching the sender).
    ///
    /// # Panics
    /// Panics if the slot was not in use (double release) or out of range.
    pub fn release(&mut self, source: usize, slot: usize) {
        assert!(source < self.nodes, "source {source} out of range");
        assert!(slot < self.slots_per_node, "slot {slot} out of range");
        assert!(
            self.used[source] > 0,
            "double release of slot {slot} for source {source}"
        );
        // The membership scan is O(slots) per release — debug builds only.
        debug_assert!(
            !self.free[source].contains(&slot),
            "double release of slot {slot} for source {source}"
        );
        self.used[source] -= 1;
        self.free[source].push(slot);
    }

    /// Number of `source`'s slots currently in use.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn in_use(&self, source: usize) -> usize {
        assert!(source < self.nodes, "source {source} out of range");
        self.used[source]
    }

    /// Total memory footprint of the mechanism in bytes, per the paper's
    /// formula: `32·N·S + (max_msg_size + 64)·N·S`.
    pub fn memory_footprint_bytes(&self) -> u64 {
        let n = self.nodes as u64;
        let s = self.slots_per_node as u64;
        SEND_SLOT_BYTES * n * s + (self.max_msg_bytes + COUNTER_FIELD_BYTES) * n * s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let mut d = MessagingDomain::new(4, 2, 64);
        let a = d.try_acquire(1).unwrap();
        let b = d.try_acquire(1).unwrap();
        assert_ne!(a, b);
        assert_eq!(d.in_use(1), 2, "both slots taken");
        assert_eq!(d.try_acquire(1), None);
        d.release(1, a);
        assert_eq!(d.in_use(1), 1);
        assert_eq!(d.try_acquire(1), Some(a));
    }

    #[test]
    fn sources_are_independent() {
        let mut d = MessagingDomain::new(3, 1, 64);
        assert!(d.try_acquire(0).is_some());
        assert!(d.try_acquire(1).is_some());
        assert!(d.try_acquire(2).is_some());
        assert_eq!(d.try_acquire(0), None);
        assert_eq!(d.in_use(1), 1);
    }

    #[test]
    fn footprint_matches_paper_formula() {
        // §4.2: "32 × N × S + (max_msg_size + 64) × N × S bytes" — and the
        // paper expects "a few tens of MBs" for current deployments.
        let d = MessagingDomain::new(200, 32, 512);
        let expected = 32 * 200 * 32 + (512 + 64) * 200 * 32;
        assert_eq!(d.memory_footprint_bytes(), expected);
        let mb = d.memory_footprint_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb < 40.0, "footprint {mb:.1} MB should be tens of MBs");
    }

    #[test]
    fn slots_unique_while_held() {
        let mut d = MessagingDomain::new(2, 8, 64);
        let mut held = Vec::new();
        while let Some(s) = d.try_acquire(0) {
            held.push(s);
        }
        held.sort_unstable();
        held.dedup();
        assert_eq!(held.len(), 8, "all 8 slots distinct");
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut d = MessagingDomain::new(2, 2, 64);
        let s = d.try_acquire(0).unwrap();
        d.release(0, s);
        d.release(0, s);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        MessagingDomain::new(2, 2, 64).in_use(2);
    }
}
