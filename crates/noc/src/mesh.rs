//! Mesh topology and XY-routing latency.

use simkit::SimDuration;

/// Per-hop router+link traversal latency (Table 1: 3 cycles/hop at
/// 2 GHz).
pub const HOP_CYCLES: u64 = 3;
/// Link width in bytes (Table 1: 16-byte links); one flit per cycle
/// crosses a link.
pub const LINK_BYTES: u64 = 16;

/// A flat tile index into a mesh (row-major order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId(pub usize);

impl TileId {
    /// Wraps a flat index.
    pub const fn new(idx: usize) -> Self {
        TileId(idx)
    }

    /// The flat index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tile{}", self.0)
    }
}

/// A `cols × rows` 2D mesh with dimension-ordered (XY) routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    cols: usize,
    rows: usize,
}

impl Mesh {
    /// Creates a mesh with the paper's hop latency and link width.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be positive");
        Mesh { cols, rows }
    }

    /// The 4×4 mesh of the paper's 16-core chip.
    pub fn new_4x4() -> Self {
        Mesh::new(4, 4)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of tiles.
    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// `(x, y)` coordinates of a tile.
    ///
    /// # Panics
    /// Panics if the tile is out of range.
    pub fn coords(&self, t: TileId) -> (usize, usize) {
        assert!(t.0 < self.tiles(), "tile {t} out of range for {self:?}");
        (t.0 % self.cols, t.0 / self.cols)
    }

    /// The tile at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of range.
    pub fn tile_at(&self, x: usize, y: usize) -> TileId {
        assert!(x < self.cols && y < self.rows, "({x},{y}) out of range");
        TileId(y * self.cols + x)
    }

    /// Manhattan hop count under XY routing.
    pub fn hops(&self, from: TileId, to: TileId) -> u64 {
        let (x0, y0) = self.coords(from);
        let (x1, y1) = self.coords(to);
        (x0.abs_diff(x1) + y0.abs_diff(y1)) as u64
    }

    /// Latency for the head flit to travel `from → to`.
    pub fn head_latency(&self, from: TileId, to: TileId) -> SimDuration {
        SimDuration::from_cycles(self.hops(from, to) * HOP_CYCLES)
    }

    /// End-to-end latency of a `payload_bytes` transfer: head-flit routing
    /// plus pipeline serialization of the remaining flits (one flit per
    /// cycle on the final link).
    pub fn transfer_latency(&self, from: TileId, to: TileId, payload_bytes: u64) -> SimDuration {
        let flits = payload_bytes.div_ceil(LINK_BYTES).max(1);
        self.head_latency(from, to) + SimDuration::from_cycles(flits - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let m = Mesh::new_4x4();
        for i in 0..16 {
            let (x, y) = m.coords(TileId(i));
            assert_eq!(m.tile_at(x, y), TileId(i));
        }
    }

    #[test]
    fn hop_counts() {
        let m = Mesh::new_4x4();
        assert_eq!(m.hops(TileId(0), TileId(0)), 0);
        assert_eq!(m.hops(TileId(0), TileId(3)), 3);
        assert_eq!(m.hops(TileId(0), TileId(12)), 3);
        assert_eq!(m.hops(TileId(0), TileId(15)), 6);
        assert_eq!(m.hops(TileId(5), TileId(10)), 2);
        // symmetric
        assert_eq!(m.hops(TileId(15), TileId(0)), 6);
    }

    #[test]
    fn head_latency_uses_hop_cycles() {
        let m = Mesh::new_4x4();
        // 6 hops * 3 cycles = 18 cycles = 9 ns.
        assert_eq!(m.head_latency(TileId(0), TileId(15)).as_ns_f64(), 9.0);
    }

    #[test]
    fn transfer_latency_adds_serialization() {
        let m = Mesh::new_4x4();
        // 64B = 4 flits of 16B: 3 extra flit cycles behind the head.
        let one_hop = m.transfer_latency(TileId(0), TileId(1), 64);
        assert_eq!(one_hop.as_cycles(), 3 + 3);
        // A single-flit control message has no serialization.
        let ctl = m.transfer_latency(TileId(0), TileId(1), 8);
        assert_eq!(ctl.as_cycles(), 3);
    }

    #[test]
    fn zero_hop_transfer_only_serializes() {
        let m = Mesh::new_4x4();
        let same = m.transfer_latency(TileId(3), TileId(3), 64);
        assert_eq!(same.as_cycles(), 3);
    }

    #[test]
    fn non_square_mesh() {
        let m = Mesh::new(8, 2);
        assert_eq!(m.tiles(), 16);
        assert_eq!(m.hops(TileId(0), TileId(15)), 7 + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tile_panics() {
        Mesh::new_4x4().coords(TileId(16));
    }
}
