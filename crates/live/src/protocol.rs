//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload. Requests carry the client's scheduled send time and the
//! service demand the worker should burn, so the server needs no shared
//! state with the load generator and responses are self-describing:
//! latency is `now − sent_at_ns` against the client's own clock, and the
//! responding worker id feeds the load-balance statistics.

use std::io::{self, Read, Write};

use telemetry::SeriesWindow;

/// Frame discriminant for requests.
pub const KIND_REQUEST: u8 = 0;
/// Frame discriminant for responses.
pub const KIND_RESPONSE: u8 = 1;
/// Frame discriminant for a telemetry-snapshot query (the `STATS` verb).
pub const KIND_STATS_REQUEST: u8 = 2;
/// Frame discriminant for a telemetry-snapshot reply.
pub const KIND_STATS_RESPONSE: u8 = 3;
/// Frame discriminant for a windowed-metrics query (the `METRICS` verb).
pub const KIND_METRICS_REQUEST: u8 = 4;
/// Frame discriminant for a windowed-metrics reply.
pub const KIND_METRICS_RESPONSE: u8 = 5;
/// Frame discriminant for a redirect: a draining node's answer to a
/// request it refuses to dispatch. The client must resend the request
/// to another node (its balancer picks which).
pub const KIND_REDIRECT: u8 = 6;
/// Frame discriminant for a drain command/query (the `DRAIN` verb).
pub const KIND_DRAIN_REQUEST: u8 = 7;
/// Frame discriminant for a drain reply.
pub const KIND_DRAIN_RESPONSE: u8 = 8;
/// Frame discriminant for a remote-shutdown request (the `SHUTDOWN`
/// verb): asks the server process to exit cleanly, the portable
/// supervisor alternative to delivering a signal.
pub const KIND_SHUTDOWN_REQUEST: u8 = 9;
/// Frame discriminant for a remote-shutdown acknowledgement.
pub const KIND_SHUTDOWN_RESPONSE: u8 = 10;

/// Upper bound on accepted payload sizes; anything larger indicates a
/// corrupt length prefix (e.g. a peer speaking a different protocol).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024;

/// A request frame: what the load generator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client-assigned id, unique per run (send order).
    pub req_id: u64,
    /// Scheduled send time, in ns since the client's epoch. Echoed back
    /// verbatim; the client computes open-loop latency from it.
    pub sent_at_ns: u64,
    /// CPU time the serving worker must burn, in ns.
    pub service_ns: u64,
}

/// A response frame: what a worker sends back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// The request's id, echoed.
    pub req_id: u64,
    /// The request's scheduled send time, echoed.
    pub sent_at_ns: u64,
    /// The service demand that was burned, echoed.
    pub service_ns: u64,
    /// Which worker served the request (for balance accounting).
    pub worker: u32,
}

const REQUEST_LEN: usize = 1 + 8 + 8 + 8;
const RESPONSE_LEN: usize = 1 + 8 + 8 + 8 + 4;

impl Request {
    /// Encodes the request as a complete frame (length prefix included).
    pub fn encode(&self) -> [u8; 4 + REQUEST_LEN] {
        let mut buf = [0u8; 4 + REQUEST_LEN];
        buf[..4].copy_from_slice(&(REQUEST_LEN as u32).to_le_bytes());
        buf[4] = KIND_REQUEST;
        buf[5..13].copy_from_slice(&self.req_id.to_le_bytes());
        buf[13..21].copy_from_slice(&self.sent_at_ns.to_le_bytes());
        buf[21..29].copy_from_slice(&self.service_ns.to_le_bytes());
        buf
    }

    /// Decodes a request from a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        if payload.len() != REQUEST_LEN || payload[0] != KIND_REQUEST {
            return Err(malformed("request", payload));
        }
        Ok(Request {
            req_id: u64::from_le_bytes(payload[1..9].try_into().unwrap()),
            sent_at_ns: u64::from_le_bytes(payload[9..17].try_into().unwrap()),
            service_ns: u64::from_le_bytes(payload[17..25].try_into().unwrap()),
        })
    }
}

impl Response {
    /// Encodes the response as a complete frame (length prefix included).
    pub fn encode(&self) -> [u8; 4 + RESPONSE_LEN] {
        let mut buf = [0u8; 4 + RESPONSE_LEN];
        buf[..4].copy_from_slice(&(RESPONSE_LEN as u32).to_le_bytes());
        buf[4] = KIND_RESPONSE;
        buf[5..13].copy_from_slice(&self.req_id.to_le_bytes());
        buf[13..21].copy_from_slice(&self.sent_at_ns.to_le_bytes());
        buf[21..29].copy_from_slice(&self.service_ns.to_le_bytes());
        buf[29..33].copy_from_slice(&self.worker.to_le_bytes());
        buf
    }

    /// Decodes a response from a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        if payload.len() != RESPONSE_LEN || payload[0] != KIND_RESPONSE {
            return Err(malformed("response", payload));
        }
        Ok(Response {
            req_id: u64::from_le_bytes(payload[1..9].try_into().unwrap()),
            sent_at_ns: u64::from_le_bytes(payload[9..17].try_into().unwrap()),
            service_ns: u64::from_le_bytes(payload[17..25].try_into().unwrap()),
            worker: u32::from_le_bytes(payload[25..29].try_into().unwrap()),
        })
    }
}

/// A redirect frame: what a draining server sends instead of serving.
///
/// Carries only the request id — the client already holds everything
/// else about the request and just needs to know which one to re-place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Redirect {
    /// The refused request's id, echoed.
    pub req_id: u64,
}

const REDIRECT_LEN: usize = 1 + 8;

impl Redirect {
    /// Encodes the redirect as a complete frame (length prefix
    /// included).
    pub fn encode(&self) -> [u8; 4 + REDIRECT_LEN] {
        let mut buf = [0u8; 4 + REDIRECT_LEN];
        buf[..4].copy_from_slice(&(REDIRECT_LEN as u32).to_le_bytes());
        buf[4] = KIND_REDIRECT;
        buf[5..13].copy_from_slice(&self.req_id.to_le_bytes());
        buf
    }

    /// Decodes a redirect from a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Redirect> {
        if payload.len() != REDIRECT_LEN || payload[0] != KIND_REDIRECT {
            return Err(malformed("redirect", payload));
        }
        Ok(Redirect {
            req_id: u64::from_le_bytes(payload[1..9].try_into().unwrap()),
        })
    }
}

/// What a `DRAIN` frame asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainAction {
    /// Report drain state without changing it.
    Query,
    /// Stop dispatching new requests; answer them with
    /// [`Redirect`] frames instead. In-flight requests complete
    /// normally. Idempotent.
    Begin,
    /// Resume dispatching (undo [`DrainAction::Begin`]). Idempotent.
    Resume,
}

impl DrainAction {
    fn code(self) -> u8 {
        match self {
            DrainAction::Query => 0,
            DrainAction::Begin => 1,
            DrainAction::Resume => 2,
        }
    }

    fn from_code(code: u8) -> Option<DrainAction> {
        match code {
            0 => Some(DrainAction::Query),
            1 => Some(DrainAction::Begin),
            2 => Some(DrainAction::Resume),
            _ => None,
        }
    }
}

const DRAIN_REQUEST_LEN: usize = 1 + 1;
const DRAIN_RESPONSE_LEN: usize = 1 + 1 + 8;

/// Encodes a `DRAIN` command/query as a complete frame.
pub fn encode_drain_request(action: DrainAction) -> [u8; 4 + DRAIN_REQUEST_LEN] {
    let mut buf = [0u8; 4 + DRAIN_REQUEST_LEN];
    buf[..4].copy_from_slice(&(DRAIN_REQUEST_LEN as u32).to_le_bytes());
    buf[4] = KIND_DRAIN_REQUEST;
    buf[5] = action.code();
    buf
}

/// Decodes the action from a `DRAIN` request payload.
pub fn decode_drain_request(payload: &[u8]) -> io::Result<DrainAction> {
    if payload.len() != DRAIN_REQUEST_LEN || payload[0] != KIND_DRAIN_REQUEST {
        return Err(malformed("drain request", payload));
    }
    DrainAction::from_code(payload[1]).ok_or_else(|| malformed("drain request", payload))
}

/// The server's drain state, answered to every `DRAIN` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReply {
    /// Whether the server is currently refusing new requests.
    pub draining: bool,
    /// Requests accepted but not yet completed — a draining node is
    /// safe to stop exactly when this reaches zero.
    pub inflight: u64,
}

impl DrainReply {
    /// Encodes the reply as a complete frame (length prefix included).
    pub fn encode(&self) -> [u8; 4 + DRAIN_RESPONSE_LEN] {
        let mut buf = [0u8; 4 + DRAIN_RESPONSE_LEN];
        buf[..4].copy_from_slice(&(DRAIN_RESPONSE_LEN as u32).to_le_bytes());
        buf[4] = KIND_DRAIN_RESPONSE;
        buf[5] = u8::from(self.draining);
        buf[6..14].copy_from_slice(&self.inflight.to_le_bytes());
        buf
    }

    /// Decodes a reply from a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<DrainReply> {
        if payload.len() != DRAIN_RESPONSE_LEN || payload[0] != KIND_DRAIN_RESPONSE {
            return Err(malformed("drain response", payload));
        }
        Ok(DrainReply {
            draining: payload[1] != 0,
            inflight: u64::from_le_bytes(payload[2..10].try_into().unwrap()),
        })
    }
}

const SHUTDOWN_REQUEST_LEN: usize = 1;
const SHUTDOWN_RESPONSE_LEN: usize = 1;

/// Encodes the `SHUTDOWN` request as a complete frame.
pub fn encode_shutdown_request() -> [u8; 4 + SHUTDOWN_REQUEST_LEN] {
    let mut buf = [0u8; 4 + SHUTDOWN_REQUEST_LEN];
    buf[..4].copy_from_slice(&(SHUTDOWN_REQUEST_LEN as u32).to_le_bytes());
    buf[4] = KIND_SHUTDOWN_REQUEST;
    buf
}

/// Encodes the `SHUTDOWN` acknowledgement as a complete frame.
pub fn encode_shutdown_response() -> [u8; 4 + SHUTDOWN_RESPONSE_LEN] {
    let mut buf = [0u8; 4 + SHUTDOWN_RESPONSE_LEN];
    buf[..4].copy_from_slice(&(SHUTDOWN_RESPONSE_LEN as u32).to_le_bytes());
    buf[4] = KIND_SHUTDOWN_RESPONSE;
    buf
}

/// Per-worker row of a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Requests this worker completed.
    pub completions: u64,
    /// Response bytes this worker wrote.
    pub bytes_tx: u64,
}

/// The server's telemetry counters and gauges, as answered to the
/// `STATS` verb ([`KIND_STATS_REQUEST`]). All counters are since server
/// start; gauges are high-water marks. The snapshot is advisory — it is
/// read with relaxed atomics while the server runs, so concurrent
/// counters may be a few requests apart (a quiesced server's snapshot
/// is exact).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Request frames accepted (across all connections).
    pub requests_rx: u64,
    /// Request bytes read, length prefixes included.
    pub bytes_rx: u64,
    /// Deepest the requests waiting for a worker ever got (max over the
    /// policy's queues).
    pub queue_high_water: u64,
    /// Most workers parked idle on one queue at once.
    pub ring_high_water: u64,
    /// Deliveries to workers: one per item handed to a worker.
    pub replenish_batches: u64,
    /// Trace events lost to a full ring since server start (0 when
    /// tracing is off or the capture is whole). A non-zero value means
    /// the lifecycle capture is incomplete and per-hop statistics are
    /// biased toward the surviving events.
    pub trace_dropped: u64,
    /// Requests answered with a [`Redirect`] instead of being
    /// dispatched (only ever non-zero while draining). Not counted in
    /// [`StatsSnapshot::requests_rx`].
    pub redirects: u64,
    /// Per-worker completions and bytes, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
}

const STATS_REQUEST_LEN: usize = 1;
const STATS_HEADER_LEN: usize = 1 + 7 * 8 + 4;
const STATS_ROW_LEN: usize = 2 * 8;

/// Encodes the `STATS` query as a complete frame.
pub fn encode_stats_request() -> [u8; 4 + STATS_REQUEST_LEN] {
    let mut buf = [0u8; 4 + STATS_REQUEST_LEN];
    buf[..4].copy_from_slice(&(STATS_REQUEST_LEN as u32).to_le_bytes());
    buf[4] = KIND_STATS_REQUEST;
    buf
}

impl StatsSnapshot {
    /// Responses served, summed over workers.
    pub fn completions(&self) -> u64 {
        self.per_worker.iter().map(|w| w.completions).sum()
    }

    /// Response bytes written, summed over workers.
    pub fn bytes_tx(&self) -> u64 {
        self.per_worker.iter().map(|w| w.bytes_tx).sum()
    }

    /// Encodes the snapshot as a complete frame (length prefix
    /// included).
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = STATS_HEADER_LEN + self.per_worker.len() * STATS_ROW_LEN;
        let mut buf = Vec::with_capacity(4 + payload_len);
        buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
        buf.push(KIND_STATS_RESPONSE);
        for word in [
            self.requests_rx,
            self.bytes_rx,
            self.queue_high_water,
            self.ring_high_water,
            self.replenish_batches,
            self.trace_dropped,
            self.redirects,
        ] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf.extend_from_slice(&(self.per_worker.len() as u32).to_le_bytes());
        for w in &self.per_worker {
            buf.extend_from_slice(&w.completions.to_le_bytes());
            buf.extend_from_slice(&w.bytes_tx.to_le_bytes());
        }
        buf
    }

    /// Decodes a snapshot from a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<StatsSnapshot> {
        if payload.len() < STATS_HEADER_LEN || payload[0] != KIND_STATS_RESPONSE {
            return Err(malformed("stats response", payload));
        }
        let word = |i: usize| u64::from_le_bytes(payload[1 + i * 8..9 + i * 8].try_into().unwrap());
        let workers =
            u32::from_le_bytes(payload[STATS_HEADER_LEN - 4..STATS_HEADER_LEN].try_into().unwrap())
                as usize;
        if payload.len() != STATS_HEADER_LEN + workers * STATS_ROW_LEN {
            return Err(malformed("stats response", payload));
        }
        let mut per_worker = Vec::with_capacity(workers);
        for w in 0..workers {
            let base = STATS_HEADER_LEN + w * STATS_ROW_LEN;
            per_worker.push(WorkerStats {
                completions: u64::from_le_bytes(payload[base..base + 8].try_into().unwrap()),
                bytes_tx: u64::from_le_bytes(payload[base + 8..base + 16].try_into().unwrap()),
            });
        }
        Ok(StatsSnapshot {
            requests_rx: word(0),
            bytes_rx: word(1),
            queue_high_water: word(2),
            ring_high_water: word(3),
            replenish_batches: word(4),
            trace_dropped: word(5),
            redirects: word(6),
            per_worker,
        })
    }
}

/// The `METRICS` verb's reply: every sealed window the client has not
/// seen yet (delta encoding — the request carries the first index the
/// client wants, the reply carries `next_index` to pass next time).
///
/// Each window travels as one row of eight little-endian `u64`s —
/// `index, arrivals, completions, samples, busy_sum, queued_sum,
/// queued_max, inflight_sum` — all deltas or sums *within* the window,
/// never cumulative, so a client can drop, resume, or reconnect and
/// still assemble a correct timeline. A decoded window is a
/// [`SeriesWindow`] with no latency histogram and no per-core or
/// per-group vectors (the server samples neither).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReply {
    /// Window length in picoseconds (0 when the server runs no sampler).
    pub interval_ps: u64,
    /// Server worker count (the denominator for occupancy).
    pub workers: u32,
    /// First index the client has *not* received: pass as the next
    /// request's `since`. Equals the currently-open window's index.
    pub next_index: u64,
    /// Sealed windows with `index >= since`, oldest first.
    pub windows: Vec<SeriesWindow>,
}

const METRICS_REQUEST_LEN: usize = 1 + 8;
const METRICS_HEADER_LEN: usize = 1 + 8 + 8 + 4 + 4;
const METRICS_ROW_LEN: usize = 8 * 8;

/// Encodes a `METRICS` query for windows with `index >= since` as a
/// complete frame.
pub fn encode_metrics_request(since: u64) -> [u8; 4 + METRICS_REQUEST_LEN] {
    let mut buf = [0u8; 4 + METRICS_REQUEST_LEN];
    buf[..4].copy_from_slice(&(METRICS_REQUEST_LEN as u32).to_le_bytes());
    buf[4] = KIND_METRICS_REQUEST;
    buf[5..13].copy_from_slice(&since.to_le_bytes());
    buf
}

/// Decodes the `since` watermark from a `METRICS` request payload.
pub fn decode_metrics_request(payload: &[u8]) -> io::Result<u64> {
    if payload.len() != METRICS_REQUEST_LEN || payload[0] != KIND_METRICS_REQUEST {
        return Err(malformed("metrics request", payload));
    }
    Ok(u64::from_le_bytes(payload[1..9].try_into().unwrap()))
}

impl MetricsReply {
    /// Encodes the reply as a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = METRICS_HEADER_LEN + self.windows.len() * METRICS_ROW_LEN;
        let mut buf = Vec::with_capacity(4 + payload_len);
        buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
        buf.push(KIND_METRICS_RESPONSE);
        buf.extend_from_slice(&self.interval_ps.to_le_bytes());
        buf.extend_from_slice(&self.next_index.to_le_bytes());
        buf.extend_from_slice(&self.workers.to_le_bytes());
        buf.extend_from_slice(&(self.windows.len() as u32).to_le_bytes());
        for w in &self.windows {
            for word in [
                w.index,
                w.arrivals,
                w.completions,
                w.samples,
                w.busy_sum,
                w.queued_sum,
                w.queued_max,
                w.inflight_sum,
            ] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        buf
    }

    /// Decodes a reply from a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<MetricsReply> {
        if payload.len() < METRICS_HEADER_LEN || payload[0] != KIND_METRICS_RESPONSE {
            return Err(malformed("metrics response", payload));
        }
        let interval_ps = u64::from_le_bytes(payload[1..9].try_into().unwrap());
        let next_index = u64::from_le_bytes(payload[9..17].try_into().unwrap());
        let workers = u32::from_le_bytes(payload[17..21].try_into().unwrap());
        let count = u32::from_le_bytes(payload[21..25].try_into().unwrap()) as usize;
        if payload.len() != METRICS_HEADER_LEN + count * METRICS_ROW_LEN {
            return Err(malformed("metrics response", payload));
        }
        let mut windows = Vec::with_capacity(count);
        for i in 0..count {
            let base = METRICS_HEADER_LEN + i * METRICS_ROW_LEN;
            let word = |j: usize| {
                u64::from_le_bytes(payload[base + j * 8..base + (j + 1) * 8].try_into().unwrap())
            };
            windows.push(SeriesWindow {
                arrivals: word(1),
                completions: word(2),
                samples: word(3),
                busy_sum: word(4),
                queued_sum: word(5),
                queued_max: word(6),
                inflight_sum: word(7),
                ..SeriesWindow::empty(word(0), 0, 0)
            });
        }
        Ok(MetricsReply {
            interval_ps,
            workers,
            next_index,
            windows,
        })
    }
}

fn malformed(what: &str, payload: &[u8]) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed {what} frame ({} bytes)", payload.len()),
    )
}

/// Reads one frame payload from `r`. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; EOF mid-frame is an error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_buf)? {
        return Ok(None);
    }
    let mut payload = vec![0u8; payload_len(len_buf)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Decodes a length prefix, rejecting empty and oversized frames before
/// anything is allocated for them.
fn payload_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    Ok(len as usize)
}

/// A connection's reusable receive buffer: [`read_frame`] for the
/// server's hot path. One `read` usually brings a whole frame (or
/// several pipelined ones) and payloads are borrowed from the buffer,
/// so a request costs one syscall and no allocation.
pub struct FrameReader {
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader {
            buf: vec![0; 1024],
            start: 0,
            end: 0,
        }
    }
}

impl FrameReader {
    /// The next frame's payload (never empty), valid until the next
    /// call. `Ok(None)` on a clean EOF at a frame boundary; EOF
    /// mid-frame is an error.
    pub fn next_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<&[u8]>> {
        loop {
            let have = self.end - self.start;
            if have >= 4 {
                let prefix = &self.buf[self.start..self.start + 4];
                let frame = 4 + payload_len(prefix.try_into().expect("four bytes"))?;
                if have >= frame {
                    let payload = self.start + 4..self.start + frame;
                    self.start += frame;
                    return Ok(Some(&self.buf[payload]));
                }
                // Grows only to a length the check above has bounded.
                if self.buf.len() < frame {
                    self.buf.resize(frame, 0);
                }
            }
            // Make room by moving the partial frame to the front.
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, have);
            match r.read(&mut self.buf[have..]) {
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => return Err(eof_mid_frame()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn eof_mid_frame() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-frame")
}

/// Like `read_exact`, but a clean EOF before the first byte returns
/// `Ok(false)` instead of an error.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(eof_mid_frame()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Writes a complete pre-encoded frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_a_stream() {
        let req = Request {
            req_id: 0xDEAD_BEEF_0123,
            sent_at_ns: 42_000_000,
            service_ns: 600,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let payload = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(Request::decode(&payload).unwrap(), req);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn response_roundtrips() {
        let resp = Response {
            req_id: 7,
            sent_at_ns: 1,
            service_ns: 2,
            worker: 3,
        };
        let frame = resp.encode();
        let payload = &frame[4..];
        assert_eq!(Response::decode(payload).unwrap(), resp);
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut wire = Vec::new();
        for id in 0..5u64 {
            let req = Request {
                req_id: id,
                sent_at_ns: id * 10,
                service_ns: 100,
            };
            write_frame(&mut wire, &req.encode()).unwrap();
        }
        let mut cursor = io::Cursor::new(wire);
        for id in 0..5u64 {
            let payload = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(Request::decode(&payload).unwrap().req_id, id);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let req = Request {
            req_id: 1,
            sent_at_ns: 2,
            service_ns: 3,
        };
        let frame = req.encode();
        let truncated = &frame[..frame.len() - 3];
        let mut cursor = io::Cursor::new(truncated.to_vec());
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_length_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut cursor = io::Cursor::new(wire);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn stats_snapshot_roundtrips() {
        let snap = StatsSnapshot {
            requests_rx: 1_000,
            bytes_rx: 29_000,
            queue_high_water: 17,
            ring_high_water: 4,
            replenish_batches: 950,
            trace_dropped: 12,
            redirects: 31,
            per_worker: vec![
                WorkerStats {
                    completions: 600,
                    bytes_tx: 19_800,
                },
                WorkerStats {
                    completions: 400,
                    bytes_tx: 13_200,
                },
            ],
        };
        let frame = snap.encode();
        let mut cursor = io::Cursor::new(frame);
        let payload = read_frame(&mut cursor).unwrap().expect("one frame");
        let back = StatsSnapshot::decode(&payload).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.completions(), 1_000);
        assert_eq!(back.bytes_tx(), 33_000);
        assert_eq!(back.trace_dropped, 12);
        assert_eq!(back.redirects, 31);
    }

    #[test]
    fn redirect_roundtrips_and_is_not_a_response() {
        let redirect = Redirect { req_id: 0xBEEF };
        let frame = redirect.encode();
        let mut cursor = io::Cursor::new(frame.to_vec());
        let payload = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(Redirect::decode(&payload).unwrap(), redirect);
        assert!(Response::decode(&payload).is_err());
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn drain_verbs_roundtrip() {
        for action in [DrainAction::Query, DrainAction::Begin, DrainAction::Resume] {
            let frame = encode_drain_request(action);
            let mut cursor = io::Cursor::new(frame.to_vec());
            let payload = read_frame(&mut cursor).unwrap().expect("one frame");
            assert_eq!(decode_drain_request(&payload).unwrap(), action);
        }
        let reply = DrainReply {
            draining: true,
            inflight: 17,
        };
        let frame = reply.encode();
        assert_eq!(DrainReply::decode(&frame[4..]).unwrap(), reply);
        // Unknown action codes must be rejected, not misread.
        let mut bad = encode_drain_request(DrainAction::Query);
        bad[5] = 9;
        assert!(decode_drain_request(&bad[4..]).is_err());
    }

    #[test]
    fn shutdown_verbs_are_one_byte_frames() {
        let req = encode_shutdown_request();
        let mut cursor = io::Cursor::new(req.to_vec());
        let payload = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(payload, vec![KIND_SHUTDOWN_REQUEST]);
        let ack = encode_shutdown_response();
        assert_eq!(ack[4], KIND_SHUTDOWN_RESPONSE);
        assert!(Request::decode(&payload).is_err());
    }

    /// A fixed two-window reply, 250 ms windows, 4 workers.
    fn two_window_reply() -> MetricsReply {
        let window = |row: [u64; 8]| SeriesWindow {
            arrivals: row[1],
            completions: row[2],
            samples: row[3],
            busy_sum: row[4],
            queued_sum: row[5],
            queued_max: row[6],
            inflight_sum: row[7],
            ..SeriesWindow::empty(row[0], 0, 0)
        };
        MetricsReply {
            interval_ps: 250_000_000_000,
            workers: 4,
            next_index: 9,
            windows: vec![
                window([7, 120, 118, 8, 21, 5, 3, 26]),
                window([8, 130, 131, 8, 24, 2, 1, 26]),
            ],
        }
    }

    #[test]
    fn metrics_reply_roundtrips() {
        let reply = two_window_reply();
        let frame = reply.encode();
        let mut cursor = io::Cursor::new(frame);
        let payload = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(MetricsReply::decode(&payload).unwrap(), reply);
    }

    #[test]
    fn metrics_reply_bytes_are_pinned() {
        // Length prefix, kind, interval_ps, next_index, workers, window
        // count, then one eight-word row per window. Changing any byte
        // breaks every `valetd`/`harness watch` pair across versions.
        let golden = "99000000 05 004429353a000000 0900000000000000 04000000 02000000 \
            0700000000000000 7800000000000000 7600000000000000 0800000000000000 \
            1500000000000000 0500000000000000 0300000000000000 1a00000000000000 \
            0800000000000000 8200000000000000 8300000000000000 0800000000000000 \
            1800000000000000 0200000000000000 0100000000000000 1a00000000000000";
        let hex: String = two_window_reply()
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, golden.split_whitespace().collect::<String>());
    }

    #[test]
    fn metrics_request_carries_its_watermark() {
        let frame = encode_metrics_request(42);
        let mut cursor = io::Cursor::new(frame.to_vec());
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(payload[0], KIND_METRICS_REQUEST);
        assert_eq!(decode_metrics_request(&payload).unwrap(), 42);
        // Neither a request nor a stats decoder may accept it.
        assert!(Request::decode(&payload).is_err());
        assert!(StatsSnapshot::decode(&payload).is_err());
    }

    #[test]
    fn truncated_metrics_payload_rejected() {
        let reply = MetricsReply {
            interval_ps: 1,
            workers: 2,
            next_index: 3,
            windows: vec![SeriesWindow::empty(0, 0, 0); 2],
        };
        let frame = reply.encode();
        // Claim 2 windows but carry 1: the length check must fire.
        assert!(MetricsReply::decode(&frame[4..frame.len() - 64]).is_err());
    }

    #[test]
    fn stats_request_is_a_one_byte_verb() {
        let frame = encode_stats_request();
        let mut cursor = io::Cursor::new(frame.to_vec());
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(payload, vec![KIND_STATS_REQUEST]);
        // A request decoder must not mistake it for a request frame.
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn truncated_stats_payload_rejected() {
        let snap = StatsSnapshot {
            per_worker: vec![WorkerStats::default(); 3],
            ..StatsSnapshot::default()
        };
        let frame = snap.encode();
        // Claim 3 workers but carry 2: length check must fire.
        assert!(StatsSnapshot::decode(&frame[4..frame.len() - 16]).is_err());
    }

    #[test]
    fn wrong_kind_rejected() {
        let resp = Response {
            req_id: 1,
            sent_at_ns: 2,
            service_ns: 3,
            worker: 0,
        };
        let frame = resp.encode();
        assert!(Request::decode(&frame[4..]).is_err());
    }

    /// Hands out at most `chunk` bytes per `read`, like a slow socket.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.bytes.len().min(self.chunk).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_agrees_with_read_frame_however_reads_split() {
        // Small frames, one larger than the initial buffer, small again.
        let mut wire = Vec::new();
        for id in 0..40u64 {
            let req = Request {
                req_id: id,
                sent_at_ns: id,
                service_ns: 0,
            };
            wire.extend_from_slice(&req.encode());
        }
        let snap = StatsSnapshot {
            per_worker: vec![WorkerStats::default(); 200],
            ..StatsSnapshot::default()
        };
        wire.extend_from_slice(&snap.encode());
        wire.extend_from_slice(&encode_stats_request());
        let mut expected = Vec::new();
        let mut cursor = io::Cursor::new(&wire[..]);
        while let Some(payload) = read_frame(&mut cursor).unwrap() {
            expected.push(payload);
        }
        assert_eq!(expected.len(), 42);
        for chunk in [1, 3, 29, 33, 100, usize::MAX] {
            let mut source = Trickle {
                bytes: &wire,
                chunk,
            };
            let mut reader = FrameReader::default();
            let mut got = Vec::new();
            while let Some(payload) = reader.next_frame(&mut source).unwrap() {
                got.push(payload.to_vec());
            }
            assert_eq!(got, expected, "chunk {chunk}");
        }
    }

    #[test]
    fn frame_reader_rejects_what_read_frame_rejects() {
        let frame = Request {
            req_id: 1,
            sent_at_ns: 2,
            service_ns: 3,
        }
        .encode();
        let mut truncated = io::Cursor::new(&frame[..frame.len() - 3]);
        let mut reader = FrameReader::default();
        let err = reader.next_frame(&mut truncated).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        for bad in [0, MAX_FRAME_BYTES + 1, u32::MAX] {
            let mut wire = bad.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 16]);
            let mut reader = FrameReader::default();
            let err = reader.next_frame(&mut io::Cursor::new(wire)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "length {bad}");
            assert_eq!(reader.buf.len(), 1024, "nothing allocated for it");
        }
    }
}
