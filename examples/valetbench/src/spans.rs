//! Benchmark-side spans around every call into a layer.
//!
//! A span is a name, a start, an end, the span that caused it, and the
//! operation (sim point or request) it belongs to. Spans stay in a
//! pre-sized buffer while the run goes on and are written once at exit;
//! a layer's self time is its spans' duration minus what their child
//! spans cover. Only the traced run records any.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The id meaning "no parent" and "not recorded".
pub const NONE: u32 = u32::MAX;

/// Spans kept per log; later ones are counted as dropped, so a traced
/// run's memory is bounded whatever the request rate.
const CAPACITY: usize = 400_000;

pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// The sim point or request this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are `base + index`, so logs of
/// different threads merge without renumbering.
pub struct SpanLog {
    epoch: Instant,
    base: u32,
    /// 0 for a log that is off.
    capacity: usize,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanLog {
    /// A log for thread `thread` (0-based) on the shared `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        SpanLog {
            epoch,
            base: thread * CAPACITY as u32,
            capacity: CAPACITY,
            spans: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    /// The untraced run's log: records nothing and never reads the
    /// clock, so the measured path is the same code with one branch.
    pub fn off() -> Self {
        SpanLog {
            epoch: Instant::now(),
            base: 0,
            capacity: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pass the returned id to [`SpanLog::end`] and as the
    /// `parent` of the spans it causes.
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        if self.spans.len() >= self.capacity {
            self.dropped += (self.capacity > 0) as u64;
            return NONE;
        }
        let id = self.base + self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[(id - self.base) as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let result = f();
        self.end(id);
        result
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    /// The shared time base, for the logs of other threads; `None` when
    /// this log is off.
    pub fn epoch(&self) -> Option<Instant> {
        (self.capacity > 0).then_some(self.epoch)
    }
}

/// Per-name totals: `(count, total ns, self ns)`, self = duration minus
/// the direct children's durations.
pub fn self_times(log: &SpanLog) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &log.spans {
        if s.parent != NONE {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in &log.spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += own;
    }
    by_name
}

pub fn render_self_times(log: &SpanLog) -> String {
    let mut out = format!(
        "  {:<28} {:>9} {:>12} {:>12}\n",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in self_times(log) {
        out.push_str(&format!(
            "  {name:<28} {count:>9} {:>12.2} {:>12.2}\n",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    if log.dropped > 0 {
        out.push_str(&format!(
            "  ({} spans past the buffer not recorded)\n",
            log.dropped
        ));
    }
    out
}

/// Writes the log as JSON lines, creating the directory.
pub fn write_jsonl(log: &SpanLog, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(fs::File::create(path)?);
    for s in &log.spans {
        let parent = if s.parent == NONE {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new(Instant::now(), 0);
        let outer = log.begin("outer", NONE, 1);
        let inner = log.begin("inner", outer, 1);
        log.end(inner);
        log.end(outer);
        log.spans[0].start_ns = 0;
        log.spans[0].end_ns = 100;
        log.spans[1].start_ns = 10;
        log.spans[1].end_ns = 40;
        let t = self_times(&log);
        assert_eq!(t["outer"], (1, 100, 70));
        assert_eq!(t["inner"], (1, 30, 30));
    }
}
