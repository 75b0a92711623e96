//! The versioned, append-only trace store: the crate's one sealed JSON
//! Lines layout (manifest, body, seal) with one line per hop event,
//!
//! ```text
//! {"version":1,"source":"sim","label":"live_smoke","clock":"sim-ps","jobs":3}
//! {"req":0,"hop":"arrival","t_ps":1200,"src":0,"core":0}
//! ...
//! {"events":42,"dropped":0,"digest":"9f0a..."}
//! ```
//!
//! sealed with the event count, the producer's drops, and the digest over
//! the canonical binary encoding of every event in order
//! ([`crate::event::digest_events`]).

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::event::{Hop, TraceEvent};
use crate::sealed::{self, Seal, SealedWriter};

/// Store format version, bumped on any layout change.
pub const STORE_VERSION: u32 = 1;

/// Timebase label for simulator stores (picoseconds of simulated time).
pub const CLOCK_SIM_PS: &str = "sim-ps";
/// Timebase label for live stores (picoseconds since a process-local
/// monotonic epoch).
pub const CLOCK_MONO_PS: &str = "mono-ps";

/// Descriptive metadata recorded in the store manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Producer: `"sim"` or `"live"`.
    pub source: String,
    /// What was captured (scenario/matrix label).
    pub label: String,
    /// Timebase: [`CLOCK_SIM_PS`] or [`CLOCK_MONO_PS`].
    pub clock: String,
    /// Number of jobs whose requests share this store (request ids are
    /// namespaced `job_index << 40 | seq`).
    pub jobs: u64,
}

impl TraceMeta {
    /// Manifest for a simulator capture.
    pub fn sim(label: &str, jobs: u64) -> TraceMeta {
        TraceMeta {
            source: "sim".to_owned(),
            label: label.to_owned(),
            clock: CLOCK_SIM_PS.to_owned(),
            jobs,
        }
    }

    /// Manifest for a live capture.
    pub fn live(label: &str, jobs: u64) -> TraceMeta {
        TraceMeta {
            source: "live".to_owned(),
            label: label.to_owned(),
            clock: CLOCK_MONO_PS.to_owned(),
            jobs,
        }
    }
}

#[derive(Serialize, Deserialize)]
struct EventLine {
    req: u64,
    hop: String,
    t_ps: u64,
    src: u16,
    core: u16,
}

#[derive(Serialize, Deserialize)]
struct TraceSeal {
    events: u64,
    dropped: u64,
    digest: String,
}

impl Seal for TraceSeal {
    const ITEMS: &'static str = "events";

    fn count(&self) -> u64 {
        self.events
    }

    fn digest(&self) -> &str {
        &self.digest
    }
}

/// Streaming store writer: manifest on creation, one line per
/// [`append`](TraceWriter::append), seal on
/// [`finish`](TraceWriter::finish).
pub struct TraceWriter {
    out: SealedWriter,
    digest: metrics::Digest64,
    events: u64,
    dropped: u64,
}

impl TraceWriter {
    /// Creates the store file and writes its manifest.
    pub fn create(path: &Path, meta: &TraceMeta) -> std::io::Result<TraceWriter> {
        Ok(TraceWriter {
            out: SealedWriter::create(path, STORE_VERSION, meta)?,
            digest: metrics::Digest64::new(),
            events: 0,
            dropped: 0,
        })
    }

    /// Appends one event, folding its canonical encoding into the
    /// running digest.
    pub fn append(&mut self, event: &TraceEvent) -> std::io::Result<()> {
        self.digest.write_bytes(&event.encode());
        self.events += 1;
        self.out.line(&EventLine {
            req: event.req,
            hop: event.hop.label().to_owned(),
            t_ps: event.t_ps,
            src: event.src,
            core: event.core,
        })
    }

    /// Records events the producer had to drop (full ring).
    pub fn note_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Events appended so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Writes the seal and flushes. Returns the sealed digest (hex).
    pub fn finish(self) -> std::io::Result<String> {
        let digest = self.digest.hex();
        self.out.seal(&TraceSeal {
            events: self.events,
            dropped: self.dropped,
            digest: digest.clone(),
        })?;
        Ok(digest)
    }
}

/// A fully loaded and verified trace store.
#[derive(Debug, Clone)]
pub struct TraceStore {
    /// The manifest metadata.
    pub meta: TraceMeta,
    /// Every event, in append (capture) order.
    pub events: Vec<TraceEvent>,
    /// Events the producer dropped (full ring) — gaps, not corruption.
    pub dropped: u64,
    /// The sealed digest (verified against the events on load).
    pub digest: String,
}

impl TraceStore {
    /// Loads and verifies a store: manifest version, seal presence,
    /// event count, and digest must all check out.
    pub fn load(path: &Path) -> Result<TraceStore, String> {
        let (meta, events, seal) = sealed::load(
            path,
            "store",
            STORE_VERSION,
            |events: &mut Vec<TraceEvent>, line| {
                let Ok(ev) = EventLine::deserialize(line) else {
                    return Ok(false);
                };
                let hop =
                    Hop::from_label(&ev.hop).ok_or_else(|| format!("unknown hop `{}`", ev.hop))?;
                events.push(TraceEvent {
                    req: ev.req,
                    hop,
                    t_ps: ev.t_ps,
                    src: ev.src,
                    core: ev.core,
                });
                Ok(true)
            },
            |events| {
                let digest = crate::event::digest_events(events).hex();
                (events.len() as u64, digest)
            },
        )?;
        let TraceSeal {
            dropped, digest, ..
        } = seal;
        Ok(TraceStore {
            meta,
            events,
            dropped,
            digest,
        })
    }
}

/// Writes a complete store in one call (the simulator capture path,
/// where all events are already in memory in deterministic order).
/// Returns the sealed digest.
pub fn write_store(
    path: &Path,
    meta: &TraceMeta,
    events: &[TraceEvent],
    dropped: u64,
) -> std::io::Result<String> {
    let mut writer = TraceWriter::create(path, meta)?;
    for event in events {
        writer.append(event)?;
    }
    writer.note_dropped(dropped);
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for req in 0..3u64 {
            for (i, hop) in [Hop::Arrival, Hop::Reassembled, Hop::Dispatched, Hop::Started, Hop::Completed]
                .into_iter()
                .enumerate()
            {
                out.push(TraceEvent {
                    req,
                    hop,
                    t_ps: req * 10_000 + i as u64 * 1_000,
                    src: req as u16,
                    core: 2,
                });
            }
        }
        out
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("telemetry-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrips_and_verifies() {
        let path = temp_path("roundtrip.trace");
        let events = sample_events();
        let meta = TraceMeta::sim("unit", 1);
        let digest = write_store(&path, &meta, &events, 2).unwrap();
        let store = TraceStore::load(&path).unwrap();
        assert_eq!(store.meta, meta);
        assert_eq!(store.events, events);
        assert_eq!(store.dropped, 2);
        assert_eq!(store.digest, digest);
        assert_eq!(digest, crate::event::digest_events(&events).hex());
    }

    #[test]
    fn detects_tampering() {
        let path = temp_path("tampered.trace");
        write_store(&path, &TraceMeta::live("unit", 1), &sample_events(), 0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("\"t_ps\":1000", "\"t_ps\":1001");
        assert_ne!(text, tampered, "test must actually change a line");
        std::fs::write(&path, tampered).unwrap();
        let err = TraceStore::load(&path).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn missing_seal_is_an_interrupted_capture() {
        let path = temp_path("unsealed.trace");
        let text = {
            let full = temp_path("unsealed-src.trace");
            write_store(&full, &TraceMeta::sim("unit", 1), &sample_events(), 0).unwrap();
            std::fs::read_to_string(&full).unwrap()
        };
        let without_seal: String = {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop();
            lines.join("\n")
        };
        std::fs::write(&path, without_seal).unwrap();
        let err = TraceStore::load(&path).unwrap_err();
        assert!(err.contains("missing seal"), "{err}");
    }

    #[test]
    fn rejects_future_versions() {
        let path = temp_path("future.trace");
        std::fs::write(
            &path,
            "{\"version\":99,\"source\":\"sim\",\"label\":\"x\",\"clock\":\"sim-ps\",\"jobs\":1}\n",
        )
        .unwrap();
        let err = TraceStore::load(&path).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }
}
