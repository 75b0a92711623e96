//! The one sealed JSON Lines layout behind both stores — the trace store
//! ([`crate::store`]) and the series store ([`crate::timeseries`]):
//!
//! ```text
//! {"version":1,"source":"sim","label":"fig8","clock":"sim-ps",…}
//! …body lines…
//! {"events":42,…,"digest":"9f0a…"}
//! ```
//!
//! The first line is the **manifest** (format version, then who produced
//! the store and on what clock), the last line is the **seal** (how many
//! body items the store holds and a [`metrics::Digest64`] over their
//! canonical encoding, in order). A store without its seal is an
//! interrupted capture; a store whose recomputed count or digest
//! disagrees with its seal is corrupt. [`load`] checks both.
//!
//! Writers only ever append — there is no in-place mutation — so a
//! capture that dies mid-run leaves a prefix that is still parseable up
//! to its last complete line.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use serde::{Deserialize, Serialize, Value};

/// A store's seal line: the item count and digest the loader verifies.
pub(crate) trait Seal: Serialize + Deserialize {
    /// What the count counts (`"events"`, `"windows"`), for errors.
    const ITEMS: &'static str;
    /// Body items the seal covers.
    fn count(&self) -> u64;
    /// The sealed digest (hex).
    fn digest(&self) -> &str;
}

/// Streaming writer: manifest on creation, one body line per
/// [`line`](SealedWriter::line), seal on [`seal`](SealedWriter::seal).
pub(crate) struct SealedWriter {
    out: BufWriter<File>,
}

impl SealedWriter {
    /// Creates `path` and writes the manifest: `version`, then the
    /// fields of `meta` in declaration order.
    pub(crate) fn create(path: &Path, version: u32, meta: &impl Serialize) -> io::Result<Self> {
        let mut manifest = vec![("version".to_owned(), version.serialize())];
        if let Value::Object(fields) = meta.serialize() {
            manifest.extend(fields);
        }
        let mut writer = SealedWriter {
            out: BufWriter::new(File::create(path)?),
        };
        writer.line(&Value::Object(manifest))?;
        Ok(writer)
    }

    /// Appends one body line.
    pub(crate) fn line(&mut self, line: &impl Serialize) -> io::Result<()> {
        let text = serde_json::to_string(line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(self.out, "{text}")
    }

    /// Writes the seal and flushes.
    pub(crate) fn seal(mut self, seal: &impl Seal) -> io::Result<()> {
        self.line(seal)?;
        self.out.flush()
    }
}

/// Loads and verifies the `what` store at `path` (`what` names it in
/// errors): the manifest must carry `version`, every line between
/// manifest and seal must be one `body` folds into the body (it returns
/// `Ok(false)` for a line that is not a body line), the seal must be
/// present and last, and its count and digest must equal what `recount`
/// computes over the folded body.
pub(crate) fn load<M, B, S>(
    path: &Path,
    what: &str,
    version: u32,
    mut body: impl FnMut(&mut B, &Value) -> Result<bool, String>,
    recount: impl FnOnce(&B) -> (u64, String),
) -> Result<(M, B, S), String>
where
    M: Deserialize,
    B: Default,
    S: Seal,
{
    let at = |msg: String| format!("{}: {msg}", path.display());
    let file = File::open(path).map_err(|e| at(e.to_string()))?;
    let mut lines = BufReader::new(file).lines();

    let first = lines
        .next()
        .ok_or_else(|| at(format!("empty {what}")))?
        .map_err(|e| e.to_string())?;
    let manifest: Value =
        serde_json::from_str(&first).map_err(|e| at(format!("bad manifest: {e}")))?;
    let found =
        u32::deserialize(&manifest["version"]).map_err(|e| at(format!("bad manifest: {e}")))?;
    if found != version {
        return Err(at(format!(
            "{what} version {found} (this build reads {version})"
        )));
    }
    let meta = M::deserialize(&manifest).map_err(|e| at(format!("bad manifest: {e}")))?;

    let mut items = B::default();
    let mut seal: Option<S> = None;
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        if seal.is_some() {
            return Err(at("data after seal".to_owned()));
        }
        let value: Value =
            serde_json::from_str(&line).map_err(|_| at(format!("unparseable line: {line}")))?;
        if body(&mut items, &value).map_err(at)? {
            continue;
        }
        seal = Some(S::deserialize(&value).map_err(|_| at(format!("unparseable line: {line}")))?);
    }
    let seal = seal.ok_or_else(|| at("missing seal (interrupted capture?)".to_owned()))?;

    let (count, digest) = recount(&items);
    if seal.count() != count {
        return Err(at(format!(
            "seal says {} {}, store holds {count}",
            seal.count(),
            S::ITEMS
        )));
    }
    if seal.digest() != digest {
        return Err(at(format!(
            "digest mismatch (seal {}, recomputed {digest}) — store is corrupt",
            seal.digest()
        )));
    }
    Ok((meta, items, seal))
}
