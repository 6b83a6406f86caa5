//! Durable solves: versioned, checksummed snapshots of the full search
//! state, assembled periodically by the search and written by one writer
//! thread, so a killed or deadline-expired run resumes from its last good
//! frame.
//!
//! # Frame format
//!
//! A frame file is `magic (4) | version (u32) | payload length (u64) |
//! payload | FNV-1a-64 checksum of the payload`. All integers are
//! little-endian; floats are serialized as their IEEE-754 bit patterns so a
//! round trip is exact. The payload captures everything the search needs
//! beyond the (re-encoded) problem itself: a problem **fingerprint** that
//! rejects resuming against the wrong model, the incumbent, the base
//! variable bounds after root reduced-cost fixing, every accepted pricing
//! batch (columns and side rows, replayed in round order so row indices
//! line up), the append-only cut pool, the open node list (bound + depth +
//! branching changes; warm bases are dropped — resumed nodes cold-solve
//! once and re-warm from there), and an opaque [`ColumnSource`] payload so
//! the modeling layer can restore its column bookkeeping.
//!
//! # Torn-write tolerance
//!
//! The writer streams to `<path>.tmp`, rotates the previous good frame to
//! `<path>.prev`, then renames the temp file into place. A crash (or the
//! injected [`FaultInjection::corrupt_checkpoint`] fault) can therefore
//! leave `<path>` truncated, but never destroy the previous frame: the
//! loader validates the checksum and falls back to `<path>.prev`. Resuming
//! from *any* valid frame is sound — a stale frame only re-does work, it
//! cannot change the final incumbent or proof status.
//!
//! [`ColumnSource`]: crate::pricing::ColumnSource
//! [`FaultInjection::corrupt_checkpoint`]: crate::FaultInjection::corrupt_checkpoint

use crate::config::CheckpointConfig;
use crate::cuts::{Cut, CutSource};
use crate::error::{relock, FaultInjection};
use crate::pricing::{NewColumn, NewRow};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Current frame format version; bumped on any layout change.
pub const FRAME_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"MCKP";

/// FNV-1a 64-bit hash — the frame checksum and the problem fingerprint.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Structural fingerprint of a [`crate::Problem`]: dimensions, variable
/// types, and the row coefficient pattern — deliberately **excluding** the
/// objective and all variable/row bounds. Two problems with equal
/// fingerprints index the same variables the same way, so a solution
/// vector of one is at least *well-formed* for the other (feasibility is
/// still re-checked separately). Incremental re-solve sessions use this to
/// gate warm-state reuse: objective edits and bound tightenings keep the
/// fingerprint, anything that adds, drops, or reorders variables or rows
/// changes it and forces a cold path.
pub fn structure_fingerprint(p: &crate::problem::Problem) -> u64 {
    let mut w = ByteWriter::new();
    w.put_usize(p.num_vars());
    w.put_usize(p.num_rows());
    for j in 0..p.num_vars() {
        w.put_u8(p.var_type(crate::problem::VarId(j)) as u8);
    }
    for r in p.row_ids() {
        let coefs = p.row_coefs(r);
        w.put_usize(coefs.len());
        for &(v, c) in coefs {
            w.put_usize(v.index());
            w.put_f64(c);
        }
    }
    fnv1a64(&w.into_bytes())
}

/// Why a frame could not be loaded or applied.
#[derive(Debug)]
pub enum FrameError {
    /// Filesystem error reading or writing the frame.
    Io(std::io::Error),
    /// The file failed structural validation (magic, length, checksum, or
    /// payload decoding).
    Corrupt(&'static str),
    /// The frame was written by an incompatible format version.
    Version(u32),
    /// The frame belongs to a different problem (fingerprint or solver
    /// configuration mismatch).
    Mismatch(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "checkpoint I/O error: {}", e),
            FrameError::Corrupt(what) => write!(f, "corrupt checkpoint frame: {}", what),
            FrameError::Version(v) => {
                write!(f, "unsupported checkpoint frame version {} (expected {})", v, FRAME_VERSION)
            }
            FrameError::Mismatch(what) => {
                write!(f, "checkpoint frame does not match this problem: {}", what)
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Byte-level serialization helpers (public: the modeling layer reuses them
// for its opaque `ColumnSource` payload).
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink for frame payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over a frame payload; every accessor validates remaining length.
#[derive(Debug)]
pub struct ByteReader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { b: bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or(FrameError::Corrupt("truncated payload"))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a `u64` as `usize`.
    pub fn usize(&mut self) -> Result<usize, FrameError> {
        usize::try_from(self.u64()?).map_err(|_| FrameError::Corrupt("oversized count"))
    }

    /// Reads a length prefix for a collection whose items need at least
    /// `min_item_bytes` each, guarding allocation against corrupt lengths.
    pub fn len(&mut self, min_item_bytes: usize) -> Result<usize, FrameError> {
        let n = self.usize()?;
        if n.saturating_mul(min_item_bytes.max(1)) > self.b.len() - self.pos {
            return Err(FrameError::Corrupt("length prefix exceeds payload"));
        }
        Ok(n)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte.
    pub fn bool(&mut self) -> Result<bool, FrameError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, FrameError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| FrameError::Corrupt("invalid UTF-8"))
    }

    /// Whether the whole payload was consumed.
    pub fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

// ---------------------------------------------------------------------------
// Frame contents
// ---------------------------------------------------------------------------

/// One accepted pricing round: columns plus their side rows, replayed in
/// round order on resume so row indices inside later batches line up.
#[derive(Debug, Clone, Default)]
pub struct FrameBatch {
    /// Columns accepted in this round.
    pub cols: Vec<NewColumn>,
    /// Side rows accepted in this round.
    pub rows: Vec<NewRow>,
}

/// One open branch-and-bound node: its LP bound, depth, and the bound
/// changes along its path from the root. The warm basis is intentionally
/// dropped — a resumed node cold-solves once and re-warms its subtree.
#[derive(Debug, Clone)]
pub struct FrameNode {
    /// Parent LP bound (internal minimize sense).
    pub bound: f64,
    /// Depth in the tree.
    pub depth: usize,
    /// `(var, new lower, new upper)` branching/fixing changes from the root.
    pub changes: Vec<(usize, f64, f64)>,
}

/// A complete, restorable snapshot of one branch-and-bound search.
#[derive(Debug, Clone, Default)]
pub struct SearchFrame {
    /// Hash of the base LP (dimensions, objective, row bounds, integrality)
    /// before any pricing or cut appends; resume rejects a mismatch.
    pub fingerprint: u64,
    /// Nodes processed before the snapshot (carried into resumed stats).
    pub nodes_done: usize,
    /// Root LP bound after cut rounds (internal sense; feeds `root_gap`).
    pub root_bound: f64,
    /// Best integer solution so far: internal objective and the full
    /// variable vector (base plus priced columns).
    pub incumbent: Option<(f64, Vec<f64>)>,
    /// Base variable lower bounds after root reduced-cost fixing.
    pub base_lb: Vec<f64>,
    /// Base variable upper bounds after root reduced-cost fixing.
    pub base_ub: Vec<f64>,
    /// Accepted pricing rounds, in order.
    pub batches: Vec<FrameBatch>,
    /// The applied cuts, in application order. Resume bakes all of them
    /// into the base LP.
    pub cuts: Vec<Cut>,
    /// How many of `cuts` were applied at the root: all of them in the
    /// frames this build writes. Frames from builds with node-level
    /// separation carry globally valid cover/clique cuts past this prefix.
    pub root_cuts: usize,
    /// Every open node (heap plus in-flight) at the snapshot.
    pub open_nodes: Vec<FrameNode>,
    /// Opaque [`crate::pricing::ColumnSource`] payload.
    pub user_data: Vec<u8>,
}

fn put_coefs(w: &mut ByteWriter, coefs: &[(usize, f64)]) {
    w.put_usize(coefs.len());
    for &(j, v) in coefs {
        w.put_usize(j);
        w.put_f64(v);
    }
}

fn get_coefs(r: &mut ByteReader<'_>) -> Result<Vec<(usize, f64)>, FrameError> {
    let n = r.len(16)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let j = r.usize()?;
        let c = r.f64()?;
        v.push((j, c));
    }
    Ok(v)
}

fn put_changes(w: &mut ByteWriter, changes: &[(usize, f64, f64)]) {
    w.put_usize(changes.len());
    for &(j, lo, hi) in changes {
        w.put_usize(j);
        w.put_f64(lo);
        w.put_f64(hi);
    }
}

fn get_changes(r: &mut ByteReader<'_>) -> Result<Vec<(usize, f64, f64)>, FrameError> {
    let n = r.len(24)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let j = r.usize()?;
        let lo = r.f64()?;
        let hi = r.f64()?;
        v.push((j, lo, hi));
    }
    Ok(v)
}

fn put_f64s(w: &mut ByteWriter, xs: &[f64]) {
    w.put_usize(xs.len());
    for &x in xs {
        w.put_f64(x);
    }
}

fn get_f64s(r: &mut ByteReader<'_>) -> Result<Vec<f64>, FrameError> {
    let n = r.len(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.f64()?);
    }
    Ok(v)
}

fn cut_source_tag(s: CutSource) -> u8 {
    match s {
        CutSource::Gomory => 0,
        CutSource::Cover => 1,
        CutSource::Clique => 2,
    }
}

fn cut_source_from_tag(t: u8) -> Result<CutSource, FrameError> {
    match t {
        0 => Ok(CutSource::Gomory),
        1 => Ok(CutSource::Cover),
        2 => Ok(CutSource::Clique),
        _ => Err(FrameError::Corrupt("unknown cut source")),
    }
}

/// Serializes a frame to its on-disk representation (header + payload +
/// checksum).
pub fn encode_frame(f: &SearchFrame) -> Vec<u8> {
    let mut p = ByteWriter::new();
    p.put_u64(f.fingerprint);
    p.put_usize(f.nodes_done);
    p.put_f64(f.root_bound);
    match &f.incumbent {
        Some((obj, x)) => {
            p.put_bool(true);
            p.put_f64(*obj);
            put_f64s(&mut p, x);
        }
        None => p.put_bool(false),
    }
    put_f64s(&mut p, &f.base_lb);
    put_f64s(&mut p, &f.base_ub);
    p.put_usize(f.batches.len());
    for b in &f.batches {
        p.put_usize(b.cols.len());
        for c in &b.cols {
            p.put_f64(c.obj);
            p.put_f64(c.lb);
            p.put_f64(c.ub);
            p.put_bool(c.integer);
            p.put_str(c.name.as_deref().unwrap_or(""));
            put_coefs(&mut p, &c.entries);
        }
        p.put_usize(b.rows.len());
        for r in &b.rows {
            put_coefs(&mut p, &r.coefs);
            p.put_f64(r.lb);
            p.put_f64(r.ub);
            p.put_bool(r.gub);
            p.put_str(r.name.as_deref().unwrap_or(""));
        }
    }
    p.put_usize(f.cuts.len());
    for c in &f.cuts {
        put_coefs(&mut p, &c.coefs);
        p.put_f64(c.lb);
        p.put_f64(c.ub);
        p.put_u8(cut_source_tag(c.source));
    }
    p.put_usize(f.root_cuts);
    p.put_usize(f.open_nodes.len());
    for n in &f.open_nodes {
        p.put_f64(n.bound);
        p.put_usize(n.depth);
        put_changes(&mut p, &n.changes);
    }
    p.put_bytes(&f.user_data);

    let payload = p.into_bytes();
    let mut out = ByteWriter::new();
    out.buf.extend_from_slice(&MAGIC);
    out.put_u32(FRAME_VERSION);
    out.put_usize(payload.len());
    let sum = fnv1a64(&payload);
    out.buf.extend_from_slice(&payload);
    out.put_u64(sum);
    out.into_bytes()
}

/// Decodes one frame file's bytes, validating magic, version, length, and
/// checksum.
pub fn decode_frame(bytes: &[u8]) -> Result<SearchFrame, FrameError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(FrameError::Corrupt("bad magic"));
    }
    let version = r.u32()?;
    if version != FRAME_VERSION {
        return Err(FrameError::Version(version));
    }
    let plen = r.usize()?;
    let payload = r.take(plen)?;
    let sum = r.u64()?;
    if fnv1a64(payload) != sum {
        return Err(FrameError::Corrupt("checksum mismatch"));
    }

    let mut r = ByteReader::new(payload);
    let mut f = SearchFrame {
        fingerprint: r.u64()?,
        nodes_done: r.usize()?,
        root_bound: r.f64()?,
        ..Default::default()
    };
    if r.bool()? {
        let obj = r.f64()?;
        let x = get_f64s(&mut r)?;
        f.incumbent = Some((obj, x));
    }
    f.base_lb = get_f64s(&mut r)?;
    f.base_ub = get_f64s(&mut r)?;
    let nb = r.len(2)?;
    for _ in 0..nb {
        let mut b = FrameBatch::default();
        let nc = r.len(8)?;
        for _ in 0..nc {
            let obj = r.f64()?;
            let lb = r.f64()?;
            let ub = r.f64()?;
            let integer = r.bool()?;
            let name = r.str()?;
            let entries = get_coefs(&mut r)?;
            b.cols.push(NewColumn {
                obj,
                lb,
                ub,
                integer,
                name: (!name.is_empty()).then_some(name),
                entries,
            });
        }
        let nr = r.len(8)?;
        for _ in 0..nr {
            let coefs = get_coefs(&mut r)?;
            let lb = r.f64()?;
            let ub = r.f64()?;
            let gub = r.bool()?;
            let name = r.str()?;
            b.rows.push(NewRow {
                coefs,
                lb,
                ub,
                gub,
                name: (!name.is_empty()).then_some(name),
            });
        }
        f.batches.push(b);
    }
    let ncut = r.len(8)?;
    for _ in 0..ncut {
        let coefs = get_coefs(&mut r)?;
        let lb = r.f64()?;
        let ub = r.f64()?;
        let source = cut_source_from_tag(r.u8()?)?;
        f.cuts.push(Cut {
            coefs,
            lb,
            ub,
            source,
        });
    }
    f.root_cuts = r.usize()?;
    if f.root_cuts > f.cuts.len() {
        return Err(FrameError::Corrupt("root_cuts exceeds cut count"));
    }
    let nn = r.len(8)?;
    for _ in 0..nn {
        let bound = r.f64()?;
        let depth = r.usize()?;
        let changes = get_changes(&mut r)?;
        f.open_nodes.push(FrameNode {
            bound,
            depth,
            changes,
        });
    }
    f.user_data = r.bytes()?.to_vec();
    if !r.done() {
        return Err(FrameError::Corrupt("trailing bytes"));
    }
    Ok(f)
}

// ---------------------------------------------------------------------------
// File scheme: <path> (current), <path>.prev (previous good), <path>.tmp
// ---------------------------------------------------------------------------

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".");
    s.push(suffix);
    PathBuf::from(s)
}

/// Writes `frame` durably: temp file first, previous frame rotated to
/// `<path>.prev`, then an atomic rename into place. An injected
/// checkpoint-corruption fault truncates the written bytes mid-payload
/// (simulating a torn write) — the rotation still preserves the previous
/// good frame for the loader's fallback.
pub fn write_frame(
    path: &Path,
    frame: &SearchFrame,
    faults: Option<&FaultInjection>,
) -> Result<(), FrameError> {
    let bytes = encode_frame(frame);
    let torn = faults.is_some_and(|f| f.take_checkpoint_corruption());
    let data = if torn { &bytes[..bytes.len() / 2] } else { &bytes[..] };
    let tmp = sibling(path, "tmp");
    std::fs::write(&tmp, data)?;
    if path.exists() {
        // Best effort: losing the rotation only loses the fallback frame.
        let _ = std::fs::rename(path, sibling(path, "prev"));
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn load_one(path: &Path) -> Result<SearchFrame, FrameError> {
    decode_frame(&std::fs::read(path)?)
}

/// Loads the most recent valid frame: `<path>` when it validates, else
/// `<path>.prev`. The primary's error is reported when both fail.
pub fn load_frame(path: &Path) -> Result<SearchFrame, FrameError> {
    match load_one(path) {
        Ok(f) => Ok(f),
        Err(primary) => load_one(&sibling(path, "prev")).map_err(|_| primary),
    }
}

// ---------------------------------------------------------------------------
// In-solve runtime: cadence claims and the frame writer
// ---------------------------------------------------------------------------

/// The static part of every frame written during one solve, assembled once
/// after root processing. The base bounds are not static (workers tighten
/// them on incumbent improvements), so the search fills them in per frame.
#[derive(Debug, Default)]
pub(crate) struct FrameBase {
    pub(crate) fingerprint: u64,
    pub(crate) root_bound: f64,
    pub(crate) batches: Vec<FrameBatch>,
    pub(crate) user_data: Vec<u8>,
    /// The root cuts, baked into the LP every node solves.
    pub(crate) cuts: Vec<Cut>,
}

/// The hand-off between the search threads and the frame writer: the
/// newest frame not yet taken, and whether the search has finished.
#[derive(Debug, Default)]
struct Handoff {
    frame: Option<SearchFrame>,
    closed: bool,
}

/// Shared state between the search threads and the frame writer thread:
/// the cadence clock and the one-frame hand-off.
#[derive(Debug)]
pub(crate) struct CkptRuntime {
    pub(crate) cfg: CheckpointConfig,
    pub(crate) base: FrameBase,
    faults: Option<FaultInjection>,
    /// When the last frame was claimed (the runtime's creation before the
    /// first claim).
    last_claim: Mutex<Instant>,
    handoff: Mutex<Handoff>,
    /// Wakes the writer when a frame is offered or the hand-off closes.
    offered: Condvar,
}

impl CkptRuntime {
    pub(crate) fn new(
        cfg: CheckpointConfig,
        base: FrameBase,
        faults: Option<FaultInjection>,
    ) -> Self {
        CkptRuntime {
            cfg,
            base,
            faults,
            last_claim: Mutex::new(Instant::now()),
            handoff: Mutex::new(Handoff::default()),
            offered: Condvar::new(),
        }
    }

    /// Starts a [`SearchFrame`] from the solve's static base: fingerprint,
    /// root bound, pricing batches, the column-source payload, and the
    /// cuts. The caller fills in the dynamic parts (incumbent, base bounds,
    /// open nodes) at the snapshot point.
    pub(crate) fn base_frame(&self) -> SearchFrame {
        SearchFrame {
            fingerprint: self.base.fingerprint,
            root_bound: self.base.root_bound,
            batches: self.base.batches.clone(),
            user_data: self.base.user_data.clone(),
            cuts: self.base.cuts.clone(),
            root_cuts: self.base.cuts.len(),
            ..Default::default()
        }
    }

    /// Claims a frame at a node boundary reached at `now` when the cadence
    /// has passed since the last claim. A zero cadence claims at every
    /// boundary (used by the kill-and-resume tests).
    pub(crate) fn claim(&self, now: Instant) -> bool {
        let mut last = relock(&self.last_claim);
        let due = now.saturating_duration_since(*last) >= self.cfg.every;
        if due {
            *last = now;
        }
        due
    }

    /// Hands an assembled frame to the writer without waiting for it. A
    /// frame the writer has not taken yet is replaced: only the newest
    /// unwritten frame is kept.
    pub(crate) fn offer(&self, frame: SearchFrame) {
        relock(&self.handoff).frame = Some(frame);
        self.offered.notify_one();
    }

    /// Closes the hand-off: the writer persists the frame still waiting,
    /// if any, and returns.
    pub(crate) fn close(&self) {
        relock(&self.handoff).closed = true;
        self.offered.notify_one();
    }

    /// The writer thread's loop: blocks until a frame is offered, writes
    /// it, and returns `(frames written, writes failed)` once the hand-off
    /// is closed and empty.
    pub(crate) fn write_offered(&self) -> (usize, usize) {
        let (mut written, mut failed) = (0, 0);
        loop {
            let frame = {
                let mut h = self
                    .offered
                    .wait_while(relock(&self.handoff), |h| h.frame.is_none() && !h.closed)
                    .unwrap_or_else(PoisonError::into_inner);
                match h.frame.take() {
                    Some(f) => f,
                    None => return (written, failed),
                }
            };
            match write_frame(&self.cfg.path, &frame, self.faults.as_ref()) {
                Ok(()) => written += 1,
                Err(_) => failed += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("milp_ckpt_{}_{}", std::process::id(), tag))
    }

    fn sample_frame() -> SearchFrame {
        SearchFrame {
            fingerprint: 0xDEAD_BEEF,
            nodes_done: 42,
            root_bound: -3.5,
            incumbent: Some((-7.25, vec![0.0, 1.0, 0.5])),
            base_lb: vec![0.0, 0.0, 0.0],
            base_ub: vec![1.0, 1.0, f64::INFINITY],
            batches: vec![FrameBatch {
                cols: vec![NewColumn {
                    obj: 2.0,
                    lb: 0.0,
                    ub: 1.0,
                    integer: true,
                    name: Some("p_3".into()),
                    entries: vec![(0, 1.0), (2, -1.0)],
                }],
                rows: vec![NewRow {
                    coefs: vec![(1, 1.0), (3, 1.0)],
                    lb: f64::NEG_INFINITY,
                    ub: 1.0,
                    gub: true,
                    name: None,
                }],
            }],
            cuts: vec![Cut {
                coefs: vec![(0, 1.0), (1, 1.0)],
                lb: f64::NEG_INFINITY,
                ub: 1.0,
                source: CutSource::Cover,
            }],
            root_cuts: 1,
            open_nodes: vec![FrameNode {
                bound: -6.0,
                depth: 2,
                changes: vec![(0, 1.0, 1.0), (1, 0.0, 0.0)],
            }],
            user_data: vec![9, 8, 7],
        }
    }

    fn assert_frames_equal(a: &SearchFrame, b: &SearchFrame) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.nodes_done, b.nodes_done);
        assert_eq!(a.root_bound.to_bits(), b.root_bound.to_bits());
        match (&a.incumbent, &b.incumbent) {
            (Some((ao, ax)), Some((bo, bx))) => {
                assert_eq!(ao.to_bits(), bo.to_bits());
                assert_eq!(ax, bx);
            }
            (None, None) => {}
            _ => panic!("incumbent mismatch"),
        }
        assert_eq!(a.base_lb, b.base_lb);
        assert_eq!(a.base_ub.len(), b.base_ub.len());
        assert_eq!(a.batches.len(), b.batches.len());
        assert_eq!(a.batches[0].cols[0].name, b.batches[0].cols[0].name);
        assert_eq!(a.batches[0].cols[0].entries, b.batches[0].cols[0].entries);
        assert_eq!(a.batches[0].rows[0].gub, b.batches[0].rows[0].gub);
        assert_eq!(a.cuts.len(), b.cuts.len());
        assert_eq!(a.cuts[0].source, b.cuts[0].source);
        assert_eq!(a.root_cuts, b.root_cuts);
        assert_eq!(a.open_nodes.len(), b.open_nodes.len());
        assert_eq!(a.open_nodes[0].changes, b.open_nodes[0].changes);
        assert_eq!(a.user_data, b.user_data);
    }

    #[test]
    fn frame_round_trips_exactly() {
        let f = sample_frame();
        let g = decode_frame(&encode_frame(&f)).expect("round trip");
        assert_frames_equal(&f, &g);
    }

    #[test]
    fn truncation_and_corruption_detected() {
        let bytes = encode_frame(&sample_frame());
        for cut in [0, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_frame(&bytes[..cut]).is_err(), "truncated at {}", cut);
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(decode_frame(&flipped).is_err(), "bit flip must fail checksum");
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            decode_frame(&wrong_version),
            Err(FrameError::Version(_) | FrameError::Corrupt(_))
        ));
    }

    #[test]
    fn writer_rotates_and_loader_falls_back() {
        let path = tmp_path("rotate");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sibling(&path, "prev"));

        let mut first = sample_frame();
        first.nodes_done = 1;
        write_frame(&path, &first, None).expect("write 1");
        assert_eq!(load_frame(&path).expect("load 1").nodes_done, 1);

        // Second write torn by the injected fault: the primary is invalid,
        // the loader must fall back to the rotated previous frame.
        let faults = FaultInjection::default().corrupt_checkpoint(1);
        let mut second = sample_frame();
        second.nodes_done = 2;
        write_frame(&path, &second, Some(&faults)).expect("torn write");
        assert!(load_one(&path).is_err(), "torn primary must fail checksum");
        assert_eq!(load_frame(&path).expect("fallback").nodes_done, 1);

        // A third, healthy write recovers the primary.
        let mut third = sample_frame();
        third.nodes_done = 3;
        write_frame(&path, &third, Some(&faults)).expect("write 3");
        assert_eq!(load_frame(&path).expect("load 3").nodes_done, 3);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sibling(&path, "prev"));
    }

    #[test]
    fn claims_follow_the_cadence_and_zero_cadence_always_claims() {
        let cfg = CheckpointConfig::new(tmp_path("due")).with_cadence(Duration::ZERO);
        let rt = CkptRuntime::new(cfg, FrameBase::default(), None);
        let now = Instant::now();
        assert!(rt.claim(now));
        assert!(rt.claim(now), "zero cadence: a claim at every boundary");

        let cfg = CheckpointConfig::new(tmp_path("due2")).with_cadence(Duration::from_secs(3600));
        let rt = CkptRuntime::new(cfg, FrameBase::default(), None);
        let now = Instant::now();
        assert!(!rt.claim(now), "the cadence has not passed yet");
        let later = now + Duration::from_secs(3600);
        assert!(rt.claim(later));
        assert!(!rt.claim(later), "a claim restarts the cadence");
        assert!(rt.claim(later + Duration::from_secs(3600)));
    }

    #[test]
    fn writer_keeps_the_newest_offer_and_counts_writes() {
        let path = tmp_path("handoff");
        let _ = std::fs::remove_file(&path);
        let rt = CkptRuntime::new(CheckpointConfig::new(path.clone()), FrameBase::default(), None);
        // Two offers before the writer runs: the newer replaces the older.
        let mut older = sample_frame();
        older.nodes_done = 1;
        rt.offer(older);
        rt.offer(sample_frame());
        rt.close();
        assert_eq!(rt.write_offered(), (1, 0));
        assert_eq!(load_frame(&path).expect("written").nodes_done, 42);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sibling(&path, "prev"));

        // A writer on its own thread takes a frame offered while it runs
        // (before or after it starts waiting, the result is the same), and
        // a write into a missing directory counts as failed.
        let missing = tmp_path("no_such_dir").join("frame");
        let rt = CkptRuntime::new(CheckpointConfig::new(missing), FrameBase::default(), None);
        let counts = std::thread::scope(|s| {
            let writer = s.spawn(|| rt.write_offered());
            rt.offer(sample_frame());
            rt.close();
            writer.join().expect("the writer returns")
        });
        assert_eq!(counts, (0, 1));
    }
}
