//! Checkpoint journal — the pipeline's crash-recovery log.
//!
//! A [`Checkpoint`] records every *sealed* job outcome (a finished grid
//! cell, retrained chip, or fleet batch, successful or quarantined) as one
//! framed JSON line. The current (version 3) format splits the journal
//! into fixed-size *shard* segments: `journal.jsonl` holds only a one-line
//! manifest naming the shard size and each sealed shard's whole-file
//! digest, and records live in `journal-00000.jsonl`,
//! `journal-00001.jsonl`, … files beside it. An append writes only its
//! own framed line: it is appended to the active shard in place and
//! synced ([`crate::artifact::append_durable`]; a shard's first line
//! creates the file atomically), so sealing a job costs one record of
//! I/O, not the shard or the journal. A full shard is sealed by appending
//! its footer and atomically rewriting the manifest with the shard's
//! digest, kept as a running CRC. A killed process leaves at worst a torn
//! final line, which resume truncates away: the in-flight jobs are lost,
//! never the finished ones.
//!
//! The journal keeps no record in memory. Resume verifies every frame
//! while streaming the shards and keeps only counts and digests, and
//! replay reads the records back through a forward `JournalCursor`, one
//! line at a time, so a journaled fleet run stays constant in memory.
//!
//! # Version-3 integrity framing
//!
//! Every v3 line is framed as `CCCCCCCC LEN JSON\n`: eight lowercase hex
//! digits of the payload's CRC-32 (IEEE), the payload's byte length in
//! decimal, one space, and the JSON payload. A sealed shard ends with a
//! framed footer `{"footer":"reduce-shard","records":N}` asserting its
//! record count, and the (itself framed) manifest records each sealed
//! shard's whole-file CRC-32 digest. The shard is sealed on disk *before*
//! the manifest names it, so a crash between the two leaves a footered
//! shard the manifest lags behind — resume detects and heals that without
//! data loss. A single flipped or lost byte anywhere in a v3 journal is
//! therefore *detected* (frame length, frame CRC, footer count, or
//! manifest digest), never silently replayed.
//!
//! # Self-healing resume
//!
//! [`Checkpoint::resume`] (and [`Checkpoint::resume_observed`], which
//! reports healing through a [`crate::telemetry::Observer`]) verifies the
//! journal on open. Damage confined to the journal's *tail* — a torn
//! final shard write, trailing garbage, a detected bitflip with no valid
//! record after it — is healed by truncating back to the last valid
//! record, emitting [`Event::ShardTruncated`] / [`Event::RecordDropped`]
//! (one per discarded record slot, not per damaged line), and the dropped
//! jobs are simply recomputed. Damage in the *middle* — where truncation
//! would silently discard valid completed work after the damage — is a
//! typed [`ReduceError::JournalCorrupt`] naming the shard, record, and
//! [`crate::error::CorruptKind`]; `journal-tool repair`
//! ([`repair_journal`]) performs the explicit truncation. Two whole-file
//! checks are treated the same way: a sealed shard whose content digest
//! disagrees with the manifest (every record may verify individually, but
//! the content is not what the manifest committed to — repair adopts it
//! and recomputes the digest), and an unreadable manifest whose shard
//! files contain no v3-framed line at all (a pre-v3 journal with a
//! damaged header, or not a journal — never adopted and truncated as an
//! empty v3 one). Resume never panics on journal bytes and never replays
//! a record that fails verification.
//!
//! Version 3 is the only format read. A journal whose first line is a
//! version-1 (single header-prefixed file) or version-2 (unframed shards)
//! header is refused by resume, [`inspect_journal`], and
//! [`repair_journal`] alike with one typed [`ReduceError::InvalidConfig`]
//! asking the operator to delete it and rerun; none of them writes to
//! it. Journals are resumable run scratch, not archives, and the older
//! layouts cannot detect a bitflip that keeps the JSON valid.
//!
//! On `--resume`, [`Checkpoint::resume`] verifies and heals the journal,
//! and the resumable entry points
//! ([`crate::ResilienceAnalysis::run_resumable`],
//! [`crate::FleetEvaluation::run`]) replay the recorded outcomes — read
//! window by window from a `JournalCursor`, their buffered telemetry
//! events re-emitted bit-identically — and compute only the missing jobs,
//! both through one function,
//! `run_or_replay`, which folds fresh and replayed records alike. Records
//! carry the stable job id the retry/chaos layer keys on, so a resumed run
//! salts and injects exactly like an uninterrupted one.
//!
//! Journal lines are written in *completion* order, which depends on
//! thread scheduling; determinism lives in the replayed artifacts (run
//! log, manifest, CSVs), not in the journal files themselves.

use crate::artifact::{append_durable, write_atomic, LineReader};
use crate::error::{CorruptKind, ReduceError, Result};
use crate::exec::{self, ExecConfig};
use crate::fleet::{ChipOutcome, QuarantinedChip, SealedChip};
use crate::resilience::ResiliencePoint;
use crate::telemetry::json::{parse, push_json_f32, push_json_f64, push_json_string, JsonValue};
use crate::telemetry::{parse_event, render_event, Event, NullObserver, Observer, Stage};
use reduce_nn::WorkspaceStats;
use reduce_systolic::Cluster;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Default records per shard segment. An append writes one framed line
/// whatever the shard size; the shard size sets how often a seal appends
/// a footer and rewrites the manifest, and bounds the one shard a
/// resume's heal may rewrite.
pub const DEFAULT_SHARD_RECORDS: usize = 256;

/// Extends the CRC-32 (IEEE 802.3, the `cksum`/zlib polynomial,
/// bit-reflected) `crc` of some bytes with `bytes`: `crc32_extend(0, b)`
/// is the CRC of `b`, and `crc32_extend(crc32(a), b)` that of `a ++ b`,
/// which is how a shard's digest runs along with its appends. A
/// hand-rolled bitwise implementation: journal lines are short, so a
/// lookup table isn't worth the footprint.
fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// Frames a JSON payload as one v3 journal line:
/// `CCCCCCCC LEN JSON\n`.
fn frame_line(json: &str) -> String {
    format!("{:08x} {} {json}\n", crc32(json.as_bytes()), json.len())
}

/// Unframes one v3 line (without trailing newline), verifying the CRC and
/// length. Returns the JSON payload.
fn parse_frame(line: &str) -> std::result::Result<&str, CorruptKind> {
    let (crc_hex, rest) = line.split_once(' ').ok_or(CorruptKind::BadFrame)?;
    if crc_hex.len() != 8
        || crc_hex
            .bytes()
            .any(|b| !b.is_ascii_hexdigit() || b.is_ascii_uppercase())
    {
        return Err(CorruptKind::BadFrame);
    }
    let crc = u32::from_str_radix(crc_hex, 16).map_err(|_| CorruptKind::BadFrame)?;
    let (len_str, payload) = rest.split_once(' ').ok_or(CorruptKind::BadFrame)?;
    if len_str.is_empty() || len_str.bytes().any(|b| !b.is_ascii_digit()) {
        return Err(CorruptKind::BadFrame);
    }
    let len: usize = len_str.parse().map_err(|_| CorruptKind::BadFrame)?;
    if payload.len() != len {
        return Err(CorruptKind::BadFrame);
    }
    if crc32(payload.as_bytes()) != crc {
        return Err(CorruptKind::BadCrc);
    }
    Ok(payload)
}

/// One verified line of a v3 shard.
enum ShardLine {
    /// The shard footer, with its record count.
    Footer(usize),
    /// A record.
    Record(JournalRecord),
}

/// Unframes and decodes one v3 shard line (without its newline): a
/// footer or a record, each JSON payload parsed once.
fn parse_shard_line(raw: &[u8]) -> std::result::Result<ShardLine, CorruptKind> {
    let line = std::str::from_utf8(raw).map_err(|_| CorruptKind::BadFrame)?;
    let value = parse(parse_frame(line)?).map_err(|_| CorruptKind::BadRecord)?;
    if let Some(n) = footer_count(&value) {
        return Ok(ShardLine::Footer(n));
    }
    record_from_value(&value)
        .map(ShardLine::Record)
        .map_err(|_| CorruptKind::BadRecord)
}

fn render_footer(records: usize) -> String {
    frame_line(&format!(
        "{{\"footer\":\"reduce-shard\",\"records\":{records}}}"
    ))
}

/// `Some(record count)` if the (already unframed and parsed) payload is
/// a shard footer.
fn footer_count(value: &JsonValue) -> Option<usize> {
    if value.field("footer").and_then(JsonValue::as_str) != Some("reduce-shard") {
        return None;
    }
    value.field("records").and_then(JsonValue::as_usize)
}

fn render_manifest_v3(shard_records: usize, sealed: &[String]) -> String {
    let mut json = format!(
        "{{\"journal\":\"reduce-journal\",\"version\":3,\"shard_records\":{shard_records},\"sealed\":["
    );
    for (i, digest) in sealed.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push('"');
        json.push_str(digest);
        json.push('"');
    }
    json.push_str("]}");
    frame_line(&json)
}

/// `Some((shard_records, sealed digests))` if the (already unframed)
/// payload is a v3 manifest.
fn parse_manifest_v3(payload: &str) -> Option<(usize, Vec<String>)> {
    let value = parse(payload).ok()?;
    if value.field("journal").and_then(JsonValue::as_str) != Some("reduce-journal") {
        return None;
    }
    if value.field("version").and_then(JsonValue::as_u64) != Some(3) {
        return None;
    }
    let shard_records = value
        .field("shard_records")
        .and_then(JsonValue::as_usize)
        .filter(|&n| n > 0)?;
    let sealed = match value.field("sealed") {
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|d| d.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()?,
        _ => return None,
    };
    Some((shard_records, sealed))
}

fn shard_path(manifest: &Path, index: usize) -> PathBuf {
    let stem = manifest.file_stem().map_or_else(
        || "journal".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    manifest.with_file_name(format!("{stem}-{index:05}.jsonl"))
}

/// One sealed job outcome in the journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A completed resilience-grid cell.
    Point {
        /// Stable job id (full-grid linear index) the cell was salted with.
        job: u64,
        /// The measured point.
        point: ResiliencePoint,
        /// The cell's model-workspace counters (for the stage aggregate).
        workspace: WorkspaceStats,
        /// The cell's buffered telemetry events, in emission order.
        events: Vec<Event>,
    },
    /// A grid cell that exhausted its retry budget.
    PointFailed {
        /// Stable job id (full-grid linear index).
        job: u64,
        /// Rate index of the failed cell.
        rate_index: usize,
        /// Fault rate of the failed cell.
        rate: f64,
        /// Repeat index of the failed cell.
        repeat: usize,
        /// Attempts consumed (budget + 1).
        attempts: u32,
        /// The final attempt's error.
        error: String,
        /// The cell's failure telemetry, in emission order.
        events: Vec<Event>,
    },
    /// One sealed batch of the streaming fleet evaluator: every chip the
    /// epoch-budget scheduler ran through one shared workspace, with the
    /// batch's pooled workspace counters and buffered telemetry. The
    /// `(policy, window, budget, chunk)` key is a pure function of the
    /// evaluation config, so a resumed run recomputes the same batches and
    /// replays the sealed ones.
    FleetBatch {
        /// Label of the policy the batch was retrained under.
        policy: String,
        /// Intake-window index the batch belongs to.
        window: usize,
        /// The epoch budget shared by every chip in the batch.
        budget: usize,
        /// Chunk index within the window's budget group.
        chunk: usize,
        /// Fault-similarity clusters the batch formed (empty for per-chip
        /// runs).
        clusters: Vec<Cluster>,
        /// Sealed per-chip fates, in ascending chip-id order.
        chips: Vec<SealedChip>,
        /// The batch's pooled-workspace counters.
        workspace: WorkspaceStats,
        /// The batch's buffered telemetry events, in emission order.
        events: Vec<Event>,
    },
}

impl JournalRecord {
    /// `(rate_index, repeat)` for grid-cell records.
    pub fn grid_key(&self) -> Option<(usize, usize)> {
        match self {
            JournalRecord::Point { point, .. } => Some((point.rate_index, point.repeat)),
            JournalRecord::PointFailed {
                rate_index, repeat, ..
            } => Some((*rate_index, *repeat)),
            _ => None,
        }
    }

    /// `(policy label, window, budget, chunk)` for fleet-batch records.
    pub fn batch_key(&self) -> Option<(&str, usize, usize, usize)> {
        match self {
            JournalRecord::FleetBatch {
                policy,
                window,
                budget,
                chunk,
                ..
            } => Some((policy.as_str(), *window, *budget, *chunk)),
            _ => None,
        }
    }
}

/// Cumulative journal-write accounting for this process: the evidence
/// that an append costs one record, not the shard or the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Appends performed (replayed records don't count).
    pub appends: u64,
    /// Total bytes written across all appends: framed records, plus each
    /// seal's footer and manifest.
    pub bytes_written: u64,
    /// Largest single append's bytes: one framed record, plus the footer
    /// and the manifest when the append seals its shard.
    pub max_append_bytes: u64,
}

/// On-disk layout of a (version 3) journal: CRC-framed lines, footered
/// shards, digest-bearing manifest. Only counts and digests are kept;
/// the records themselves live on disk alone.
struct Store {
    /// Records per shard segment.
    shard_records: usize,
    /// Whether the manifest file exists on disk yet (it is written lazily
    /// with the first append).
    manifest_written: bool,
    /// Whole-file digest of each sealed shard, in shard order; the active
    /// shard's index is `sealed.len()`.
    sealed: Vec<String>,
    /// Records in the active (partial) shard.
    active_records: usize,
    /// Bytes of the active shard on disk.
    active_bytes: u64,
    /// Running CRC-32 of the active shard's bytes, which becomes its
    /// digest once the footer is appended.
    active_crc: u32,
    /// Records in the whole journal.
    records: usize,
}

impl Store {
    fn new(shard_records: usize) -> Self {
        Store {
            shard_records,
            manifest_written: false,
            sealed: Vec::new(),
            active_records: 0,
            active_bytes: 0,
            active_crc: 0,
            records: 0,
        }
    }

    /// Writes one framed `line` to the active shard, sealing it when it is
    /// full, and returns the bytes written. A shard's first line creates
    /// its file atomically (replacing any stale file of that name); later
    /// lines are appended in place.
    fn append(&mut self, manifest: &Path, line: &str) -> Result<u64> {
        let mut bytes = 0;
        if !self.manifest_written {
            bytes += self.write_manifest(manifest)?;
            self.manifest_written = true;
        }
        let shard = shard_path(manifest, self.sealed.len());
        if self.active_records == 0 {
            write_atomic(&shard, line)?;
        } else {
            append_durable(&shard, line)?;
        }
        self.extend_active(line);
        self.active_records += 1;
        self.records += 1;
        bytes += line.len() as u64;
        if self.active_records >= self.shard_records {
            // Seal: the footer goes to disk *before* the manifest that
            // names the shard's digest — a crash between the two leaves a
            // footered shard resume detects and adopts without data loss.
            bytes += self.seal_active(&shard)? + self.write_manifest(manifest)?;
        }
        Ok(bytes)
    }

    /// Appends the footer to the active shard at `shard` and records its
    /// digest as sealed; returns the footer's bytes. The manifest is the
    /// caller's to rewrite.
    fn seal_active(&mut self, shard: &Path) -> Result<u64> {
        let footer = render_footer(self.active_records);
        append_durable(shard, &footer)?;
        self.extend_active(&footer);
        self.sealed.push(format!("{:08x}", self.active_crc));
        self.active_records = 0;
        self.active_bytes = 0;
        self.active_crc = 0;
        Ok(footer.len() as u64)
    }

    fn extend_active(&mut self, text: &str) {
        self.active_crc = crc32_extend(self.active_crc, text.as_bytes());
        self.active_bytes += text.len() as u64;
    }

    fn write_manifest(&self, manifest: &Path) -> Result<u64> {
        let text = render_manifest_v3(self.shard_records, &self.sealed);
        write_atomic(manifest, &text)?;
        Ok(text.len() as u64)
    }
}

struct CheckpointState {
    store: Store,
    appended: usize,
    halt_after: Option<usize>,
    io: IoStats,
    /// Set by an append that failed part-way. The open shard may now end
    /// in a torn line, and a later append would bury it mid-shard, so
    /// every further append is refused; a resume heals the tear.
    failed: bool,
}

/// An append-only journal of sealed job outcomes backed by an atomically
/// maintained manifest-plus-shards layout.
///
/// Appends are serialised through an internal mutex, so a `Checkpoint` can
/// be shared by the executor's worker threads: `run_or_replay` appends
/// each record from the worker that sealed it. Appended records are not
/// kept in memory; replay streams them back from disk.
pub struct Checkpoint {
    path: PathBuf,
    state: Mutex<CheckpointState>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl Checkpoint {
    fn with_store(path: &Path, store: Store) -> Self {
        Checkpoint {
            path: path.to_path_buf(),
            state: Mutex::new(CheckpointState {
                store,
                appended: 0,
                halt_after: None,
                io: IoStats::default(),
                failed: false,
            }),
        }
    }

    /// A fresh sharded (version 3) journal whose manifest lives at `path`.
    /// Nothing is written until the first [`Checkpoint::append`].
    pub fn create(path: &Path) -> Self {
        Self::with_store(path, Store::new(DEFAULT_SHARD_RECORDS))
    }

    /// Overrides the records-per-shard size of a journal that holds no
    /// records yet (the first append then writes the manifest with it);
    /// ignored once it holds records (resumed journals keep the shard size
    /// they were created with). Zero is ignored.
    #[must_use]
    pub fn with_shard_records(self, n: usize) -> Self {
        if n > 0 {
            if let Ok(mut state) = self.state.lock() {
                let store = &mut state.store;
                if store.records == 0 && store.sealed.is_empty() && store.shard_records != n {
                    store.shard_records = n;
                    store.manifest_written = false;
                }
            }
        }
        self
    }

    /// Reloads the journal at `path`; a missing file is an empty journal
    /// (resuming a run that was killed before its first checkpoint). The
    /// version-3 manifest is verified along with every shard's frames,
    /// footers, and digests, streaming: no record is kept in memory.
    ///
    /// Healable tail damage is truncated away silently — use
    /// [`Checkpoint::resume_observed`] to watch it happen.
    ///
    /// # Errors
    ///
    /// [`ReduceError::JournalCorrupt`] when damage sits in the *middle*
    /// of the journal (valid records exist after it, so truncation would
    /// silently discard completed work — [`repair_journal`] performs it
    /// explicitly), when a sealed shard's content digest disagrees with
    /// the manifest, or when nothing in the directory is recognisably a
    /// v3 journal; [`ReduceError::InvalidConfig`] for an unreadable file
    /// or a version-1/2 journal, which is left untouched.
    pub fn resume(path: &Path) -> Result<Self> {
        Self::resume_observed(path, &NullObserver)
    }

    /// [`Checkpoint::resume`], reporting any self-healing through
    /// `observer`: one [`Event::ShardTruncated`] per truncated shard and
    /// one [`Event::RecordDropped`] per discarded record slot.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::resume`].
    pub fn resume_observed(path: &Path, observer: &dyn Observer) -> Result<Self> {
        let Some(scan) = scan_journal(path)? else {
            return Ok(Self::create(path));
        };
        scan.corrupt_error()?;
        let healed = heal_journal(path, scan, observer)?;
        Ok(Self::with_store(path, healed.store))
    }

    /// The journal manifest path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, CheckpointState>> {
        self.state.lock().map_err(|_| ReduceError::Internal {
            invariant: "journal appends must not panic while holding the lock".to_string(),
        })
    }

    /// A forward cursor over the records the journal holds now (replayed
    /// and appended), read from disk one line at a time. Records appended
    /// after this call are not part of its view.
    ///
    /// # Errors
    ///
    /// [`ReduceError::Internal`] if the journal lock was poisoned.
    pub(crate) fn cursor(&self) -> Result<JournalCursor> {
        let state = self.lock()?;
        let store = &state.store;
        let shards = if store.records == 0 {
            0
        } else {
            store.sealed.len() + usize::from(store.active_records > 0)
        };
        Ok(JournalCursor {
            manifest: self.path.clone(),
            shards,
            sealed: store.sealed.len(),
            tail_bytes: store.active_bytes,
            next_shard: 0,
            reader: None,
            line: Vec::new(),
            peeked: None,
        })
    }

    /// All records currently in the journal (replayed + appended), read
    /// back from disk. This holds the whole journal in memory; the stages
    /// replay through a forward cursor instead.
    ///
    /// # Errors
    ///
    /// [`ReduceError::JournalCorrupt`] for a line that no longer verifies
    /// (the files changed after resume verified them);
    /// [`ReduceError::InvalidConfig`] for an unreadable shard file.
    pub fn records(&self) -> Result<Vec<JournalRecord>> {
        let mut cursor = self.cursor()?;
        let mut records = Vec::new();
        while let Some(record) = cursor.next_record()? {
            records.push(record);
        }
        Ok(records)
    }

    /// The number of records currently in the journal (replayed +
    /// appended), without reading them.
    ///
    /// # Errors
    ///
    /// [`ReduceError::Internal`] if the journal lock was poisoned.
    pub fn record_count(&self) -> Result<usize> {
        Ok(self.lock()?.store.records)
    }

    /// This process's cumulative append-I/O accounting.
    ///
    /// # Errors
    ///
    /// [`ReduceError::Internal`] if the journal lock was poisoned.
    pub fn io_stats(&self) -> Result<IoStats> {
        Ok(self.lock()?.io)
    }

    /// Arms the CI kill switch: the process exits (code 3) immediately
    /// after the `n`-th successful [`Checkpoint::append`] of this run,
    /// simulating a hard mid-fan-out kill with a complete journal prefix
    /// on disk. Counts appends only — replayed records don't trigger it.
    pub fn set_halt_after(&self, n: usize) {
        if let Ok(mut state) = self.state.lock() {
            state.halt_after = Some(n);
        }
    }

    /// Appends one sealed outcome: its framed line is appended to the
    /// active shard in place and synced, so the on-disk journal is
    /// complete after every append and the cost is one record. The record
    /// is not retained.
    ///
    /// # Errors
    ///
    /// Propagates the write's error; callers treat a failed checkpoint as
    /// fatal (the resume contract would otherwise be silently broken).
    /// Once an append has failed, every later append of this `Checkpoint`
    /// fails too.
    pub fn append(&self, record: JournalRecord) -> Result<()> {
        let line = frame_line(render_record(&record).trim_end());
        drop(record);
        let mut state = self.lock()?;
        if state.failed {
            return Err(ReduceError::InvalidConfig {
                what: format!(
                    "journal {}: an earlier append failed; resume the run to heal the journal",
                    self.path.display()
                ),
            });
        }
        let bytes = match state.store.append(&self.path, &line) {
            Ok(bytes) => bytes,
            Err(e) => {
                state.failed = true;
                return Err(e);
            }
        };
        state.appended += 1;
        state.io.appends += 1;
        state.io.bytes_written += bytes;
        state.io.max_append_bytes = state.io.max_append_bytes.max(bytes);
        if let Some(n) = state.halt_after {
            if state.appended >= n {
                // The CI kill switch: die *hard*, mid-fan-out, without
                // unwinding — exactly what the resume path must survive.
                eprintln!(
                    "journal: halting after {} checkpoint append(s) as requested",
                    state.appended
                );
                std::process::exit(3);
            }
        }
        Ok(())
    }
}

/// What [`JournalCursor::take_run`] does with one record.
pub(crate) enum Step<K> {
    /// Collect the record under this key.
    Take(K),
    /// Pass over the record.
    Skip,
    /// End the run here; the record stays for the next call.
    Stop,
}

/// A forward reader over the records a journal held when
/// [`Checkpoint::cursor`] opened it: sealed shards whole, the active shard
/// up to its length at that moment. It holds one line at a time, verifies
/// each frame as it reads, and skips shard footers.
///
/// Resumable stages replay through one cursor each. Records of one stage,
/// policy and intake window lie contiguously in the journal: a stage
/// folds one window's fan-out before it starts the next, and a resumed
/// run completes the journal's last, partial window before any later one.
/// So a stage collects each window's records with [`JournalCursor::take_run`]
/// as it reaches the window, in one pass. A record the cursor has passed
/// when its window comes (a journal written by a differently ordered run)
/// is recomputed, never replayed out of order.
#[derive(Debug)]
pub(crate) struct JournalCursor {
    manifest: PathBuf,
    /// Shard files in view: `0..shards`.
    shards: usize,
    /// Shards in view that are sealed, read to their end; shard `sealed`
    /// (the active one) is read to `tail_bytes`.
    sealed: usize,
    tail_bytes: u64,
    next_shard: usize,
    /// The open shard: its index, records read from it so far, reader.
    reader: Option<(usize, usize, LineReader)>,
    line: Vec<u8>,
    peeked: Option<JournalRecord>,
}

impl JournalCursor {
    /// The next record in journal order, or `None` past the cursor's view.
    ///
    /// # Errors
    ///
    /// [`ReduceError::JournalCorrupt`] for a line that no longer verifies
    /// (the files changed after resume verified them);
    /// [`ReduceError::InvalidConfig`] for an unreadable shard file.
    pub(crate) fn next_record(&mut self) -> Result<Option<JournalRecord>> {
        if let Some(record) = self.peeked.take() {
            return Ok(Some(record));
        }
        loop {
            let Some((shard, record, reader)) = self.reader.as_mut() else {
                if self.next_shard >= self.shards {
                    return Ok(None);
                }
                let index = self.next_shard;
                self.next_shard += 1;
                let limit = if index < self.sealed {
                    u64::MAX
                } else {
                    self.tail_bytes
                };
                let path = shard_path(&self.manifest, index);
                let reader =
                    LineReader::open(&path, limit).map_err(|e| ReduceError::InvalidConfig {
                        what: format!("cannot read journal shard {}: {e}", path.display()),
                    })?;
                self.reader = Some((index, 0, reader));
                continue;
            };
            let more =
                reader
                    .next_line(&mut self.line)
                    .map_err(|e| ReduceError::InvalidConfig {
                        what: format!("cannot read journal shard {shard}: {e}"),
                    })?;
            if !more {
                self.reader = None;
                continue;
            }
            let raw = self.line.strip_suffix(b"\n").unwrap_or(&self.line);
            let corrupt = |kind| ReduceError::JournalCorrupt {
                shard: *shard,
                record: *record,
                kind,
            };
            match parse_shard_line(raw).map_err(corrupt)? {
                ShardLine::Footer(_) => {}
                ShardLine::Record(r) => {
                    *record += 1;
                    return Ok(Some(r));
                }
            }
        }
    }

    /// Collects the run of records `select` keys, from the cursor's
    /// position on: [`Step::Take`] records are collected, [`Step::Skip`]
    /// ones passed over, and the first [`Step::Stop`] ends the run and
    /// stays for the next call. Memory is the run's records, not the
    /// journal's.
    pub(crate) fn take_run<K: Ord>(
        &mut self,
        mut select: impl FnMut(&JournalRecord) -> Step<K>,
    ) -> Result<BTreeMap<K, JournalRecord>> {
        let mut run = BTreeMap::new();
        while let Some(record) = self.next_record()? {
            match select(&record) {
                Step::Take(key) => {
                    run.insert(key, record);
                }
                Step::Skip => {}
                Step::Stop => {
                    self.peeked = Some(record);
                    break;
                }
            }
        }
        Ok(run)
    }
}

/// How a journaled stage (Step ①'s grid cells, Step ③'s fleet batches)
/// resumes: units `journaled` finds a record for are replayed, the rest
/// are sealed by `seal` on the executor's workers, each fresh record
/// appended to `checkpoint` as soon as it is sealed. Every record, fresh
/// or replayed, then folds through one path in unit order: its events to
/// `exec`'s observer, its workspace counters into the returned stage
/// total, the record itself to `fold`. A fresh run thus folds exactly the
/// records a resumed run replays.
///
/// # Errors
///
/// The lowest-indexed failing `seal` or checkpoint append (either aborts
/// the fan-out), then the first `fold` error.
pub(crate) fn run_or_replay<U, L, S, F>(
    units: &[U],
    exec: &ExecConfig,
    checkpoint: Option<&Checkpoint>,
    journaled: L,
    seal: S,
    mut fold: F,
) -> Result<WorkspaceStats>
where
    U: Sync,
    L: FnMut(&U) -> Option<JournalRecord>,
    S: Fn(&U) -> Result<JournalRecord> + Sync,
    F: FnMut(JournalRecord) -> Result<()>,
{
    let replayed: Vec<Option<JournalRecord>> = units.iter().map(journaled).collect();
    let missing: Vec<&U> = units
        .iter()
        .zip(&replayed)
        .filter_map(|(unit, record)| record.is_none().then_some(unit))
        .collect();
    let fresh = exec::parallel_map(&missing, exec.threads, |_, unit| {
        let record = seal(unit)?;
        if let Some(cp) = checkpoint {
            cp.append(record.clone())?;
        }
        Ok(record)
    })?;
    let mut fresh = fresh.into_iter();
    let mut total = WorkspaceStats::default();
    for record in replayed {
        let record = record
            .or_else(|| fresh.next())
            .ok_or_else(|| ReduceError::Internal {
                invariant: "every unit is either replayed or freshly sealed".to_string(),
            })?;
        let (events, workspace) = match &record {
            JournalRecord::Point {
                events, workspace, ..
            }
            | JournalRecord::FleetBatch {
                events, workspace, ..
            } => (events, *workspace),
            JournalRecord::PointFailed { events, .. } => (events, WorkspaceStats::default()),
        };
        for event in events {
            exec.observer().on_event(event);
        }
        total.merge(&workspace);
        fold(record)?;
    }
    Ok(total)
}

/// Closes a stage [`run_or_replay`] ran: its summed workspace counters,
/// then, when journaled, that the journal covers all `completed` jobs.
pub(crate) fn close_stage(
    exec: &ExecConfig,
    stage: Stage,
    workspace: WorkspaceStats,
    checkpoint: Option<&Checkpoint>,
    completed: usize,
) {
    exec.observer().on_event(&Event::WorkspaceUsed {
        stage,
        hits: workspace.hits,
        misses: workspace.misses,
        bytes_allocated: workspace.bytes_allocated,
    });
    if checkpoint.is_some() {
        exec.observer()
            .on_event(&Event::CheckpointWritten { stage, completed });
    }
}

/// Read-only verification scan of one shard file. It keeps counts and
/// offsets only: the records were parsed to verify them and dropped.
struct ShardScan {
    /// Whether the file exists (`false` only for manifest-named shards
    /// whose file is gone).
    exists: bool,
    /// File length in bytes.
    bytes: usize,
    /// Records in the valid prefix.
    valid: usize,
    /// Bytes of the valid prefix: its lines are the file's first bytes.
    valid_end: usize,
    /// The valid prefix's last line has no trailing newline (a write torn
    /// just before it): an append must not follow until one is added.
    unterminated: bool,
    /// Valid-prefix record counts per kind, in first-seen order.
    kinds: Vec<(&'static str, usize)>,
    /// Footer record-count, when a well-formed footer follows the
    /// valid prefix.
    footer: Option<usize>,
    /// First damage: `(record index, kind)`. Record index equals the
    /// valid-prefix length at the point of damage.
    damage: Option<(usize, CorruptKind)>,
    /// Fully valid record lines found *after* the damage — if nonzero,
    /// truncation would discard completed work (corrupt middle).
    valid_after: usize,
    /// Cleanly sealed (the footer verifies).
    sealed: bool,
    /// Footered but absent from the manifest (crash between the
    /// shard seal and the manifest update) — healed by adding its digest.
    needs_manifest_entry: bool,
    /// The manifest's digest disagrees with an otherwise-valid sealed
    /// shard. The append path's ordered seal protocol never leaves this
    /// behind (the footered shard reaches disk *before* the manifest
    /// names it), so the content is not what the manifest committed to —
    /// a wholesale-replaced shard, a restored backup, or a crash in the
    /// middle of an earlier repair. Resume refuses with
    /// [`CorruptKind::DigestMismatch`]; [`repair_journal`] adopts the
    /// shard and recomputes the digest (per-record CRCs are
    /// authoritative).
    digest_mismatch: bool,
    /// Lines whose `CRC LEN payload` frame structure parsed (CRC match or
    /// not). Zero across a contentful directory means the files are not
    /// recognisably v3 at all — e.g. a v2 journal whose manifest first
    /// byte was corrupted — and must not be adopted (and truncated) as a
    /// v3 journal.
    framed_lines: usize,
    /// Whole-file CRC-32.
    crc: u32,
}

impl ShardScan {
    fn empty(exists: bool) -> Self {
        ShardScan {
            exists,
            bytes: 0,
            valid: 0,
            valid_end: 0,
            unterminated: false,
            kinds: Vec::new(),
            footer: None,
            damage: None,
            valid_after: 0,
            sealed: false,
            needs_manifest_entry: false,
            digest_mismatch: false,
            framed_lines: 0,
            crc: 0,
        }
    }

    fn missing() -> Self {
        let mut scan = Self::empty(false);
        scan.damage = Some((0, CorruptKind::MissingShard));
        scan
    }

    fn digest(&self) -> String {
        format!("{:08x}", self.crc)
    }

    fn has_content(&self) -> bool {
        self.valid > 0 || self.valid_after > 0
    }

    /// Dropped lines that held (or were torn from) records: the fully
    /// valid records stranded after the damage point, plus the
    /// damage-point line itself when it failed *record* verification (a
    /// torn or corrupted record slot). Garbage and footer lines beyond
    /// those are dropped bytes, not dropped records —
    /// [`Event::RecordDropped`] is emitted once per slot counted here.
    fn dropped_record_slots(&self) -> usize {
        let torn = matches!(
            self.damage,
            Some((
                _,
                CorruptKind::BadFrame | CorruptKind::BadCrc | CorruptKind::BadRecord
            ))
        );
        self.valid_after + usize::from(torn)
    }
}

/// Counts one record of `kind` into per-kind counts kept in first-seen
/// order.
fn count_kind(kinds: &mut Vec<(&'static str, usize)>, kind: &'static str) {
    match kinds.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, n)) => *n += 1,
        None => kinds.push((kind, 1)),
    }
}

/// Scans one v3 shard line by line: framed lines, optionally terminated
/// by a footer. Lines split at `\n`; a final line without one is still a
/// line, and an empty line is content (damage), not a separator.
fn scan_v3_shard(reader: &mut LineReader) -> std::io::Result<ShardScan> {
    let mut scan = ShardScan::empty(true);
    let mut raw = Vec::new();
    while reader.next_line(&mut raw)? {
        scan.crc = crc32_extend(scan.crc, &raw);
        scan.bytes += raw.len();
        let (body, terminated) = match raw.strip_suffix(b"\n") {
            Some(body) => (body, true),
            None => (raw.as_slice(), false),
        };
        let line = parse_shard_line(body);
        // Only a line that fails to unframe at all is not recognisably
        // v3; a CRC mismatch still means the frame *structure* parsed.
        if !matches!(line, Err(CorruptKind::BadFrame)) {
            scan.framed_lines += 1;
        }
        if scan.damage.is_none() {
            match line {
                Ok(ShardLine::Footer(n)) if scan.footer.is_none() => scan.footer = Some(n),
                Ok(ShardLine::Footer(_)) => {
                    scan.damage = Some((scan.valid, CorruptKind::BadFooter));
                }
                Ok(ShardLine::Record(r)) if scan.footer.is_none() => {
                    scan.valid += 1;
                    scan.valid_end = scan.bytes;
                    scan.unterminated = !terminated;
                    count_kind(&mut scan.kinds, record_kind_name(&r));
                }
                Ok(ShardLine::Record(_)) => {
                    // A record after the footer: trailing garbage at best,
                    // a misplaced seal at worst.
                    scan.damage = Some((scan.valid, CorruptKind::BadFooter));
                    scan.valid_after += 1;
                }
                Err(kind) => {
                    scan.damage = Some((scan.valid, kind));
                }
            }
        } else if matches!(line, Ok(ShardLine::Record(_))) {
            scan.valid_after += 1;
        }
    }
    Ok(scan)
}

/// The full verification scan [`Checkpoint::resume_observed`],
/// [`inspect_journal`], and [`repair_journal`] share.
struct JournalScan {
    /// Records per shard.
    shard_records: usize,
    /// Number of sealed digests the v3 manifest names.
    manifest_sealed: usize,
    /// `Some` when the v3 manifest itself is unreadable (rebuilt from the
    /// shard files when any exist).
    manifest_damage: Option<CorruptKind>,
    manifest_bytes: usize,
    shards: Vec<ShardScan>,
}

impl JournalScan {
    fn first_damage(&self) -> Option<(usize, usize, CorruptKind)> {
        self.shards
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.damage.map(|(r, k)| (i, r, k)))
    }

    /// Errors out for damage self-healing must not touch: a missing
    /// sealed shard, valid records after the damage point, a sealed
    /// shard whose content digest disagrees with the manifest, or a
    /// manifest that is unreadable with no v3-framed shard content to
    /// rebuild it from — a pre-v3 journal with a damaged header (or a
    /// non-journal) must never be adopted, and truncated, as an empty v3
    /// one.
    fn corrupt_error(&self) -> Result<()> {
        if self.manifest_damage.is_some() && self.shards.iter().all(|s| s.framed_lines == 0) {
            return Err(ReduceError::JournalCorrupt {
                shard: 0,
                record: 0,
                kind: CorruptKind::Manifest,
            });
        }
        if let Some(shard) = self.shards.iter().position(|s| s.digest_mismatch) {
            return Err(ReduceError::JournalCorrupt {
                shard,
                record: 0,
                kind: CorruptKind::DigestMismatch,
            });
        }
        if let Some((shard, record, kind)) = self.first_damage() {
            let valid_after = self.shards.get(shard).is_some_and(|s| s.valid_after > 0)
                || self
                    .shards
                    .iter()
                    .skip(shard + 1)
                    .any(ShardScan::has_content);
            if valid_after || kind == CorruptKind::MissingShard {
                return Err(ReduceError::JournalCorrupt {
                    shard,
                    record,
                    kind,
                });
            }
        }
        Ok(())
    }

    fn needs_heal(&self) -> bool {
        self.first_damage().is_some()
            || self.manifest_damage.is_some()
            || self
                .shards
                .iter()
                .any(|s| s.needs_manifest_entry || s.digest_mismatch || s.unterminated)
            || self
                .shards
                .iter()
                .any(|s| !s.sealed && s.valid >= self.shard_records)
    }
}

/// Largest index for which a shard file of `manifest` exists, found by
/// listing the journal's directory — shard numbering can be left gapped
/// by tampering or a restored backup, and a purely sequential probe
/// would stop at the first hole. `None` when no shard file exists (or
/// the directory cannot be read; scanning then covers only the
/// manifest-named range).
fn last_shard_on_disk(manifest: &Path) -> Option<usize> {
    let dir = match manifest.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let stem = manifest.file_stem().map_or_else(
        || "journal".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let prefix = format!("{stem}-");
    let mut last = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(digits) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".jsonl"))
        else {
            continue;
        };
        if digits.len() < 5 || digits.bytes().any(|b| !b.is_ascii_digit()) {
            continue;
        }
        if let Ok(index) = digits.parse::<usize>() {
            last = Some(last.map_or(index, |l: usize| l.max(index)));
        }
    }
    last
}

/// Reads and scans every shard file of the journal at `path`: the
/// manifest-named range plus anything numbered beyond it on disk, with
/// [`ShardScan::missing`] placeholders for holes — so contentful files
/// past a numbering gap surface as orphans (refused by resume, removed
/// by explicit repair) instead of being silently ignored and eventually
/// overwritten by the writer. Trailing placeholders and empty files
/// beyond the named range are harmless and dropped from the scan.
fn scan_shard_files(path: &Path, named: usize) -> Result<Vec<ShardScan>> {
    let last_on_disk = last_shard_on_disk(path);
    let mut shards = Vec::new();
    let mut index = 0;
    while index < named || last_on_disk.is_some_and(|last| index <= last) {
        let shard = shard_path(path, index);
        let scanned =
            LineReader::open(&shard, u64::MAX).and_then(|mut reader| scan_v3_shard(&mut reader));
        match scanned {
            Ok(scan) => shards.push(scan),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                shards.push(ShardScan::missing());
            }
            Err(e) => {
                return Err(ReduceError::InvalidConfig {
                    what: format!("cannot read journal shard {}: {e}", shard.display()),
                })
            }
        }
        index += 1;
    }
    while shards.len() > named && shards.last().is_some_and(|s| !s.exists || s.bytes == 0) {
        shards.pop();
    }
    Ok(shards)
}

/// After per-shard classification: anything following the first unsealed
/// shard is orphaned — it must not be adopted as sealed, and content
/// there makes the unsealed shard a corrupt middle.
fn mark_orphans(shards: &mut [ShardScan]) {
    let Some(t) = shards.iter().position(|s| !s.sealed) else {
        return;
    };
    // `t` comes from `position`, so the split never panics.
    let Some((trunc, rest)) = shards.split_at_mut(t).1.split_first_mut() else {
        return;
    };
    if rest.iter().any(ShardScan::has_content) && trunc.damage.is_none() {
        trunc.damage = Some((trunc.valid, CorruptKind::MissingShard));
    }
    for s in rest {
        s.sealed = false;
        s.needs_manifest_entry = false;
    }
}

/// The format version a pre-v3 journal declares: `Some(1 | 2)` when the
/// manifest's first line is a bare `reduce-journal` JSON header of a
/// retired layout.
fn pre_v3_version(manifest_bytes: &[u8]) -> Option<u64> {
    let first = manifest_bytes.split(|&b| b == b'\n').next()?;
    let value = parse(std::str::from_utf8(first).ok()?).ok()?;
    if value.field("journal").and_then(JsonValue::as_str) != Some("reduce-journal") {
        return None;
    }
    value
        .field("version")
        .and_then(JsonValue::as_u64)
        .filter(|v| matches!(v, 1 | 2))
}

/// Scans the journal at `path`. `Ok(None)` means the journal file does
/// not exist (an empty journal).
///
/// # Errors
///
/// [`ReduceError::InvalidConfig`] for filesystem read failures and for a
/// version-1/2 journal, refused before anything else is read.
fn scan_journal(path: &Path) -> Result<Option<JournalScan>> {
    let manifest_bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(ReduceError::InvalidConfig {
                what: format!("cannot read journal {}: {e}", path.display()),
            })
        }
    };
    if let Some(version) = pre_v3_version(&manifest_bytes) {
        return Err(ReduceError::InvalidConfig {
            what: format!(
                "journal {} is format version {version}, which is no longer supported \
                 (only version 3 is read); delete it and rerun",
                path.display()
            ),
        });
    }
    // A framed manifest line.
    let manifest = std::str::from_utf8(&manifest_bytes).ok().and_then(|text| {
        let (first, rest) = text.split_once('\n').unwrap_or((text, ""));
        if !rest.trim().is_empty() {
            return None; // a manifest is exactly one line
        }
        parse_frame(first).ok().and_then(parse_manifest_v3)
    });
    let (mut shard_records, digests, manifest_damage) = match manifest {
        Some((shard_records, digests)) => (shard_records, digests, None),
        None => (0, Vec::new(), Some(CorruptKind::Manifest)),
    };
    let mut shards = scan_shard_files(path, digests.len())?;
    for (i, shard) in shards.iter_mut().enumerate() {
        if !shard.exists || shard.damage.is_some() {
            continue;
        }
        match shard.footer {
            Some(n) if n == shard.valid => {
                shard.sealed = true;
                match digests.get(i) {
                    Some(named) if *named == shard.digest() => {}
                    Some(_) => shard.digest_mismatch = true,
                    None => shard.needs_manifest_entry = true,
                }
            }
            Some(_) => shard.damage = Some((shard.valid, CorruptKind::BadFooter)),
            None if i < digests.len() => {
                shard.damage = Some((shard.valid, CorruptKind::BadFooter));
            }
            None => {} // the active shard
        }
    }
    mark_orphans(&mut shards);
    if shard_records == 0 {
        // Manifest being rebuilt: recover the shard size from a footer.
        shard_records = shards
            .iter()
            .find_map(|s| s.footer.filter(|&n| n > 0))
            .unwrap_or(DEFAULT_SHARD_RECORDS);
    }
    Ok(Some(JournalScan {
        shard_records,
        manifest_sealed: digests.len(),
        manifest_damage,
        manifest_bytes: manifest_bytes.len(),
        shards,
    }))
}

/// The healed layout [`heal_journal`] hands back to resume.
struct HealedLayout {
    store: Store,
    dropped_records: usize,
    dropped_bytes: usize,
}

/// Truncates the journal at the first damage point (rewriting files as
/// needed), brings the manifest back in sync, and reports what happened
/// through `observer`. Callers enforcing the tail-only rule run
/// [`JournalScan::corrupt_error`] first; [`repair_journal`] calls this
/// unconditionally.
fn heal_journal(path: &Path, scan: JournalScan, observer: &dyn Observer) -> Result<HealedLayout> {
    let JournalScan {
        shard_records,
        manifest_sealed,
        manifest_damage,
        shards,
        ..
    } = scan;
    let shard_count = shards.len();
    let damage_shard = shards.iter().position(|s| s.damage.is_some());
    let mut store = Store::new(shard_records);
    store.manifest_written = true;
    let mut dropped_records = 0usize;
    let mut dropped_bytes = 0usize;
    let mut manifest_dirty = manifest_damage.is_some();
    for (i, shard) in shards.into_iter().enumerate() {
        let file = shard_path(path, i);
        if damage_shard == Some(i) {
            // Truncate this shard back to its valid record prefix, which
            // is the file's first `valid_end` bytes.
            let bytes = match shard.valid_end {
                0 => Vec::new(), // nothing to keep (the file may be gone)
                _ => std::fs::read(&file).map_err(|e| ReduceError::InvalidConfig {
                    what: format!("cannot read journal shard {}: {e}", file.display()),
                })?,
            };
            let prefix = bytes.get(..shard.valid_end).unwrap_or_default();
            let mut contents = String::from_utf8_lossy(prefix).into_owned();
            if shard.unterminated {
                contents.push('\n');
            }
            let kept_here = shard.valid;
            let resealable = kept_here == shard_records;
            if resealable {
                contents.push_str(&render_footer(kept_here));
            }
            write_atomic(&file, &contents)?;
            store.records += kept_here;
            if resealable {
                store
                    .sealed
                    .push(format!("{:08x}", crc32(contents.as_bytes())));
            } else {
                store.active_records = kept_here;
                store.extend_active(&contents);
            }
            manifest_dirty = true;
            let dropped = shard.bytes.saturating_sub(contents.len());
            observer.on_event(&Event::ShardTruncated {
                shard: i,
                kept: kept_here,
                dropped_bytes: dropped,
            });
            for record in kept_here..kept_here + shard.dropped_record_slots() {
                observer.on_event(&Event::RecordDropped { shard: i, record });
            }
            dropped_records += shard.valid_after;
            dropped_bytes += dropped;
        } else if damage_shard.is_some_and(|d| i > d) {
            // Everything after the truncation point is discarded. (Valid
            // content here only survives to this point under
            // [`repair_journal`] — resume's corrupt check refuses it.)
            dropped_records += shard.valid + shard.valid_after;
            dropped_bytes += shard.bytes;
            manifest_dirty = true;
            if shard.exists {
                observer.on_event(&Event::ShardTruncated {
                    shard: i,
                    kept: 0,
                    dropped_bytes: shard.bytes,
                });
                for record in 0..shard.valid + shard.dropped_record_slots() {
                    observer.on_event(&Event::RecordDropped { shard: i, record });
                }
                let _ = std::fs::remove_file(&file);
            }
        } else if shard.sealed {
            store.sealed.push(shard.digest());
            store.records += shard.valid;
            if shard.needs_manifest_entry || shard.digest_mismatch {
                manifest_dirty = true;
            }
        } else {
            // The clean active shard. A final line torn just before its
            // newline is complete; terminate it so the next append starts
            // a line of its own. A full shard lost its footer to a crash
            // between the last record and the seal: seal it now.
            store.records += shard.valid;
            store.active_records = shard.valid;
            store.active_bytes = shard.bytes as u64;
            store.active_crc = shard.crc;
            if shard.unterminated {
                append_durable(&file, "\n")?;
                store.extend_active("\n");
            }
            if shard.valid >= shard_records {
                store.seal_active(&file)?;
                manifest_dirty = true;
            }
        }
    }
    // Leftovers beyond the scanned range: the scan covered every
    // contentful shard on disk (contentful strays either entered the
    // shard list or refused resume upstream), so anything left here is
    // an empty file the trailing trim dropped — safe to clear.
    let mut stray = shard_count;
    while shard_path(path, stray).exists() {
        let _ = std::fs::remove_file(shard_path(path, stray));
        stray += 1;
    }
    if manifest_dirty || store.sealed.len() != manifest_sealed {
        store.write_manifest(path)?;
    }
    Ok(HealedLayout {
        store,
        dropped_records,
        dropped_bytes,
    })
}

fn record_kind_name(record: &JournalRecord) -> &'static str {
    match record {
        JournalRecord::Point { .. } => "point",
        JournalRecord::PointFailed { .. } => "point_failed",
        JournalRecord::FleetBatch { .. } => "fleet_batch",
    }
}

/// Verdict of [`inspect_journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalStatus {
    /// Every frame, footer, and digest verifies; resume replays every
    /// record.
    Clean,
    /// Damage is confined to the journal's tail (or the manifest lags a
    /// sealed shard); resume heals it automatically, recomputing at most
    /// the dropped tail records.
    Healable,
    /// Damage sits in the middle: resume refuses with
    /// [`ReduceError::JournalCorrupt`]; [`repair_journal`] (or
    /// `journal-tool repair`) truncates explicitly.
    Corrupt,
}

impl JournalStatus {
    /// Stable lowercase name (the `journal-tool verify` output).
    pub fn name(self) -> &'static str {
        match self {
            JournalStatus::Clean => "clean",
            JournalStatus::Healable => "healable",
            JournalStatus::Corrupt => "corrupt",
        }
    }
}

/// Read-only integrity summary of a journal, produced by
/// [`inspect_journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHealth {
    /// Journal format version: always 3, the only format read (kept so
    /// `journal-tool` output stays unchanged).
    pub version: u8,
    /// Records per shard segment.
    pub shard_records: usize,
    /// Cleanly sealed shard files.
    pub sealed_shards: usize,
    /// Records in the replayable valid prefix.
    pub records: usize,
    /// Valid-prefix record counts per kind, in first-seen order.
    pub kinds: Vec<(&'static str, usize)>,
    /// Total bytes across the manifest and every shard file.
    pub total_bytes: usize,
    /// Overall verdict.
    pub status: JournalStatus,
    /// Human-readable findings (empty when clean).
    pub notes: Vec<String>,
}

/// Verifies the journal at `path` without modifying anything — the
/// engine behind `journal-tool verify` and `stat`. A missing journal
/// file reports as an empty, clean journal.
///
/// # Errors
///
/// [`ReduceError::InvalidConfig`] for filesystem read failures or a
/// version-1/2 journal; corruption is reported in the returned
/// [`JournalHealth`], not as an error.
pub fn inspect_journal(path: &Path) -> Result<JournalHealth> {
    let Some(scan) = scan_journal(path)? else {
        return Ok(JournalHealth {
            version: 3,
            shard_records: DEFAULT_SHARD_RECORDS,
            sealed_shards: 0,
            records: 0,
            kinds: Vec::new(),
            total_bytes: 0,
            status: JournalStatus::Clean,
            notes: vec!["journal file does not exist (empty journal)".to_string()],
        });
    };
    let mut notes = Vec::new();
    if scan.manifest_damage.is_some() {
        if scan.shards.iter().any(|s| s.framed_lines > 0) {
            notes.push("manifest unreadable (rebuilt from shard files on heal)".to_string());
        } else {
            notes.push(
                "manifest unreadable and no shard content is v3-framed — not adoptable as a \
                 v3 journal; repair resets it"
                    .to_string(),
            );
        }
    }
    let damage_shard = scan.first_damage().map(|(i, _, _)| i);
    let mut records = 0usize;
    let mut kinds: Vec<(&'static str, usize)> = Vec::new();
    for (i, shard) in scan.shards.iter().enumerate() {
        if damage_shard.is_some_and(|d| i > d) {
            continue; // beyond the truncation point — not replayable
        }
        records += shard.valid;
        for &(name, n) in &shard.kinds {
            match kinds.iter_mut().find(|(k, _)| *k == name) {
                Some((_, total)) => *total += n,
                None => kinds.push((name, n)),
            }
        }
        if let Some((record, kind)) = shard.damage {
            notes.push(format!("shard {i} record {record}: {kind}"));
        }
        if shard.needs_manifest_entry {
            notes.push(format!(
                "shard {i} sealed but not yet named in the manifest"
            ));
        }
        if shard.digest_mismatch {
            notes.push(format!(
                "shard {i}: content digest disagrees with the manifest"
            ));
        }
    }
    let status = if scan.corrupt_error().is_err() {
        JournalStatus::Corrupt
    } else if scan.needs_heal() {
        JournalStatus::Healable
    } else {
        JournalStatus::Clean
    };
    Ok(JournalHealth {
        version: 3,
        shard_records: scan.shard_records,
        sealed_shards: scan.shards.iter().filter(|s| s.sealed).count(),
        records,
        kinds,
        total_bytes: scan.manifest_bytes + scan.shards.iter().map(|s| s.bytes).sum::<usize>(),
        status,
        notes,
    })
}

/// Outcome of [`repair_journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairSummary {
    /// Records the repaired journal replays (the kept valid prefix).
    pub kept: usize,
    /// Fully valid records discarded because they sat after the damage
    /// point — the work an operator explicitly agreed to redo.
    pub dropped_records: usize,
    /// Bytes of damaged or discarded journal content removed.
    pub dropped_bytes: usize,
    /// Whether the journal was already clean (repair changed nothing).
    pub was_clean: bool,
}

/// Explicitly truncates the journal at `path` back to its last valid
/// record before the first damage point, discarding everything after —
/// including valid records a corrupt middle strands (which is exactly why
/// resume refuses to do this on its own). Healing is reported through
/// `observer`; a clean journal is left untouched. A corrupt manifest with
/// no shard content resets to an empty journal.
///
/// # Errors
///
/// [`ReduceError::InvalidConfig`] for filesystem failures or a
/// version-1/2 journal, which is left untouched.
pub fn repair_journal(path: &Path, observer: &dyn Observer) -> Result<RepairSummary> {
    let Some(scan) = scan_journal(path)? else {
        return Ok(RepairSummary {
            kept: 0,
            dropped_records: 0,
            dropped_bytes: 0,
            was_clean: true,
        });
    };
    if scan.manifest_damage.is_some() && !scan.shards.iter().any(|s| s.exists) {
        let dropped = scan.manifest_bytes;
        write_atomic(path, &render_manifest_v3(scan.shard_records, &[]))?;
        observer.on_event(&Event::ShardTruncated {
            shard: 0,
            kept: 0,
            dropped_bytes: dropped,
        });
        return Ok(RepairSummary {
            kept: 0,
            dropped_records: 0,
            dropped_bytes: dropped,
            was_clean: false,
        });
    }
    let was_clean = !scan.needs_heal();
    let healed = heal_journal(path, scan, observer)?;
    Ok(RepairSummary {
        kept: healed.store.records,
        dropped_records: healed.dropped_records,
        dropped_bytes: healed.dropped_bytes,
        was_clean,
    })
}

fn push_workspace(out: &mut String, ws: &WorkspaceStats) {
    out.push_str(&format!(
        "{{\"hits\":{},\"misses\":{},\"bytes_allocated\":{}}}",
        ws.hits, ws.misses, ws.bytes_allocated
    ));
}

fn push_events(out: &mut String, events: &[Event]) {
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let line = render_event(e, false);
        out.push_str(line.trim_end());
    }
    out.push(']');
}

fn push_point(out: &mut String, p: &ResiliencePoint) {
    out.push_str(&format!("{{\"rate_index\":{},\"rate\":", p.rate_index));
    push_json_f64(out, p.rate);
    out.push_str(&format!(
        ",\"repeat\":{},\"pre_retrain_accuracy\":",
        p.repeat
    ));
    push_json_f32(out, p.pre_retrain_accuracy);
    out.push_str(",\"accuracy_after_epoch\":[");
    for (i, &a) in p.accuracy_after_epoch.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_f32(out, a);
    }
    out.push_str("],\"epochs_to_constraint\":");
    match p.epochs_to_constraint {
        Some(e) => out.push_str(&format!("{e}")),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn push_chip_outcome(out: &mut String, c: &ChipOutcome) {
    out.push_str(&format!("{{\"chip_id\":{},\"fault_rate\":", c.chip_id));
    push_json_f64(out, c.fault_rate);
    out.push_str(&format!(
        ",\"epochs_budgeted\":{},\"epochs_run\":{},\"pre_retrain_accuracy\":",
        c.epochs_budgeted, c.epochs_run
    ));
    push_json_f32(out, c.pre_retrain_accuracy);
    out.push_str(",\"final_accuracy\":");
    push_json_f32(out, c.final_accuracy);
    out.push_str(&format!(
        ",\"meets_constraint\":{},\"pruned_fraction\":",
        c.meets_constraint
    ));
    push_json_f32(out, c.pruned_fraction);
    out.push_str(&format!(
        ",\"clamped\":{},\"warm_started\":{}}}",
        c.clamped, c.warm_started
    ));
}

fn push_sealed_chip(out: &mut String, sealed: &SealedChip) {
    match sealed {
        SealedChip::Retrained(outcome) => {
            out.push_str("{\"status\":\"ok\",\"outcome\":");
            push_chip_outcome(out, outcome);
            out.push('}');
        }
        SealedChip::Quarantined(q) => {
            out.push_str(&format!(
                "{{\"status\":\"quarantined\",\"chip_id\":{},\"fault_rate\":",
                q.chip_id
            ));
            push_json_f64(out, q.fault_rate);
            out.push_str(&format!(",\"attempts\":{},\"error\":", q.attempts));
            push_json_string(out, &q.error);
            out.push('}');
        }
    }
}

fn render_record(record: &JournalRecord) -> String {
    let mut s = String::with_capacity(256);
    match record {
        JournalRecord::Point {
            job,
            point,
            workspace,
            events,
        } => {
            s.push_str(&format!("{{\"kind\":\"point\",\"job\":{job},\"point\":"));
            push_point(&mut s, point);
            s.push_str(",\"workspace\":");
            push_workspace(&mut s, workspace);
            s.push_str(",\"events\":");
            push_events(&mut s, events);
            s.push('}');
        }
        JournalRecord::PointFailed {
            job,
            rate_index,
            rate,
            repeat,
            attempts,
            error,
            events,
        } => {
            s.push_str(&format!(
                "{{\"kind\":\"point_failed\",\"job\":{job},\"rate_index\":{rate_index},\"rate\":"
            ));
            push_json_f64(&mut s, *rate);
            s.push_str(&format!(
                ",\"repeat\":{repeat},\"attempts\":{attempts},\"error\":"
            ));
            push_json_string(&mut s, error);
            s.push_str(",\"events\":");
            push_events(&mut s, events);
            s.push('}');
        }
        JournalRecord::FleetBatch {
            policy,
            window,
            budget,
            chunk,
            clusters,
            chips,
            workspace,
            events,
        } => {
            s.push_str("{\"kind\":\"fleet_batch\",\"policy\":");
            push_json_string(&mut s, policy);
            s.push_str(&format!(
                ",\"window\":{window},\"budget\":{budget},\"chunk\":{chunk},\"clusters\":["
            ));
            for (i, cluster) in clusters.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"representative\":{},\"members\":[",
                    cluster.representative
                ));
                for (j, member) in cluster.members.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("{member}"));
                }
                s.push_str("]}");
            }
            s.push_str("],\"chips\":[");
            for (i, sealed) in chips.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_sealed_chip(&mut s, sealed);
            }
            s.push_str("],\"workspace\":");
            push_workspace(&mut s, workspace);
            s.push_str(",\"events\":");
            push_events(&mut s, events);
            s.push('}');
        }
    }
    s.push('\n');
    s
}

/// Decodes one record from its parsed JSON payload.
fn record_from_value(value: &JsonValue) -> Result<JournalRecord> {
    let bad = |what: &str| ReduceError::InvalidConfig {
        what: format!("malformed journal record: {what}"),
    };
    let u64_of = |v: &JsonValue, name: &'static str| -> Result<u64> {
        v.field(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| bad(name))
    };
    let usize_of = |v: &JsonValue, name: &'static str| -> Result<usize> {
        v.field(name)
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| bad(name))
    };
    let f64_of = |v: &JsonValue, name: &'static str| -> Result<f64> {
        v.field(name)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| bad(name))
    };
    let f32_of = |v: &JsonValue, name: &'static str| -> Result<f32> {
        v.field(name)
            .and_then(JsonValue::as_f32)
            .ok_or_else(|| bad(name))
    };
    let str_of = |v: &JsonValue, name: &'static str| -> Result<String> {
        v.field(name)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad(name))
    };
    let bool_of = |v: &JsonValue, name: &'static str| -> Result<bool> {
        v.field(name)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| bad(name))
    };
    let attempts_of = |v: &JsonValue| -> Result<u32> {
        u64_of(v, "attempts")
            .and_then(|n| u32::try_from(n).map_err(|_| bad("attempts exceeds u32")))
    };
    let events_of = |v: &JsonValue| -> Result<Vec<Event>> {
        match v.field("events") {
            Some(JsonValue::Arr(items)) => items.iter().map(parse_event).collect(),
            _ => Err(bad("events")),
        }
    };
    let workspace_of = |v: &JsonValue| -> Result<WorkspaceStats> {
        let ws = v.field("workspace").ok_or_else(|| bad("workspace"))?;
        Ok(WorkspaceStats {
            hits: u64_of(ws, "hits")?,
            misses: u64_of(ws, "misses")?,
            bytes_allocated: u64_of(ws, "bytes_allocated")?,
        })
    };
    let outcome_of = |c: &JsonValue| -> Result<ChipOutcome> {
        Ok(ChipOutcome {
            chip_id: usize_of(c, "chip_id")?,
            fault_rate: f64_of(c, "fault_rate")?,
            epochs_budgeted: usize_of(c, "epochs_budgeted")?,
            epochs_run: usize_of(c, "epochs_run")?,
            pre_retrain_accuracy: f32_of(c, "pre_retrain_accuracy")?,
            final_accuracy: f32_of(c, "final_accuracy")?,
            meets_constraint: bool_of(c, "meets_constraint")?,
            pruned_fraction: f32_of(c, "pruned_fraction")?,
            clamped: bool_of(c, "clamped")?,
            warm_started: bool_of(c, "warm_started")?,
        })
    };
    match value.field("kind").and_then(JsonValue::as_str) {
        Some("point") => {
            let p = value.field("point").ok_or_else(|| bad("point"))?;
            let accuracy_after_epoch = match p.field("accuracy_after_epoch") {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(|a| a.as_f32().ok_or_else(|| bad("accuracy_after_epoch")))
                    .collect::<Result<Vec<f32>>>()?,
                _ => return Err(bad("accuracy_after_epoch")),
            };
            let epochs_to_constraint = match p.field("epochs_to_constraint") {
                Some(v) if v.is_null() => None,
                Some(v) => Some(v.as_usize().ok_or_else(|| bad("epochs_to_constraint"))?),
                None => return Err(bad("epochs_to_constraint")),
            };
            Ok(JournalRecord::Point {
                job: u64_of(value, "job")?,
                point: ResiliencePoint {
                    rate_index: usize_of(p, "rate_index")?,
                    rate: f64_of(p, "rate")?,
                    repeat: usize_of(p, "repeat")?,
                    pre_retrain_accuracy: f32_of(p, "pre_retrain_accuracy")?,
                    accuracy_after_epoch,
                    epochs_to_constraint,
                },
                workspace: workspace_of(value)?,
                events: events_of(value)?,
            })
        }
        Some("point_failed") => Ok(JournalRecord::PointFailed {
            job: u64_of(value, "job")?,
            rate_index: usize_of(value, "rate_index")?,
            rate: f64_of(value, "rate")?,
            repeat: usize_of(value, "repeat")?,
            attempts: attempts_of(value)?,
            error: str_of(value, "error")?,
            events: events_of(value)?,
        }),
        Some("fleet_batch") => {
            let chips = match value.field("chips") {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(
                        |entry| match entry.field("status").and_then(JsonValue::as_str) {
                            Some("ok") => {
                                let c = entry.field("outcome").ok_or_else(|| bad("outcome"))?;
                                Ok(SealedChip::Retrained(outcome_of(c)?))
                            }
                            Some("quarantined") => Ok(SealedChip::Quarantined(QuarantinedChip {
                                chip_id: usize_of(entry, "chip_id")?,
                                fault_rate: f64_of(entry, "fault_rate")?,
                                attempts: attempts_of(entry)?,
                                error: str_of(entry, "error")?,
                            })),
                            _ => Err(bad("chip status")),
                        },
                    )
                    .collect::<Result<Vec<SealedChip>>>()?,
                _ => return Err(bad("chips")),
            };
            let clusters = match value.field("clusters") {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(|entry| {
                        let members = match entry.field("members") {
                            Some(JsonValue::Arr(ids)) => ids
                                .iter()
                                .map(|id| id.as_usize().ok_or_else(|| bad("cluster member")))
                                .collect::<Result<Vec<usize>>>()?,
                            _ => return Err(bad("cluster members")),
                        };
                        Ok(Cluster {
                            representative: usize_of(entry, "representative")?,
                            members,
                        })
                    })
                    .collect::<Result<Vec<Cluster>>>()?,
                _ => return Err(bad("clusters")),
            };
            Ok(JournalRecord::FleetBatch {
                policy: str_of(value, "policy")?,
                window: usize_of(value, "window")?,
                budget: usize_of(value, "budget")?,
                chunk: usize_of(value, "chunk")?,
                clusters,
                chips,
                workspace: workspace_of(value)?,
                events: events_of(value)?,
            })
        }
        Some(other) => Err(bad(&format!("unknown kind {other:?}"))),
        None => Err(bad("kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EpochScope, Stage};

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("reduce_journal_{name}_{}", std::process::id()))
            .join("journal.jsonl")
    }

    fn point_record() -> JournalRecord {
        JournalRecord::Point {
            job: 3,
            point: ResiliencePoint {
                rate_index: 1,
                rate: 0.15,
                repeat: 0,
                pre_retrain_accuracy: 0.625,
                accuracy_after_epoch: vec![0.75, 0.875],
                epochs_to_constraint: Some(2),
            },
            workspace: WorkspaceStats {
                hits: 10,
                misses: 2,
                bytes_allocated: 4096,
            },
            events: vec![
                Event::EpochCompleted {
                    scope: EpochScope::Point {
                        rate_index: 1,
                        repeat: 0,
                    },
                    epoch: 1,
                    accuracy: 0.75,
                },
                Event::PointFinished {
                    rate_index: 1,
                    rate: 0.15,
                    repeat: 0,
                    epochs_to_constraint: Some(2),
                    pre_retrain_accuracy: 0.625,
                    final_accuracy: 0.875,
                },
            ],
        }
    }

    fn sample_outcome(chip_id: usize) -> ChipOutcome {
        ChipOutcome {
            chip_id,
            fault_rate: 0.1,
            epochs_budgeted: 2,
            epochs_run: 2,
            pre_retrain_accuracy: 0.5,
            final_accuracy: 0.9,
            meets_constraint: true,
            pruned_fraction: 0.25,
            clamped: false,
            warm_started: false,
        }
    }

    fn batch_record() -> JournalRecord {
        JournalRecord::FleetBatch {
            policy: "Reduce (max)".to_string(),
            window: 1,
            budget: 3,
            chunk: 0,
            clusters: vec![Cluster {
                representative: 7,
                members: vec![8],
            }],
            chips: vec![
                SealedChip::Retrained(sample_outcome(7)),
                SealedChip::Quarantined(QuarantinedChip {
                    chip_id: 8,
                    fault_rate: 0.15,
                    attempts: 2,
                    error: "training diverged: accuracy after epoch 1 is NaN".to_string(),
                }),
            ],
            workspace: WorkspaceStats {
                hits: 7,
                misses: 1,
                bytes_allocated: 1024,
            },
            events: vec![
                Event::ClusterFormed {
                    representative: 7,
                    size: 2,
                },
                Event::WarmStartHit {
                    chip_id: 8,
                    representative: 7,
                },
                Event::ChipRetrained {
                    chip_id: 7,
                    fault_rate: 0.1,
                    epochs_budgeted: 3,
                    epochs_run: 3,
                    final_accuracy: 0.9,
                    satisfied: true,
                },
            ],
        }
    }

    #[test]
    fn append_resume_round_trips_every_record_kind() {
        let path = scratch("round_trip");
        let journal = Checkpoint::create(&path);
        journal.append(point_record()).expect("append");
        journal
            .append(JournalRecord::PointFailed {
                job: 5,
                rate_index: 2,
                rate: 0.3,
                repeat: 1,
                attempts: 2,
                error: "training diverged: accuracy after epoch 1 is NaN".to_string(),
                events: vec![Event::RetryScheduled {
                    stage: Stage::Characterize,
                    job: 5,
                    attempt: 1,
                    seed: 0x9E37_79B9_7F4A_7C15,
                }],
            })
            .expect("append");
        journal.append(batch_record()).expect("append");
        let original = journal.records().expect("records");
        let resumed = Checkpoint::resume(&path).expect("parseable journal");
        assert_eq!(resumed.records().expect("records"), original);
        // Appends after resume extend the same shard layout.
        resumed
            .append(JournalRecord::PointFailed {
                job: 9,
                rate_index: 0,
                rate: 0.0,
                repeat: 4,
                attempts: 1,
                error: "x".to_string(),
                events: vec![],
            })
            .expect("append after resume");
        let again = Checkpoint::resume(&path).expect("parseable journal");
        assert_eq!(again.records().expect("records").len(), original.len() + 1);
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn resume_of_a_missing_journal_is_empty() {
        let path = scratch("missing");
        let journal = Checkpoint::resume(&path).expect("missing file is fine");
        assert!(journal.records().expect("records").is_empty());
        assert_eq!(journal.path(), path.as_path());
    }

    #[test]
    fn malformed_journals_are_typed_errors() {
        let path = scratch("malformed");
        let dir = path.parent().expect("has parent");
        std::fs::create_dir_all(dir).expect("temp dir");
        // A file that is neither a JSON header nor a framed manifest.
        std::fs::write(&path, "not a journal\n").expect("temp write");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt { kind, .. }) => {
                assert_eq!(kind, CorruptKind::Manifest);
            }
            other => panic!("bad header must be JournalCorrupt, got {other:?}"),
        }
        // An unknown record kind in the MIDDLE (a valid record follows it)
        // cannot be healed by tail truncation: typed corruption error.
        let valid = frame_line(render_record(&small_record(0)).trim_end());
        let mystery = frame_line("{\"kind\":\"mystery\",\"job\":0}");
        std::fs::write(&path, render_manifest_v3(8, &[])).expect("temp write");
        let shard = shard_path(&path, 0);
        std::fs::write(&shard, format!("{mystery}{valid}")).expect("temp write");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt {
                shard,
                record,
                kind,
            }) => {
                assert_eq!((shard, record, kind), (0, 0, CorruptKind::BadRecord));
            }
            other => panic!("corrupt middle must be JournalCorrupt, got {other:?}"),
        }
        // The same damage at the TAIL self-heals: resume keeps the valid
        // prefix and truncates the garbage away.
        std::fs::write(&shard, format!("{valid}{mystery}")).expect("temp write");
        let journal = Checkpoint::resume(&path).expect("tail damage heals");
        assert_eq!(journal.records().expect("records").len(), 1);
        let text = std::fs::read_to_string(&shard).expect("shard exists");
        assert!(!text.contains("mystery"), "damaged tail was truncated away");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn journal_keys_identify_records() {
        let r = point_record();
        assert_eq!(r.grid_key(), Some((1, 0)));
        assert_eq!(r.batch_key(), None);
        let batch = batch_record();
        assert_eq!(batch.batch_key(), Some(("Reduce (max)", 1, 3, 0)));
        assert_eq!(batch.grid_key(), None);
    }

    /// A grid-failure record whose framed line has the same length for
    /// every `i < 9000`.
    fn fixed_size_record(i: u64) -> JournalRecord {
        JournalRecord::PointFailed {
            job: 1000 + i,
            rate_index: 0,
            rate: 0.1,
            repeat: 0,
            attempts: 1,
            error: "synthetic failure for shard accounting".to_string(),
            events: vec![],
        }
    }

    #[test]
    fn append_bytes_do_not_grow_with_the_journal() {
        let path = scratch("append_bytes");
        cleanup(&path);
        let journal = Checkpoint::create(&path).with_shard_records(4);
        let line = frame_line(render_record(&fixed_size_record(0)).trim_end()).len() as u64;
        let footer = render_footer(4).len() as u64;
        let mut written = 0;
        for i in 0..64u64 {
            journal.append(fixed_size_record(i)).expect("append");
            let io = journal.io_stats().expect("stats");
            let bytes = io.bytes_written - written;
            written = io.bytes_written;
            let manifest = std::fs::metadata(&path).expect("manifest exists").len();
            // The N-th append writes one framed record whatever N is;
            // the first adds the manifest, a seal the footer and the
            // rewritten manifest.
            let expected = match i {
                0 => line + manifest,
                _ if i % 4 == 3 => line + footer + manifest,
                _ => line,
            };
            assert_eq!(bytes, expected, "append {i}");
        }
        let io = journal.io_stats().expect("stats");
        assert_eq!(io.appends, 64);
        let manifest = std::fs::metadata(&path).expect("manifest exists").len();
        assert_eq!(io.max_append_bytes, line + footer + manifest);
        // 64 records over 4-record shards => 16 sealed segments on disk,
        // each holding its records plus the seal footer.
        for shard in 0..16 {
            let text = std::fs::read_to_string(shard_path(&path, shard)).expect("shard exists");
            assert_eq!(text.lines().count(), 5, "shard {shard}: 4 records + footer");
        }
        assert!(!shard_path(&path, 16).exists(), "no stray 17th shard");
        // Resume stitches every shard back together.
        let resumed = Checkpoint::resume(&path).expect("parseable journal");
        assert_eq!(
            resumed.records().expect("records"),
            (0..64).map(fixed_size_record).collect::<Vec<_>>()
        );
        assert_eq!(resumed.record_count().expect("count"), 64);
        cleanup(&path);

        // At the default shard size, the bytes written are the journal's
        // on-disk size plus the few manifest rewrites.
        let journal = Checkpoint::create(&path);
        for i in 0..600 {
            journal.append(fixed_size_record(i)).expect("append");
        }
        let written = journal.io_stats().expect("stats").bytes_written;
        let on_disk = inspect_journal(&path).expect("inspect").total_bytes as u64;
        assert!(
            written >= on_disk && written * 10 <= on_disk * 11,
            "{written} bytes written for a {on_disk}-byte journal"
        );
        cleanup(&path);
    }

    #[test]
    fn cursor_sees_the_journal_as_it_was_when_opened() {
        let path = scratch("cursor_view");
        cleanup(&path);
        let journal = Checkpoint::create(&path).with_shard_records(2);
        assert!(journal
            .cursor()
            .expect("cursor")
            .next_record()
            .expect("read")
            .is_none());
        for i in 0..3 {
            journal.append(small_record(i)).expect("append");
        }
        let mut cursor = journal.cursor().expect("cursor");
        // Appends after the cursor opened — filling and sealing its
        // partial shard — stay out of its view.
        for i in 3..6 {
            journal.append(small_record(i)).expect("append");
        }
        let mut seen = Vec::new();
        while let Some(record) = cursor.next_record().expect("read") {
            seen.push(record);
        }
        assert_eq!(seen, (0..3).map(small_record).collect::<Vec<_>>());
        assert_eq!(journal.records().expect("records").len(), 6);

        // `take_run` collects, skips and stops; the stopping record stays
        // for the next run.
        let job = |r: &JournalRecord| match r {
            JournalRecord::PointFailed { job, .. } => *job,
            _ => u64::MAX,
        };
        let mut cursor = journal.cursor().expect("cursor");
        let first = cursor
            .take_run(|r| match job(r) {
                1 => Step::Skip,
                j if j < 3 => Step::Take(j),
                _ => Step::Stop,
            })
            .expect("read");
        assert_eq!(first.keys().copied().collect::<Vec<_>>(), [0, 2]);
        let rest = cursor.take_run(|r| Step::Take(job(r))).expect("read");
        assert_eq!(rest.keys().copied().collect::<Vec<_>>(), [3, 4, 5]);
        cleanup(&path);
    }

    #[test]
    fn a_failed_append_refuses_later_appends_until_resume() {
        use crate::artifact::{install_io_policy, FaultKind, FaultyIo, IoOp, IoPolicy};
        use std::sync::Arc;

        let path = scratch("failed_append");
        cleanup(&path);
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("temp dir");
        let journal = Checkpoint::create(&path).with_shard_records(8);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        let scope = path.parent().expect("has parent").to_path_buf();
        // Op 0 of the next append is its `append-write`: torn half-way.
        let injected = Arc::new(FaultyIo::armed(&scope, 1, 0, FaultKind::Torn));
        {
            let _guard = install_io_policy(IoPolicy::Faulty(injected.clone()));
            assert!(journal.append(small_record(2)).is_err());
        }
        assert_eq!(
            injected.trace().first().map(|(op, _)| *op),
            Some(IoOp::AppendWrite)
        );
        // The disk works again, but the shard ends in a torn line: the
        // journal refuses to bury it under a later record.
        let err = journal.append(small_record(3)).expect_err("refused");
        assert!(err.to_string().contains("earlier append failed"), "{err}");
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Healable
        );
        let resumed = Checkpoint::resume(&path).expect("torn tail heals");
        resumed
            .append(small_record(2))
            .expect("append after resume");
        assert_eq!(
            resumed.records().expect("records"),
            (0..3).map(small_record).collect::<Vec<_>>()
        );
        cleanup(&path);
    }

    #[test]
    fn a_final_line_torn_before_its_newline_is_kept_and_terminated() {
        let path = scratch("unterminated");
        cleanup(&path);
        let journal = Checkpoint::create(&path).with_shard_records(8);
        for i in 0..3 {
            journal.append(small_record(i)).expect("append");
        }
        let shard = shard_path(&path, 0);
        let contents = std::fs::read(&shard).expect("active shard");
        std::fs::write(&shard, &contents[..contents.len() - 1]).expect("temp write");
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Healable
        );
        let resumed = Checkpoint::resume(&path).expect("heals");
        assert_eq!(resumed.record_count().expect("count"), 3);
        assert_eq!(std::fs::read(&shard).expect("active shard"), contents);
        resumed.append(small_record(3)).expect("append");
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("resume")
                .records()
                .expect("records"),
            (0..4).map(small_record).collect::<Vec<_>>()
        );
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Clean
        );
        cleanup(&path);
    }

    /// A collecting observer for asserting on heal telemetry.
    #[derive(Default)]
    struct EventLog(Mutex<Vec<Event>>);

    impl Observer for EventLog {
        fn on_event(&self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    fn small_record(i: u64) -> JournalRecord {
        JournalRecord::PointFailed {
            job: i,
            rate_index: 0,
            rate: 0.1,
            repeat: i as usize,
            attempts: 1,
            error: format!("synthetic failure {i}"),
            events: vec![],
        }
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn any_single_byte_flip_in_a_frame_is_detected() {
        let line = frame_line("{\"kind\":\"x\"}");
        let trimmed = line.trim_end();
        assert!(parse_frame(trimmed).is_ok());
        let bytes = trimmed.as_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut flipped = bytes.to_vec();
                flipped[pos] ^= 1 << bit;
                let damaged = String::from_utf8_lossy(&flipped).into_owned();
                assert!(
                    parse_frame(&damaged).is_err(),
                    "flip at byte {pos} bit {bit} went undetected: {damaged:?}"
                );
            }
        }
    }

    #[test]
    fn empty_active_shard_resumes_cleanly() {
        let path = scratch("empty_active");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        // A crash immediately after sealing shard 0 can leave a created
        // but empty next shard file.
        std::fs::write(shard_path(&path, 1), "").expect("temp write");
        let health = inspect_journal(&path).expect("inspect");
        assert_eq!(health.status, JournalStatus::Clean);
        let resumed = Checkpoint::resume(&path).expect("resume");
        assert_eq!(resumed.records().expect("records").len(), 2);
        resumed
            .append(small_record(2))
            .expect("append after resume");
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("resume")
                .records()
                .expect("records")
                .len(),
            3
        );
        cleanup(&path);
    }

    #[test]
    fn trailing_garbage_after_footer_heals() {
        let path = scratch("post_footer_garbage");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        let shard = shard_path(&path, 0);
        let mut contents = std::fs::read_to_string(&shard).expect("sealed shard");
        contents.push_str("garbage tail\n");
        std::fs::write(&shard, &contents).expect("temp write");
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Healable
        );
        let log = EventLog::default();
        let resumed = Checkpoint::resume_observed(&path, &log).expect("heals");
        assert_eq!(resumed.records().expect("records").len(), 2);
        let events = log.0.lock().unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::ShardTruncated {
                shard: 0,
                kept: 2,
                ..
            }
        )));
        // The reseal restored a byte-valid sealed shard.
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Clean
        );
        cleanup(&path);
    }

    #[test]
    fn manifest_naming_missing_shard_is_corrupt_and_repairable() {
        let path = scratch("missing_shard");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        std::fs::remove_file(shard_path(&path, 0)).expect("remove sealed shard");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt { shard, kind, .. }) => {
                assert_eq!((shard, kind), (0, CorruptKind::MissingShard));
            }
            other => panic!("missing sealed shard must be corrupt, got {other:?}"),
        }
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Corrupt
        );
        let summary = repair_journal(&path, &NullObserver).expect("repair");
        assert!(!summary.was_clean);
        assert_eq!(summary.kept, 0);
        let resumed = Checkpoint::resume(&path).expect("repaired journal resumes");
        assert!(resumed.records().expect("records").is_empty());
        cleanup(&path);
    }

    #[test]
    fn zero_record_journal_round_trips() {
        let path = scratch("zero_records");
        let dir = path.parent().expect("has parent");
        std::fs::create_dir_all(dir).expect("temp dir");
        // A manifest naming no shards (what repair of a wrecked manifest
        // leaves behind).
        std::fs::write(&path, render_manifest_v3(8, &[])).expect("temp write");
        let health = inspect_journal(&path).expect("inspect");
        assert_eq!(health.status, JournalStatus::Clean);
        assert_eq!(health.records, 0);
        assert_eq!(health.version, 3);
        let journal = Checkpoint::resume(&path).expect("resume");
        assert!(journal.records().expect("records").is_empty());
        journal.append(small_record(0)).expect("append");
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("resume")
                .records()
                .expect("records")
                .len(),
            1
        );
        cleanup(&path);
    }

    #[test]
    fn torn_active_shard_heals_to_valid_prefix() {
        let path = scratch("torn_active");
        let journal = Checkpoint::create(&path).with_shard_records(8);
        for i in 0..3 {
            journal.append(small_record(i)).expect("append");
        }
        // Tear the last line of the active shard mid-write.
        let shard = shard_path(&path, 0);
        let contents = std::fs::read(&shard).expect("active shard");
        std::fs::write(&shard, &contents[..contents.len() - 7]).expect("temp write");
        let log = EventLog::default();
        let resumed = Checkpoint::resume_observed(&path, &log).expect("tail tear heals");
        assert_eq!(
            resumed.records().expect("records"),
            (0..2).map(small_record).collect::<Vec<_>>()
        );
        let events = log.0.lock().unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::ShardTruncated {
                shard: 0,
                kept: 2,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::RecordDropped {
                shard: 0,
                record: 2
            }
        )));
        drop(events);
        // The healed journal extends normally.
        resumed.append(small_record(2)).expect("append");
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("resume")
                .records()
                .expect("records")
                .len(),
            3
        );
        cleanup(&path);
    }

    #[test]
    fn manifest_lag_behind_sealed_shard_heals() {
        let path = scratch("manifest_lag");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        // Rewind the manifest to before the seal: the sealed shard exists
        // on disk but the manifest does not name it yet — exactly the
        // window a crash between the two writes leaves behind.
        std::fs::write(&path, render_manifest_v3(2, &[])).expect("temp write");
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Healable
        );
        let resumed = Checkpoint::resume(&path).expect("manifest lag heals");
        assert_eq!(resumed.records().expect("records").len(), 2);
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Clean,
            "heal rewrote the manifest"
        );
        cleanup(&path);
    }

    #[test]
    fn any_single_byte_flip_in_a_v3_journal_is_never_clean() {
        let path = scratch("bitflip_sweep");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..3 {
            journal.append(small_record(i)).expect("append");
        }
        for target in [path.clone(), shard_path(&path, 0), shard_path(&path, 1)] {
            let pristine = std::fs::read(&target).expect("file exists");
            for pos in 0..pristine.len() {
                let mut flipped = pristine.clone();
                flipped[pos] ^= 0x04; // keeps ASCII printable bytes printable
                std::fs::write(&target, &flipped).expect("temp write");
                let health = inspect_journal(&path).expect("inspect never errors");
                assert_ne!(
                    health.status,
                    JournalStatus::Clean,
                    "flip at {} byte {pos} went undetected",
                    target.display()
                );
            }
            std::fs::write(&target, &pristine).expect("restore");
        }
        cleanup(&path);
    }

    #[test]
    fn v2_journal_with_corrupt_manifest_byte_refuses_resume() {
        let path = scratch("v2_manifest_flip");
        let dir = path.parent().expect("has parent");
        std::fs::create_dir_all(dir).expect("temp dir");
        // A v2 journal whose manifest's first byte was flipped (`{` ^ 0x04):
        // the garbage manifest is no recognisable header, and the unframed
        // shard lines beside it are not recognisably v3 either. Resume
        // must refuse with a typed error rather than adopt the directory
        // as an (empty) v3 journal and truncate the shards away.
        std::fs::write(
            &path,
            "\u{7f}\"journal\":\"reduce-journal\",\"version\":2,\"shard_records\":2}\n",
        )
        .expect("temp write");
        let sealed: String = (0..2).map(|i| render_record(&small_record(i))).collect();
        let active = render_record(&small_record(2));
        std::fs::write(shard_path(&path, 0), &sealed).expect("temp write");
        std::fs::write(shard_path(&path, 1), &active).expect("temp write");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt { kind, .. }) => {
                assert_eq!(kind, CorruptKind::Manifest);
            }
            other => panic!("flipped v2 manifest must refuse resume, got {other:?}"),
        }
        for (index, contents) in [(0, &sealed), (1, &active)] {
            assert_eq!(
                &std::fs::read_to_string(shard_path(&path, index)).expect("shard intact"),
                contents,
                "refused resume must not touch shard {index}"
            );
        }
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Corrupt
        );
        cleanup(&path);
    }

    #[test]
    fn pre_v3_journals_are_refused_untouched() {
        let records: String = (0..3).map(|i| render_record(&small_record(i))).collect();
        // Version 1: one header-prefixed file holding every record.
        let v1 = scratch("pre_v3_v1");
        std::fs::create_dir_all(v1.parent().expect("has parent")).expect("temp dir");
        std::fs::write(
            &v1,
            format!("{{\"journal\":\"reduce-journal\",\"version\":1}}\n{records}"),
        )
        .expect("temp write");
        // Version 2: a bare JSON manifest plus unframed shard files.
        let v2 = scratch("pre_v3_v2");
        std::fs::create_dir_all(v2.parent().expect("has parent")).expect("temp dir");
        std::fs::write(
            &v2,
            "{\"journal\":\"reduce-journal\",\"version\":2,\"shard_records\":2}\n",
        )
        .expect("temp write");
        let sealed: String = (0..2).map(|i| render_record(&small_record(i))).collect();
        std::fs::write(shard_path(&v2, 0), sealed).expect("temp write");
        std::fs::write(shard_path(&v2, 1), render_record(&small_record(2))).expect("temp write");

        for (path, version) in [(&v1, 1), (&v2, 2)] {
            let dir = path.parent().expect("has parent");
            let snapshot = || {
                let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
                    .expect("list dir")
                    .map(|e| {
                        let p = e.expect("dir entry").path();
                        let bytes = std::fs::read(&p).expect("read file");
                        (p, bytes)
                    })
                    .collect();
                files.sort();
                files
            };
            let before = snapshot();
            let refused = |result: Result<()>, op: &str| match result {
                Err(ReduceError::InvalidConfig { what }) => {
                    assert!(
                        what.contains(&format!("format version {version}"))
                            && what.contains("delete it and rerun"),
                        "v{version} {op}: unexpected message {what:?}"
                    );
                }
                other => panic!("v{version} {op} must be refused, got {other:?}"),
            };
            refused(Checkpoint::resume(path).map(drop), "resume");
            refused(inspect_journal(path).map(drop), "inspect");
            refused(repair_journal(path, &NullObserver).map(drop), "repair");
            assert_eq!(
                snapshot(),
                before,
                "v{version} journal must stay byte-identical"
            );
            cleanup(path);
        }
    }

    #[test]
    fn replaced_sealed_shard_is_a_digest_mismatch_not_a_heal() {
        let path = scratch("digest_mismatch");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        // Wholesale-replace the sealed shard with different, individually
        // valid framed records and a correct footer — a shard from another
        // run, or a restored backup. Every per-record CRC verifies; only
        // the manifest digest can tell the content is not what this
        // journal committed to, so resume must refuse instead of silently
        // adopting it.
        let mut replaced = String::new();
        for i in [7u64, 8] {
            replaced.push_str(&frame_line(render_record(&small_record(i)).trim_end()));
        }
        replaced.push_str(&render_footer(2));
        std::fs::write(shard_path(&path, 0), &replaced).expect("temp write");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt { shard, kind, .. }) => {
                assert_eq!((shard, kind), (0, CorruptKind::DigestMismatch));
            }
            other => panic!("digest mismatch must refuse resume, got {other:?}"),
        }
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Corrupt
        );
        // Explicit repair adopts the shard content (per-record CRCs are
        // authoritative) and recomputes the manifest digest.
        repair_journal(&path, &NullObserver).expect("repair");
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("repaired journal resumes")
                .records()
                .expect("records"),
            vec![small_record(7), small_record(8)]
        );
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Clean
        );
        cleanup(&path);
    }

    #[test]
    fn contentful_shard_after_a_numbering_gap_refuses_resume() {
        let path = scratch("post_gap_stray");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..4 {
            journal.append(small_record(i)).expect("append");
        }
        // Two sealed shards (0, 1), no active file yet. Plant a contentful
        // shard file past a numbering gap: it must neither be silently
        // ignored (the writer would eventually overwrite it) nor deleted
        // by resume — only explicit repair may discard it.
        let stray = shard_path(&path, 5);
        std::fs::copy(shard_path(&path, 0), &stray).expect("plant stray");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt { shard, kind, .. }) => {
                assert_eq!((shard, kind), (2, CorruptKind::MissingShard));
            }
            other => panic!("post-gap stray must refuse resume, got {other:?}"),
        }
        assert!(stray.exists(), "refused resume must not delete the stray");
        repair_journal(&path, &NullObserver).expect("repair");
        assert!(!stray.exists(), "repair removes the stray");
        let resumed = Checkpoint::resume(&path).expect("resume after repair");
        assert_eq!(resumed.records().expect("records").len(), 4);
        // An *empty* post-gap file is harmless: resume stays clean.
        std::fs::write(&stray, "").expect("empty stray");
        let resumed = Checkpoint::resume(&path).expect("empty stray is harmless");
        assert_eq!(resumed.records().expect("records").len(), 4);
        cleanup(&path);
    }

    #[test]
    fn heal_reports_one_drop_per_record_slot_not_per_garbage_line() {
        let path = scratch("drop_accounting");
        let journal = Checkpoint::create(&path).with_shard_records(8);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        // Three garbage lines after the valid prefix: one torn record
        // slot's worth of loss, not three dropped records.
        let shard = shard_path(&path, 0);
        let mut contents = std::fs::read_to_string(&shard).expect("active shard");
        contents.push_str("torn half-written li\nnoise\nmore noise\n");
        std::fs::write(&shard, &contents).expect("temp write");
        let log = EventLog::default();
        let resumed = Checkpoint::resume_observed(&path, &log).expect("tail garbage heals");
        assert_eq!(resumed.records().expect("records").len(), 2);
        let events = log.0.lock().unwrap();
        let dropped: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::RecordDropped { .. }))
            .collect();
        assert_eq!(
            dropped.len(),
            1,
            "garbage lines are dropped bytes, not dropped records: {dropped:?}"
        );
        assert!(matches!(
            dropped[0],
            Event::RecordDropped {
                shard: 0,
                record: 2
            }
        ));
        cleanup(&path);
    }

    #[test]
    fn fault_sweep_every_io_op_resumes_or_reports_typed_corruption() {
        use crate::artifact::{install_io_policy, FaultKind, FaultyIo, IoOp, IoPolicy};
        use std::sync::Arc;

        // The journal's files (`.tmp` leftovers aside), by name.
        let journal_files = |path: &Path| {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(path.parent().unwrap())
                .expect("list dir")
                .map(|e| e.expect("dir entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
                .map(|p| {
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&p).expect("read file"))
                })
                .collect();
            files.sort();
            files
        };
        let records: Vec<JournalRecord> = (0..8).map(small_record).collect();
        // Pass 1: count the IO operations a clean run performs.
        let path = scratch("sweep_count");
        std::fs::create_dir_all(path.parent().unwrap()).expect("temp dir");
        let scope = path.parent().unwrap().to_path_buf();
        let counter = Arc::new(FaultyIo::counting(&scope));
        {
            let _guard = install_io_policy(IoPolicy::Faulty(counter.clone()));
            let journal = Checkpoint::create(&path).with_shard_records(3);
            for r in &records {
                journal.append(r.clone()).expect("clean run");
            }
        }
        let total_ops = counter.ops_seen();
        assert!(
            total_ops > 20,
            "expected a rich op sequence, got {total_ops}"
        );
        // The sweep covers in-place appends as well as atomic writes.
        let ops: Vec<IoOp> = counter.trace().into_iter().map(|(op, _)| op).collect();
        for op in [
            IoOp::WriteTemp,
            IoOp::Rename,
            IoOp::AppendWrite,
            IoOp::AppendSync,
        ] {
            assert!(ops.contains(&op), "no {} op in the sweep", op.name());
        }
        let clean = journal_files(&path);
        cleanup(&path);

        // Pass 2: re-run the same append sequence, killing the backend at
        // every operation index with every fault kind. Every crash point
        // must either resume to a strict prefix or report typed corruption
        // that `repair_journal` fixes — and re-appending the remainder must
        // always reconstruct the clean run's journal, byte for byte.
        for index in 0..total_ops {
            for kind in FaultKind::ALL {
                let path = scratch(&format!("sweep_{index}_{}", kind.name()));
                std::fs::create_dir_all(path.parent().unwrap()).expect("temp dir");
                let scope = path.parent().unwrap().to_path_buf();
                let injected = Arc::new(FaultyIo::armed(&scope, 0xC0FFEE, index, kind));
                {
                    let _guard = install_io_policy(IoPolicy::Faulty(injected.clone()));
                    let journal = Checkpoint::create(&path).with_shard_records(3);
                    for r in &records {
                        if journal.append(r.clone()).is_err() {
                            break; // the crash point
                        }
                    }
                }
                assert!(injected.fired(), "op {index} never executed");
                // Recovery runs with real IO (the process restarted). A
                // crash before the manifest landed resumes an empty
                // journal, which takes the run's shard size.
                let resumed = match Checkpoint::resume(&path) {
                    Ok(journal) => journal,
                    Err(ReduceError::JournalCorrupt { .. }) => {
                        repair_journal(&path, &NullObserver).expect("repair succeeds");
                        Checkpoint::resume(&path).expect("repaired journal resumes")
                    }
                    Err(other) => {
                        panic!("op {index} kind {} gave untyped {other}", kind.name())
                    }
                }
                .with_shard_records(3);
                let kept = resumed.records().expect("records");
                assert!(
                    kept.len() <= records.len(),
                    "op {index} kind {} resurrected records",
                    kind.name()
                );
                assert_eq!(
                    kept[..],
                    records[..kept.len()],
                    "op {index} kind {} broke the prefix property",
                    kind.name()
                );
                for r in &records[kept.len()..] {
                    resumed.append(r.clone()).expect("re-append");
                }
                let full = Checkpoint::resume(&path).expect("final resume");
                assert_eq!(
                    full.records().expect("records"),
                    records,
                    "op {index} kind {} lost records",
                    kind.name()
                );
                assert!(
                    journal_files(&path) == clean,
                    "op {index} kind {} left a journal that differs from the clean run's",
                    kind.name()
                );
                cleanup(&path);
            }
        }
    }

    /// A grid-cell record for unit `i`; `origin` (0 fresh, 1 replayed)
    /// rides in the workspace misses so a fold can tell the two apart.
    fn unit_record(i: u64, origin: u64) -> JournalRecord {
        let JournalRecord::Point { point, .. } = point_record() else {
            unreachable!("point_record builds a point")
        };
        JournalRecord::Point {
            job: i,
            point: ResiliencePoint {
                rate_index: i as usize,
                ..point
            },
            workspace: WorkspaceStats {
                hits: i,
                misses: origin,
                bytes_allocated: 8,
            },
            events: vec![unit_event(i)],
        }
    }

    fn unit_event(i: u64) -> Event {
        Event::EpochCompleted {
            scope: EpochScope::Chip {
                chip_id: i as usize,
            },
            epoch: 1,
            accuracy: 0.5,
        }
    }

    #[test]
    fn run_or_replay_seals_only_missing_units_and_folds_in_unit_order() {
        let units: Vec<u64> = (0..8).collect();
        let journaled = [1u64, 4, 6];
        let expected: Vec<JournalRecord> = units
            .iter()
            .map(|&i| unit_record(i, u64::from(journaled.contains(&i))))
            .collect();
        for threads in [1usize, 3] {
            let log = std::sync::Arc::new(EventLog::default());
            let exec = ExecConfig::new(threads).with_observer(log.clone());
            let sealed = Mutex::new(Vec::new());
            let mut folded = Vec::new();
            let total = run_or_replay(
                &units,
                &exec,
                None,
                |&i| journaled.contains(&i).then(|| unit_record(i, 1)),
                |&i| {
                    sealed.lock().expect("no poisoning").push(i);
                    Ok(unit_record(i, 0))
                },
                |record| {
                    folded.push(record);
                    Ok(())
                },
            )
            .expect("nothing fails");
            let mut sealed = sealed.into_inner().expect("no poisoning");
            sealed.sort_unstable();
            assert_eq!(sealed, [0, 2, 3, 5, 7], "{threads} threads");
            assert_eq!(folded, expected, "{threads} threads");
            let events: Vec<Event> = units.iter().map(|&i| unit_event(i)).collect();
            assert_eq!(*log.0.lock().expect("no poisoning"), events);
            assert_eq!((total.hits, total.misses), (28, 3), "{threads} threads");
        }
    }

    #[test]
    fn run_or_replay_journals_every_fresh_record_and_aborts_on_the_lowest_error() {
        let path = scratch("run_or_replay");
        cleanup(&path);
        let units: Vec<u64> = (0..6).collect();
        let exec = ExecConfig::new(3);
        // Unit 2 is a quarantined cell: journaled like any other record.
        let seal = |&i: &u64| {
            Ok(if i == 2 {
                small_record(i)
            } else {
                unit_record(i, 0)
            })
        };
        let checkpoint = Checkpoint::create(&path);
        let mut fresh = Vec::new();
        run_or_replay(
            &units,
            &exec,
            Some(&checkpoint),
            |_| None,
            seal,
            |record| {
                fresh.push(record);
                Ok(())
            },
        )
        .expect("nothing fails");
        let mut journal = Checkpoint::resume(&path)
            .expect("resumes")
            .records()
            .expect("records");
        // Appends land in completion order; compare in unit order.
        journal.sort_by_key(|record| match record {
            JournalRecord::Point { job, .. } | JournalRecord::PointFailed { job, .. } => *job,
            JournalRecord::FleetBatch { .. } => u64::MAX,
        });
        assert_eq!(journal, fresh, "every fresh record is journaled");
        assert!(matches!(
            journal[2],
            JournalRecord::PointFailed { job: 2, .. }
        ));

        let failing = |&i: &u64| match i {
            2 | 5 => Err(ReduceError::InvalidConfig {
                what: format!("unit {i}"),
            }),
            _ => Ok(unit_record(i, 0)),
        };
        let res = run_or_replay(&units, &exec, None, |_| None, failing, |_| Ok(()));
        assert!(
            matches!(&res, Err(ReduceError::InvalidConfig { what }) if what == "unit 2"),
            "{res:?}"
        );
        // An append that cannot land (a file blocks the journal's
        // directory) aborts the fan-out before anything is folded.
        let blocked = Checkpoint::create(&path.join("journal.jsonl"));
        let res = run_or_replay(
            &units,
            &exec,
            Some(&blocked),
            |_| None,
            seal,
            |_| {
                Err(ReduceError::Internal {
                    invariant: "an aborted fan-out folds nothing".to_string(),
                })
            },
        );
        assert!(
            matches!(&res, Err(ReduceError::InvalidConfig { what }) if what.contains("journal")),
            "{res:?}"
        );
        cleanup(&path);
    }
}
