//! Property tests for the journal crash-consistency contract.
//!
//! A journal directory that suffers arbitrary single-point damage — a bit
//! flip at a random byte, a truncation at a random offset, or a deleted
//! file — must resume to a valid prefix of the pre-damage record sequence
//! or fail with a typed error that `repair_journal` can act on. It must
//! never panic and never return records that were not appended.
//!
//! Journals carry per-record CRCs, so the contract is strict: resume
//! either yields an exact prefix or reports `JournalCorrupt`, and repair
//! always restores a resumable prefix.
//!
//! Journals are built through the public API under 1, 2, or 8 concurrent
//! appender threads, so the properties also double as a thread-safety
//! check on `Checkpoint`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use reduce_core::telemetry::NullObserver;
use reduce_core::{repair_journal, Checkpoint, JournalRecord, ReduceError};

/// A unique scratch directory per test case (no temp-dir crate in tree).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "reduce-journal-prop-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small, cheaply comparable record keyed by `job`.
fn record(job: u64) -> JournalRecord {
    JournalRecord::PointFailed {
        job,
        rate_index: job as usize,
        rate: 0.25,
        repeat: 0,
        attempts: 1,
        error: format!("boom {job}"),
        events: Vec::new(),
    }
}

/// Appends `count` records through `threads` concurrent appenders.
fn build_journal(manifest: &Path, shard_records: usize, count: u64, threads: u64) {
    let journal = Arc::new(Checkpoint::create(manifest).with_shard_records(shard_records));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let journal = Arc::clone(&journal);
            scope.spawn(move || {
                let mut job = t;
                while job < count {
                    journal.append(record(job)).expect("append");
                    job += threads;
                }
            });
        }
    });
}

/// The consecutive shard files of `manifest`'s journal, in index order.
fn shard_files(manifest: &Path) -> Vec<PathBuf> {
    let stem = manifest
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("manifest stem");
    let dir = manifest.parent().expect("manifest parent");
    let mut shards = Vec::new();
    for index in 0.. {
        let shard = dir.join(format!("{stem}-{index:05}.jsonl"));
        if !shard.exists() {
            break;
        }
        shards.push(shard);
    }
    shards
}

/// Every file the journal currently consists of (manifest first).
fn journal_files(manifest: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    if manifest.exists() {
        files.push(manifest.to_path_buf());
    }
    files.extend(shard_files(manifest));
    files
}

#[derive(Debug, Clone, Copy)]
enum Damage {
    FlipBit,
    Truncate,
    Delete,
}

/// Applies one damage action to one journal file, both chosen by the
/// (arbitrary) selectors modulo what actually exists on disk. Returns
/// `false` when there was nothing to damage.
fn apply_damage(manifest: &Path, damage: Damage, file_sel: u64, pos_sel: u64, bit: u32) -> bool {
    let files = journal_files(manifest);
    let Some(target) = files.get((file_sel % files.len().max(1) as u64) as usize) else {
        return false;
    };
    match damage {
        Damage::Delete => {
            fs::remove_file(target).expect("delete journal file");
            true
        }
        Damage::Truncate => {
            let bytes = fs::read(target).expect("read target");
            if bytes.is_empty() {
                return false;
            }
            let keep = (pos_sel % bytes.len() as u64) as usize;
            fs::write(target, &bytes[..keep]).expect("truncate target");
            true
        }
        Damage::FlipBit => {
            let mut bytes = fs::read(target).expect("read target");
            if bytes.is_empty() {
                return false;
            }
            let pos = (pos_sel % bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << (bit % 8);
            fs::write(target, &bytes).expect("write flipped target");
            true
        }
    }
}

/// Asserts `resumed` is an exact prefix of `original`.
fn assert_prefix(resumed: &[JournalRecord], original: &[JournalRecord], context: &str) {
    assert!(
        resumed.len() <= original.len() && resumed == &original[..resumed.len()],
        "{context}: resumed {} record(s) that are not a prefix of the {} original(s)",
        resumed.len(),
        original.len(),
    );
}

/// The contract a damaged journal must satisfy on resume: an exact
/// prefix, or a typed `JournalCorrupt` that repair can always clear.
fn check_damage_contract(manifest: &Path, original: &[JournalRecord], context: &str) {
    match Checkpoint::resume(manifest) {
        Ok(journal) => {
            let resumed = journal.records().expect("records after resume");
            assert_prefix(&resumed, original, context);
        }
        Err(ReduceError::JournalCorrupt { .. }) => {
            // Typed corruption: repair must truncate to a resumable store.
            repair_journal(manifest, &NullObserver)
                .unwrap_or_else(|e| panic!("{context}: repair after typed corruption failed: {e}"));
            let journal = Checkpoint::resume(manifest)
                .unwrap_or_else(|e| panic!("{context}: resume after repair failed: {e}"));
            let resumed = journal.records().expect("records after repair");
            assert_prefix(&resumed, original, context);
        }
        Err(other) => panic!("{context}: resume failed with an unexpected error: {other:?}"),
    }
}

fn appender_threads() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(2u64), Just(8u64)]
}

fn damage_kind() -> impl Strategy<Value = Damage> {
    prop_oneof![
        3 => Just(Damage::FlipBit),
        2 => Just(Damage::Truncate),
        1 => Just(Damage::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-point damage anywhere in a journal directory resumes to a
    /// valid prefix or a typed, repairable error — and never panics.
    #[test]
    fn damaged_journals_resume_or_fail_typed(
        shard_records in 1usize..=4,
        count in 0u64..=12,
        threads in appender_threads(),
        damage in damage_kind(),
        file_sel in 0u64..=u64::MAX,
        pos_sel in 0u64..=u64::MAX,
        bit in 0u32..8,
    ) {
        let dir = scratch_dir("damage");
        let manifest = dir.join("journal.jsonl");
        build_journal(&manifest, shard_records, count, threads);

        // The canonical pre-damage sequence, read back through resume.
        let pristine = Checkpoint::resume(&manifest).expect("pristine resume");
        let original = pristine.records().expect("pristine records");
        prop_assert_eq!(original.len() as u64, count);
        drop(pristine);

        let context = format!(
            "shard_records={shard_records} count={count} threads={threads} {damage:?}"
        );
        if apply_damage(&manifest, damage, file_sel, pos_sel, bit) {
            check_damage_contract(&manifest, &original, &context);
        } else {
            // Nothing on disk to damage (e.g. an empty journal): resume
            // must still come back clean.
            let journal = Checkpoint::resume(&manifest).expect("clean resume");
            prop_assert_eq!(journal.records().expect("records"), original);
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A resumed-after-damage v3 journal must accept new appends and end
    /// with exactly prefix + re-appended tail: the self-healed store is a
    /// fully functional journal, not a read-only salvage.
    #[test]
    fn healed_v3_journals_accept_further_appends(
        shard_records in 1usize..=4,
        count in 1u64..=10,
        damage in damage_kind(),
        file_sel in 0u64..=u64::MAX,
        pos_sel in 0u64..=u64::MAX,
        bit in 0u32..8,
    ) {
        let dir = scratch_dir("reappend");
        let manifest = dir.join("journal.jsonl");
        build_journal(&manifest, shard_records, count, 1);
        let original = Checkpoint::resume(&manifest)
            .expect("pristine resume")
            .records()
            .expect("pristine records");

        if apply_damage(&manifest, damage, file_sel, pos_sel, bit) {
            let journal = match Checkpoint::resume(&manifest) {
                Ok(journal) => journal,
                Err(ReduceError::JournalCorrupt { .. }) => {
                    repair_journal(&manifest, &NullObserver).expect("repair");
                    Checkpoint::resume(&manifest).expect("resume after repair")
                }
                Err(other) => panic!("unexpected resume error: {other:?}"),
            };
            let kept = journal.records().expect("records").len() as u64;
            for job in kept..count {
                journal.append(record(job)).expect("re-append");
            }
            drop(journal);
            let rebuilt = Checkpoint::resume(&manifest)
                .expect("resume after re-append")
                .records()
                .expect("rebuilt records");
            prop_assert_eq!(rebuilt, original);
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// Exhaustive complement to the sampled properties: truncating any journal
/// file at *every* byte offset must resume to an exact prefix, possibly
/// after an explicit repair. Covers every torn-write length a crash can
/// leave behind in a v3 directory.
#[test]
fn every_truncation_point_of_a_v3_journal_is_recoverable() {
    let dir = scratch_dir("truncate-sweep");
    let manifest = dir.join("journal.jsonl");
    build_journal(&manifest, 2, 6, 1);
    let original = Checkpoint::resume(&manifest)
        .expect("pristine resume")
        .records()
        .expect("pristine records");
    let pristine: Vec<(PathBuf, Vec<u8>)> = journal_files(&manifest)
        .into_iter()
        .map(|f| {
            let bytes = fs::read(&f).expect("read pristine");
            (f, bytes)
        })
        .collect();

    for (target, bytes) in &pristine {
        for keep in 0..bytes.len() {
            for (file, contents) in &pristine {
                fs::write(file, contents).expect("restore pristine");
            }
            fs::write(target, &bytes[..keep]).expect("truncate");
            let context = format!("{} truncated to {keep} B", target.display());
            check_damage_contract(&manifest, &original, &context);
        }
    }
    fs::remove_dir_all(&dir).ok();
}
