//! End-to-end IO-fault sweep over the `fig2` binary.
//!
//! The in-process exhaustive sweep lives in `reduce-core`'s journal unit
//! tests, and `scripts/ci.sh` runs the exhaustive binary sweep on the
//! chaos campaign. This test samples the binary protocol itself at a few
//! fault points — early (manifest creation), middle, and last — so
//! `cargo test` alone proves the crash/resume contract end to end:
//!
//! * an armed fault fires → exit 4 with the crash marker on stderr;
//! * `journal-tool verify` classifies the survivor (repair if corrupt);
//! * `fig2 --resume` completes the run with exit 0;
//! * the resumed redacted artifacts are byte-identical to an
//!   uninterrupted reference run;
//! * an index past the run's op count leaves the run untouched and
//!   prints the `io-fault: unfired` marker;
//! * a version-1/2 journal is refused by `journal-tool` and
//!   `fig2 --resume` with the unsupported-version error, untouched.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const FIG2: &str = env!("CARGO_BIN_EXE_fig2");
const JOURNAL_TOOL: &str = env!("CARGO_BIN_EXE_journal-tool");

/// Redacted smoke arguments shared by every run in this test.
const SMOKE: &[&str] = &["--scale", "smoke", "--threads", "2", "--redact-timing"];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "reduce-io-fault-sweep-{}-{tag}",
        std::process::id()
    ));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn fig2(extra: &[&str]) -> Output {
    let mut args: Vec<&str> = SMOKE.to_vec();
    args.extend_from_slice(extra);
    run(FIG2, &args)
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("exit code (not a signal)")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn assert_same_artifacts(reference: &Path, resumed: &Path) {
    for artifact in ["run_log.jsonl", "manifest.json"] {
        let want = fs::read(reference.join(artifact)).expect("read reference artifact");
        let got = fs::read(resumed.join(artifact)).expect("read resumed artifact");
        assert!(
            want == got,
            "{artifact} of the resumed run differs from the uninterrupted reference"
        );
    }
}

#[test]
fn sampled_fault_points_crash_verify_and_resume_byte_identically() {
    let root = scratch_dir("sampled");
    let ref_dir = root.join("ref");
    fs::create_dir_all(&ref_dir).expect("create ref dir");

    // Uninterrupted reference run.
    let reference = fig2(&["--out", ref_dir.to_str().expect("utf-8 path")]);
    assert_eq!(
        code(&reference),
        0,
        "reference run failed: {}",
        stderr(&reference)
    );

    // Count the run's artifact IO ops by arming an index past any run:
    // the binary must complete untouched and report the total op count.
    let probe_dir = root.join("probe");
    fs::create_dir_all(&probe_dir).expect("create probe dir");
    let probe = fig2(&[
        "--out",
        probe_dir.to_str().expect("utf-8 path"),
        "--io-fault",
        "enospc@1000000",
    ]);
    assert_eq!(code(&probe), 0, "unfired run failed: {}", stderr(&probe));
    let probe_err = stderr(&probe);
    let total_ops: u64 = probe_err
        .split("beyond the run's ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no op count in unfired marker: {probe_err}"));
    assert!(
        probe_err.contains("io-fault: unfired"),
        "missing unfired marker: {probe_err}"
    );
    assert!(
        total_ops > 10,
        "suspiciously few artifact IO ops: {total_ops}"
    );
    assert_same_artifacts(&ref_dir, &probe_dir);

    // Sample one early, one middle, and the last fault point, pairing
    // each with a different fault kind. ci.sh sweeps every index.
    let samples = [
        (1, "torn"),
        (total_ops / 2, "rename-fail"),
        (total_ops - 1, "short"),
    ];
    for (index, kind) in samples {
        let cut_dir = root.join(format!("cut-{kind}-{index}"));
        fs::create_dir_all(&cut_dir).expect("create cut dir");
        let cut_path = cut_dir.to_str().expect("utf-8 path");
        let spec = format!("{kind}@{index}");

        let crashed = fig2(&["--out", cut_path, "--io-fault", &spec]);
        assert_eq!(
            code(&crashed),
            4,
            "{spec}: expected the crash exit code, got {}: {}",
            code(&crashed),
            stderr(&crashed)
        );
        assert!(
            stderr(&crashed).contains(&format!("io-fault: injected {kind} at op {index} fired")),
            "{spec}: missing crash marker: {}",
            stderr(&crashed)
        );

        // Triage the survivor; a corrupt journal must repair cleanly.
        let verify = run(JOURNAL_TOOL, &["verify", cut_path]);
        match code(&verify) {
            0 | 2 => {}
            3 => {
                let repair = run(JOURNAL_TOOL, &["repair", cut_path]);
                assert_eq!(
                    code(&repair),
                    0,
                    "{spec}: repair failed: {}",
                    stderr(&repair)
                );
            }
            other => panic!(
                "{spec}: journal-tool verify exited {other}: {}",
                stderr(&verify)
            ),
        }

        let resumed = fig2(&["--resume", cut_path]);
        assert_eq!(
            code(&resumed),
            0,
            "{spec}: resume failed: {}",
            stderr(&resumed)
        );
        assert_same_artifacts(&ref_dir, &cut_dir);

        // After the resumed run the journal must verify clean.
        let clean = run(JOURNAL_TOOL, &["verify", cut_path]);
        assert_eq!(
            code(&clean),
            0,
            "{spec}: resumed journal not clean: {}",
            stderr(&clean)
        );
    }

    fs::remove_dir_all(&root).ok();
}

/// Every file in `dir` with its bytes, sorted by path.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir)
        .expect("list dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let bytes = fs::read(&path).expect("read file");
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn pre_v3_journals_are_refused_without_modification() {
    let root = scratch_dir("pre-v3");
    let record = "{\"kind\":\"point_failed\",\"job\":0,\"rate_index\":0,\"rate\":0.1,\
                  \"repeat\":0,\"attempts\":1,\"error\":\"x\",\"events\":[]}\n";
    // Version 1: one header-prefixed file; version 2: a bare JSON
    // manifest beside unframed shard files.
    let v1 = root.join("v1");
    fs::create_dir_all(&v1).expect("create v1 dir");
    fs::write(
        v1.join("journal.jsonl"),
        format!("{{\"journal\":\"reduce-journal\",\"version\":1}}\n{record}"),
    )
    .expect("write v1 journal");
    let v2 = root.join("v2");
    fs::create_dir_all(&v2).expect("create v2 dir");
    fs::write(
        v2.join("journal.jsonl"),
        "{\"journal\":\"reduce-journal\",\"version\":2,\"shard_records\":2}\n",
    )
    .expect("write v2 manifest");
    fs::write(v2.join("journal-00000.jsonl"), record).expect("write v2 shard");

    for (dir, version) in [(&v1, 1), (&v2, 2)] {
        let path = dir.to_str().expect("utf-8 path");
        let before = snapshot(dir);
        let message = format!("format version {version}");
        for command in ["verify", "repair"] {
            let out = run(JOURNAL_TOOL, &[command, path]);
            assert_eq!(code(&out), 1, "v{version} {command}: {}", stderr(&out));
            assert!(
                stderr(&out).contains(&message) && stderr(&out).contains("delete it and rerun"),
                "v{version} {command}: missing refusal message: {}",
                stderr(&out)
            );
        }
        let resumed = fig2(&["--resume", path]);
        assert_ne!(code(&resumed), 0, "v{version}: fig2 --resume must fail");
        assert!(
            stderr(&resumed).contains("delete it and rerun"),
            "v{version}: fig2 --resume gave the wrong error: {}",
            stderr(&resumed)
        );
        assert_eq!(
            snapshot(dir),
            before,
            "v{version}: the refused journal directory must stay byte-identical"
        );
    }
    fs::remove_dir_all(&root).ok();
}
