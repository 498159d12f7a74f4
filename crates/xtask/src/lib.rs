//! `xtask` — the workspace's own static-analysis pass.
//!
//! Run as `cargo xtask lint` (the alias lives in `.cargo/config.toml`).
//! See `DESIGN.md` § "Static analysis & invariants" for the rationale and
//! the full lint catalogue, and [`lints`] for the individual passes.
//!
//! Implementation note: the issue that motivated this crate assumed a
//! `syn`-based AST walk, but this workspace builds fully offline and
//! carries no external dependencies, so the engine is a hand-rolled
//! comment/string/lifetime-aware lexer ([`lexer`]) plus token-pattern
//! passes ([`lints`]). For the specific invariants enforced here the
//! token stream carries enough structure (attributes, brace depth,
//! adjacency), and the lexer is itself unit-tested against the tricky
//! cases (raw strings, nested comments, lifetimes vs chars, `r#idents`).

pub mod baseline;
pub mod diagnostics;
pub mod effects;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod parser;

use baseline::Baseline;
use diagnostics::Diagnostic;
use lints::{lint_source, Scope};
use std::path::{Path, PathBuf};

/// Crates whose library code must be deterministic and panic-free: they
/// produce or transform the results the paper's claims rest on.
const RESULT_CRATES: [&str; 5] = [
    "crates/core",
    "crates/systolic",
    "crates/nn",
    "crates/data",
    "crates/tensor",
];

/// Crates whose kernels do the floating-point work, where the
/// numeric-safety family applies.
const NUMERIC_CRATES: [&str; 3] = ["crates/tensor", "crates/systolic", "crates/nn"];

/// The per-iteration hot path: layer forward/backward implementations,
/// where the hot-path-alloc family applies.
const HOT_PATH_DIR: &str = "crates/nn/src/layers/";

/// The GEMM kernel directory: drivers, packers and microkernels run
/// inside the innermost matmul loops, so the hot-path-alloc family
/// applies there too — with its own function-name prefixes.
const GEMM_HOT_DIR: &str = "crates/tensor/src/ops/gemm/";

/// The conv lowering kernels: im2col/col2im in both layouts, the
/// OC-major products and the layout moves run once per conv layer per
/// training step, so the hot-path-alloc family covers them too — with
/// prefixes that take in the `_into` kernels and leave out their
/// allocating convenience forms (`im2col`, `col2im`, `rows_to_nchw`, …).
const CONV_HOT_FILE: &str = "crates/tensor/src/ops/conv.rs";

/// The one sanctioned direct-write call site: the atomic temp-file+rename
/// artifact writer everything else must go through.
const ATOMIC_WRITER: &str = "crates/core/src/artifact.rs";

/// The bench binaries write result artifacts too (CSVs, run dirs), so the
/// artifact-io family extends to their sources.
const BENCH_SRC: &str = "crates/bench/src/";

/// This crate's own sources: linted for determinism, artifact-io and the
/// unsafe gate, so the linter is held to the invariants it enforces.
const XTASK_SRC: &str = "crates/xtask/src/";

/// Declared unsafe islands: path prefixes (workspace-relative) where
/// `unsafe` is sanctioned. Currently empty — all six crate roots carry
/// `#![forbid(unsafe_code)]` and the gate keeps it that way. When a SIMD
/// GEMM kernel lands (ROADMAP), its file is added here *and* its crate
/// root relaxes `forbid` to `deny` with a module-level `allow`; the gate
/// then confines `unsafe` to exactly that island.
pub const UNSAFE_ISLANDS: &[&str] = &[];

/// Decides which lint families apply to a workspace-relative path.
///
/// Only `src/` trees of result-producing crates get the full treatment;
/// tests, examples and the vendored shims are out of scope (they do not
/// produce results). Two partial scopes: the bench binaries write result
/// artifacts, so the artifact-io family extends to `crates/bench/src/`;
/// and this crate's own sources are linted for determinism, artifact-io
/// and the unsafe gate — a linter whose own report order depends on hash
/// seeds cannot credibly enforce determinism on anyone else. The unsafe
/// gate itself covers *every* crate's `src/` tree except declared
/// [`UNSAFE_ISLANDS`].
pub fn scope_for_path(rel: &str) -> Scope {
    let in_src =
        |krate: &str| rel.starts_with(&format!("{krate}/src/")) || rel == format!("{krate}/src");
    let in_xtask = rel.starts_with(XTASK_SRC);
    Scope {
        determinism: RESULT_CRATES.iter().any(|c| in_src(c)) || in_xtask,
        panic_freedom: RESULT_CRATES.iter().any(|c| in_src(c)),
        numeric: NUMERIC_CRATES.iter().any(|c| in_src(c)),
        hot_path: if rel.starts_with(HOT_PATH_DIR) {
            lints::LAYER_HOT_PREFIXES
        } else if rel.starts_with(GEMM_HOT_DIR) {
            lints::GEMM_HOT_PREFIXES
        } else if rel == CONV_HOT_FILE {
            lints::CONV_HOT_PREFIXES
        } else {
            &[]
        },
        artifact_io: (RESULT_CRATES.iter().any(|c| in_src(c))
            || rel.starts_with(BENCH_SRC)
            || in_xtask)
            && rel != ATOMIC_WRITER,
        unsafe_gate: is_crate_src(rel) && unsafe_gated(rel, UNSAFE_ISLANDS),
    }
}

/// Whether `rel` has the exact `crates/<name>/src/**` shape. Tests,
/// fixture corpora (including mini-workspaces nested under a crate's
/// `tests/` tree) and the umbrella `src/` are excluded.
pub fn is_crate_src(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some_and(|s| !s.is_empty())
        && parts.next() == Some("src")
        && parts.next().is_some()
}

/// Whether `rel` falls under the unsafe gate given an island list —
/// factored out so the (currently empty) island mechanism is testable.
pub fn unsafe_gated(rel: &str, islands: &[&str]) -> bool {
    !islands.iter().any(|p| rel.starts_with(p))
}

/// Recursively collects `.rs` files under `root`, skipping `target/`,
/// `.git/` and `vendor/`. Paths come back workspace-relative with
/// forward slashes, sorted.
pub fn workspace_rs_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "vendor" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Outcome of a full workspace lint.
#[derive(Debug)]
pub struct LintRun {
    /// All findings, including baselined ones.
    pub diagnostics: Vec<Diagnostic>,
    /// Fresh per-file counts, i.e. what `--update-baseline` would write.
    pub observed: Baseline,
    /// Baseline entries that over-tolerate: `(file, lint, allowed,
    /// observed)` where observed < allowed. The ratchet only holds if
    /// improvements are locked in, so stale entries fail the run too —
    /// with a different message ("tighten the file") than new violations.
    pub stale: Vec<(String, String, u64, u64)>,
}

impl LintRun {
    /// Findings not covered by the baseline.
    pub fn new_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| !d.baselined).count()
    }
}

/// Lints every in-scope file under `root`, comparing against `baseline`.
///
/// Baselining is per `(file, lint)`: if a file has at most its baselined
/// count for a lint, all those findings are marked tolerated; one extra
/// and *every* finding of that lint in that file is reported as new (the
/// tool cannot know which occurrence was added, and showing all of them
/// is what the fixing developer needs anyway).
pub fn run_lint(root: &Path, baseline: &Baseline) -> std::io::Result<LintRun> {
    let mut diagnostics = Vec::new();
    let mut observed = Baseline::default();
    for rel in workspace_rs_files(root)? {
        let scope = scope_for_path(&rel);
        let src = std::fs::read_to_string(root.join(&rel))?;
        let violations = lint_source(&src, scope);
        if violations.is_empty() {
            continue;
        }
        let counts = lints::count_by_lint(&violations);
        for v in violations {
            let within = counts.get(v.lint.name()).copied().unwrap_or(0)
                <= baseline.allowed(&rel, v.lint.name());
            diagnostics.push(Diagnostic {
                file: rel.clone(),
                violation: v,
                baselined: within,
            });
        }
        observed.files.insert(rel, counts);
    }
    let mut stale = Vec::new();
    for (file, lints) in &baseline.files {
        for (lint, &allowed) in lints {
            let seen = observed.allowed(file, lint);
            if seen < allowed {
                stale.push((file.clone(), lint.clone(), allowed, seen));
            }
        }
    }
    Ok(LintRun {
        diagnostics,
        observed,
        stale,
    })
}

/// Default baseline location, relative to the workspace root.
pub const BASELINE_PATH: &str = "crates/xtask/lint-baseline.json";

/// Loads the checked-in baseline; a missing file is an empty baseline.
pub fn load_baseline(root: &Path) -> Result<Baseline, String> {
    let path = root.join(BASELINE_PATH);
    if !path.exists() {
        return Ok(Baseline::default());
    }
    let src =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Baseline::from_json(&src).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Finds the workspace root: walks up from `start` to the first directory
/// containing both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_covers_result_crates_only() {
        let s = scope_for_path("crates/core/src/fleet.rs");
        assert!(s.determinism && s.panic_freedom && !s.numeric && s.hot_path.is_empty());
        let s = scope_for_path("crates/systolic/src/mapping.rs");
        assert!(s.determinism && s.panic_freedom && s.numeric && s.hot_path.is_empty());
        let s = scope_for_path("crates/tensor/src/linalg.rs");
        assert!(s.numeric);
        // The hot-path-alloc family applies to layer implementations
        // (forward/backward bodies) …
        let s = scope_for_path("crates/nn/src/layers/conv2d.rs");
        assert!(s.numeric && s.panic_freedom);
        assert_eq!(s.hot_path, lints::LAYER_HOT_PREFIXES);
        assert!(scope_for_path("crates/nn/src/trainer.rs")
            .hot_path
            .is_empty());
        // … and to the GEMM kernel directory, with its own prefixes
        // (drivers, packers, microkernels).
        let s = scope_for_path("crates/tensor/src/ops/gemm/microkernel.rs");
        assert_eq!(s.hot_path, lints::GEMM_HOT_PREFIXES);
        assert!(s.numeric && s.panic_freedom && s.determinism);
        assert_eq!(
            scope_for_path("crates/tensor/src/ops/gemm/mod.rs").hot_path,
            lints::GEMM_HOT_PREFIXES
        );
        // … and to the conv lowering kernels.
        assert_eq!(
            scope_for_path("crates/tensor/src/ops/conv.rs").hot_path,
            lints::CONV_HOT_PREFIXES
        );
        // Other sibling ops files outside the kernel directory stay
        // uncovered.
        assert!(scope_for_path("crates/tensor/src/ops/matmul.rs")
            .hot_path
            .is_empty());
        // The artifact-io family covers result crates and the bench
        // binaries, except the atomic writer itself.
        assert!(scope_for_path("crates/core/src/fleet.rs").artifact_io);
        let s = scope_for_path("crates/bench/src/bin/fig2.rs");
        assert!(s.artifact_io && !s.determinism && !s.panic_freedom);
        assert!(!scope_for_path("crates/core/src/artifact.rs").artifact_io);
        // Out of scope: tests and the umbrella package.
        assert_eq!(scope_for_path("crates/core/tests/policy.rs"), Scope::none());
        assert_eq!(scope_for_path("src/lib.rs"), Scope::none());
        // The linter lints itself: determinism + artifact-io + the unsafe
        // gate, but not the panic-freedom/numeric families (a CLI tool may
        // index and unwrap; it may not be nondeterministic).
        let s = scope_for_path("crates/xtask/src/lints.rs");
        assert!(s.determinism && s.artifact_io && s.unsafe_gate);
        assert!(!s.panic_freedom && !s.numeric && s.hot_path.is_empty());
        // Fixture files under tests/ stay unlinted — they hold deliberate
        // violations.
        assert_eq!(
            scope_for_path("crates/xtask/tests/fixtures/unsafe_island.rs"),
            Scope::none()
        );
    }

    #[test]
    fn unsafe_gate_covers_every_crate_src() {
        for rel in [
            "crates/core/src/exec.rs",
            "crates/bench/src/bin/fig2.rs",
            "crates/xtask/src/graph.rs",
            "crates/tensor/src/linalg.rs",
        ] {
            assert!(scope_for_path(rel).unsafe_gate, "{rel} must be gated");
        }
        assert!(!scope_for_path("crates/core/tests/policy.rs").unsafe_gate);
        // Fixture mini-workspaces nested under a tests tree look like
        // `crates/*/src/*` by substring but must stay out of scope.
        let nested = "crates/xtask/tests/effect_fixtures/crates/app/src/lib.rs";
        assert!(!is_crate_src(nested));
        assert_eq!(scope_for_path(nested), Scope::none());
        // UNSAFE_ISLANDS is deliberately empty: all crate roots carry
        // `#![forbid(unsafe_code)]` today.
        assert!(UNSAFE_ISLANDS.is_empty());
        // The island declaration mechanism itself, with a synthetic list:
        // a declared island prefix exempts exactly its subtree.
        let islands = ["crates/systolic/src/gemm_simd.rs"];
        assert!(!unsafe_gated("crates/systolic/src/gemm_simd.rs", &islands));
        assert!(unsafe_gated("crates/systolic/src/mapping.rs", &islands));
        assert!(unsafe_gated("crates/core/src/exec.rs", &islands));
    }

    #[test]
    fn workspace_root_is_discoverable_from_here() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above xtask");
        assert!(root.join("crates/xtask").is_dir());
    }
}
