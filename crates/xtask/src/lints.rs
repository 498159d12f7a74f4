//! The lint passes: repo-specific invariants that clippy cannot express.
//!
//! Four families, mirroring the guarantees the Reduce framework's results
//! depend on:
//!
//! - **determinism** — a resilience table measured once (Step ①) is only
//!   trustworthy for later per-chip selection (Step ②/③) if every
//!   fault-injection and retraining run is bit-reproducible from its seed.
//!   Ambient entropy (`thread_rng`, `from_entropy`, `rand::random`),
//!   wall-clock reads (`SystemTime::now`, `Instant::now`) and iteration
//!   over unordered containers (`HashMap`/`HashSet`) in result-producing
//!   code silently break that contract.
//! - **unsafe-island** — every result crate is `#![forbid(unsafe_code)]`;
//!   the day a SIMD kernel justifies an exception, it must be a declared
//!   island module (`UNSAFE_ISLANDS`), not an `unsafe` that drifts in
//!   anywhere. Until an island is declared, any `unsafe` token fails.
//! - **panic-freedom** — a stray `unwrap()` in library code kills an entire
//!   fleet evaluation instead of failing one chip with a typed error.
//! - **numeric-safety** — `f64 as f32` narrowing and `==`/`!=` on floats in
//!   kernel/accumulation code are classic sources of silently divergent
//!   results across refactors.
//! - **hot-path-alloc** — layer `forward*`/`backward*` bodies run once per
//!   training iteration and are supposed to draw buffers from the
//!   `Workspace` arena; fresh `Tensor::zeros`/`.clone()`/`.to_vec()` there
//!   quietly reintroduces per-step heap churn.
//! - **artifact-io** — every result artifact (manifests, run logs, CSVs,
//!   tables, journals) must be written through the atomic temp-file+rename
//!   writer in `reduce_core::artifact`; a direct `fs::write`/`File::create`
//!   elsewhere can leave a torn artifact behind when a run is killed,
//!   which breaks the checkpoint/resume and cross-thread-diff guarantees.
//!
//! Escape hatch: a `// xtask:allow(<lint>): <reason>` comment on the same
//! line or the line above suppresses one lint there. The reason is
//! mandatory and must be substantive (≥ 10 characters); unused or
//! reason-less allows are themselves violations, so the hatch cannot rot.

use crate::lexer::{tokenize, Token, TokenKind};
use std::collections::BTreeMap;

/// Every lint the engine can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lint {
    /// `thread_rng()`, `from_entropy()`, `rand::random` — seedless RNG.
    AmbientEntropy,
    /// `SystemTime::now()` / `Instant::now()` in result-producing code.
    WallClock,
    /// Iterating a `HashMap`/`HashSet` in result-producing code.
    UnorderedIter,
    /// Any `unsafe` token outside a declared unsafe-island module.
    UnsafeIsland,
    /// `.unwrap()` in non-test library code.
    Unwrap,
    /// `.expect(..)` in non-test library code.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Panic,
    /// Slice/array indexing `x[i]` (prefer `get`/iterators or justify).
    Index,
    /// `==` / `!=` against a float literal.
    FloatEq,
    /// `expr as f32` where the source expression mentions `f64`.
    LossyFloatCast,
    /// `Tensor::zeros`/`ones`/`full`, `.clone()` or `.to_vec()` inside a
    /// layer `forward*`/`backward*` body (the per-iteration hot path).
    HotPathAlloc,
    /// `fs::write` / `File::create` outside the atomic artifact writer.
    ArtifactIo,
    /// An `xtask:allow` comment that suppressed nothing.
    UnusedAllow,
    /// An `xtask:allow` comment with a missing or trivial reason.
    BadAllow,
}

impl Lint {
    /// Stable kebab-case name, used in diagnostics, baseline keys and
    /// `xtask:allow(..)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Lint::AmbientEntropy => "ambient-entropy",
            Lint::WallClock => "wall-clock",
            Lint::UnorderedIter => "unordered-iter",
            Lint::UnsafeIsland => "unsafe-island",
            Lint::Unwrap => "unwrap",
            Lint::Expect => "expect",
            Lint::Panic => "panic",
            Lint::Index => "index",
            Lint::FloatEq => "float-eq",
            Lint::LossyFloatCast => "lossy-float-cast",
            Lint::HotPathAlloc => "hot-path-alloc",
            Lint::ArtifactIo => "artifact-io",
            Lint::UnusedAllow => "unused-allow",
            Lint::BadAllow => "bad-allow",
        }
    }

    /// The family a lint belongs to (grouping for docs and reports).
    pub fn family(self) -> &'static str {
        match self {
            Lint::AmbientEntropy | Lint::WallClock | Lint::UnorderedIter => "determinism",
            Lint::UnsafeIsland => "unsafe-island",
            Lint::Unwrap | Lint::Expect | Lint::Panic | Lint::Index => "panic-freedom",
            Lint::FloatEq | Lint::LossyFloatCast => "numeric-safety",
            Lint::HotPathAlloc => "hot-path-alloc",
            Lint::ArtifactIo => "artifact-io",
            Lint::UnusedAllow | Lint::BadAllow => "meta",
        }
    }

    /// All lints, in stable order (drives `from_name` and `--explain`).
    pub fn all() -> [Lint; 14] {
        [
            Lint::AmbientEntropy,
            Lint::WallClock,
            Lint::UnorderedIter,
            Lint::UnsafeIsland,
            Lint::Unwrap,
            Lint::Expect,
            Lint::Panic,
            Lint::Index,
            Lint::FloatEq,
            Lint::LossyFloatCast,
            Lint::HotPathAlloc,
            Lint::ArtifactIo,
            Lint::UnusedAllow,
            Lint::BadAllow,
        ]
    }

    /// The rule, rationale and fix pattern, for `--explain <lint>`.
    pub fn explain(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Lint::AmbientEntropy => (
                "no `thread_rng()`, `from_entropy()` or `rand::random` in result code",
                "a resilience table measured from ambient entropy cannot be reproduced, so \
                 every later per-chip selection decision built on it is untrustworthy",
                "thread an explicit `u64` seed (`SmallRng::seed_from_u64`) from the config",
            ),
            Lint::WallClock => (
                "no `Instant::now()` / `SystemTime::now()` in result code",
                "wall-clock reads make artifacts differ across runs and thread counts, \
                 breaking the byte-identical resume and cross-thread-diff guarantees",
                "take the time as a parameter, or go through `telemetry::Stopwatch` (the \
                 sanctioned island) for timing that is redacted from result artifacts",
            ),
            Lint::UnorderedIter => (
                "no iteration over `HashMap`/`HashSet` in result code",
                "their iteration order is unspecified and can differ between runs and \
                 toolchains, which silently reorders result artifacts",
                "use `BTreeMap`/`BTreeSet`, or collect and sort before iterating",
            ),
            Lint::UnsafeIsland => (
                "no `unsafe` outside a declared island module (`UNSAFE_ISLANDS` in xtask)",
                "every result crate is `#![forbid(unsafe_code)]`; if a SIMD kernel ever \
                 justifies an island, it must be a declared, reviewable module — not an \
                 `unsafe` that drifts in anywhere",
                "keep code safe, or add the module to `UNSAFE_ISLANDS` with review",
            ),
            Lint::Unwrap => (
                "no `.unwrap()` in library code",
                "one poisoned chip would kill an entire fleet evaluation instead of \
                 failing soft with a typed error",
                "return the crate's typed `Error` via `?` / `ok_or_else`",
            ),
            Lint::Expect => (
                "no `.expect(..)` in library code",
                "same failure mode as `unwrap`: it aborts the whole run",
                "return the crate's typed `Error` via `?` / `ok_or_else`",
            ),
            Lint::Panic => (
                "no `panic!`/`unreachable!`/`todo!`/`unimplemented!` in library code",
                "panics abort the caller and break job containment",
                "return a typed `Error`; for contained chaos tests use `xtask:allow(panic)`",
            ),
            Lint::Index => (
                "no bare slice/array indexing in library code",
                "`x[i]` panics out of bounds, killing the run instead of one job",
                "prefer `get`/iterators, or justify with `xtask:allow(index)`",
            ),
            Lint::FloatEq => (
                "no `==`/`!=` against float literals",
                "exact bit comparison diverges silently across refactors and FMA folds",
                "compare with an epsilon, or justify exact-zero semantics with an allow",
            ),
            Lint::LossyFloatCast => (
                "no `f64 as f32` narrowing in kernel code",
                "silent precision loss makes results depend on where the cast sits",
                "keep the accumulation in one width end to end",
            ),
            Lint::HotPathAlloc => (
                "no fresh allocations in layer `forward*`/`backward*` bodies",
                "per-iteration heap churn undoes the workspace-arena optimisation",
                "take buffers from the `Workspace` arena (`ws.take`); O(1) CoW handle \
                 clones are fine but must say so via `xtask:allow(hot-path-alloc)`",
            ),
            Lint::ArtifactIo => (
                "no `fs::write`/`File::create` outside `reduce_core::artifact`",
                "a direct write can be interrupted half way and leave a torn artifact, \
                 breaking checkpoint/resume",
                "route writes through `artifact::write_atomic` (temp file + rename)",
            ),
            Lint::UnusedAllow => (
                "every `xtask:allow` must suppress something",
                "stale allows rot into blanket permissions",
                "delete the comment, or move it next to the code it justifies",
            ),
            Lint::BadAllow => (
                "every `xtask:allow` needs a known lint name and a substantive reason",
                "an allow without a reason is a decision nobody can audit",
                "write `// xtask:allow(<lint>): <why this is sound>` (≥ 10 chars)",
            ),
        }
    }

    /// Parses a lint name as written in an `xtask:allow(..)` comment.
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::all().into_iter().find(|l| l.name() == name)
    }
}

/// Hot-function prefixes for layer implementations: the per-iteration
/// `forward*` / `backward*` bodies.
pub const LAYER_HOT_PREFIXES: &[&str] = &["forward", "backward"];

/// Hot-function prefixes for the GEMM kernel directory: the drivers
/// (`gemm*`), the panel packers (`pack*`) and the microkernel
/// (`micro*`) all run inside the innermost matmul loops.
pub const GEMM_HOT_PREFIXES: &[&str] = &["gemm", "pack", "micro"];

/// Hot-function prefixes for the conv lowering file: the `_into` im2col
/// and col2im kernels of both layouts, the tap-major products and layout
/// moves (`conv2d_*`) and the position-major layout moves. The trailing
/// underscores keep the allocating forms (`im2col`, `col2im`,
/// `rows_to_nchw`, `nchw_to_rows`) out of scope.
pub const CONV_HOT_PREFIXES: &[&str] = &[
    "im2col_",
    "col2im_",
    "conv2d_",
    "rows_to_nchw_",
    "nchw_to_rows_",
];

/// Which lint families apply to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// Enforce the determinism family.
    pub determinism: bool,
    /// Enforce the panic-freedom family.
    pub panic_freedom: bool,
    /// Enforce the numeric-safety family.
    pub numeric: bool,
    /// Function-name prefixes whose bodies the hot-path-alloc family
    /// covers (empty slice = family off for this file). Layer files use
    /// [`LAYER_HOT_PREFIXES`]; the GEMM kernel directory uses
    /// [`GEMM_HOT_PREFIXES`]; the conv lowering file uses
    /// [`CONV_HOT_PREFIXES`].
    pub hot_path: &'static [&'static str],
    /// Enforce the artifact-io family (atomic artifact writes only).
    pub artifact_io: bool,
    /// Enforce the unsafe-island gate (no `unsafe` outside islands).
    pub unsafe_gate: bool,
}

impl Scope {
    /// Everything on — used by the fixture tests.
    pub fn all() -> Self {
        Scope {
            determinism: true,
            panic_freedom: true,
            numeric: true,
            hot_path: LAYER_HOT_PREFIXES,
            artifact_io: true,
            unsafe_gate: true,
        }
    }

    /// Nothing on.
    pub fn none() -> Self {
        Scope {
            determinism: false,
            panic_freedom: false,
            numeric: false,
            hot_path: &[],
            artifact_io: false,
            unsafe_gate: false,
        }
    }

    fn any(self) -> bool {
        self.determinism
            || self.panic_freedom
            || self.numeric
            || !self.hot_path.is_empty()
            || self.artifact_io
            || self.unsafe_gate
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-oriented message (what + why).
    pub message: String,
}

/// Lints one file's source under the given scope.
///
/// `#[cfg(test)]` items, `#[test]` functions, comments, strings and doc
/// text are exempt. `xtask:allow` comments suppress individual findings;
/// unused or unjustified allows are reported through the meta lints.
pub fn lint_source(src: &str, scope: Scope) -> Vec<Violation> {
    if !scope.any() {
        return Vec::new();
    }
    let tokens = tokenize(src);
    let allows = collect_allows(&tokens);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let exempt = test_exempt_lines(&code);

    let mut raw = Vec::new();
    if scope.determinism {
        determinism_pass(&code, &mut raw);
        unordered_iter_pass(&code, &mut raw);
    }
    if scope.unsafe_gate {
        unsafe_island_pass(&code, &mut raw);
    }
    if scope.panic_freedom {
        panic_pass(&code, &mut raw);
    }
    if scope.numeric {
        numeric_pass(&code, &mut raw);
    }
    if !scope.hot_path.is_empty() {
        hot_path_pass(&code, scope.hot_path, &mut raw);
    }
    if scope.artifact_io {
        artifact_io_pass(&code, &mut raw);
    }
    raw.retain(|v| !exempt.contains(&v.line));

    apply_allows(raw, allows)
}

// ---------------------------------------------------------------------------
// Escape-hatch comments
// ---------------------------------------------------------------------------

struct Allow {
    lint: Option<Lint>,
    reason_ok: bool,
    line: u32,
    col: u32,
    used: bool,
    text: String,
}

fn collect_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::Comment {
            continue;
        }
        // A real allow is a dedicated comment: the marker must start the
        // comment content (after `/`, `!` and whitespace). Prose that
        // merely *mentions* the syntax mid-sentence or in backticks
        // (docs, this very file) is not an allow attempt.
        let content = t.text.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = content.strip_prefix("xtask:allow") else {
            continue;
        };
        if !rest.trim_start().starts_with('(') {
            continue;
        }
        let (lint, reason_ok) = parse_allow(rest);
        allows.push(Allow {
            lint,
            reason_ok,
            line: t.line,
            col: t.col,
            used: false,
            text: t.text.trim_start_matches('/').trim().to_string(),
        });
    }
    allows
}

/// Parses `"(lint-name): reason"`; returns the lint (if recognised) and
/// whether the reason is substantive.
fn parse_allow(rest: &str) -> (Option<Lint>, bool) {
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix('(') else {
        return (None, false);
    };
    let Some(close) = inner.find(')') else {
        return (None, false);
    };
    let lint = Lint::from_name(inner[..close].trim());
    let after = inner[close + 1..].trim_start();
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
    (lint, reason.len() >= 10)
}

fn apply_allows(raw: Vec<Violation>, mut allows: Vec<Allow>) -> Vec<Violation> {
    let mut out = Vec::new();
    for v in raw {
        let slot = allows
            .iter_mut()
            .find(|a| a.lint == Some(v.lint) && (a.line == v.line || a.line + 1 == v.line));
        match slot {
            Some(a) if a.reason_ok => a.used = true,
            Some(a) => {
                // Mark used so it is not *also* reported as unused; the
                // missing justification is the actionable finding.
                a.used = true;
                out.push(v);
            }
            None => out.push(v),
        }
    }
    for a in &allows {
        if a.lint.is_some() && a.used && !a.reason_ok {
            out.push(Violation {
                lint: Lint::BadAllow,
                line: a.line,
                col: a.col,
                message: format!(
                    "`{}` needs a substantive reason after the colon (≥ 10 chars)",
                    a.text
                ),
            });
        }
        if a.lint.is_none() {
            out.push(Violation {
                lint: Lint::BadAllow,
                line: a.line,
                col: a.col,
                message: format!("`{}` does not name a known lint", a.text),
            });
        } else if !a.used {
            out.push(Violation {
                lint: Lint::UnusedAllow,
                line: a.line,
                col: a.col,
                message: format!("`{}` suppresses nothing on this or the next line", a.text),
            });
        }
    }
    out.sort_by_key(|v| (v.line, v.col));
    out
}

// ---------------------------------------------------------------------------
// Test-code exemption
// ---------------------------------------------------------------------------

/// Returns the set of lines that belong to `#[cfg(test)]` items or
/// `#[test]` functions, via attribute detection + brace tracking.
///
/// Public because the item parser ([`crate::parser`]) reuses the exact
/// same exemption to keep the effect analysis and the token lints in
/// agreement about what counts as test code.
pub fn test_exempt_lines(code: &[&Token]) -> std::collections::HashSet<u32> {
    let mut exempt = std::collections::HashSet::new();
    let mut depth: i32 = 0;
    let mut exempt_until: Vec<i32> = Vec::new(); // stack of depths
    let mut pending_test_attr = false;
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        if !exempt_until.is_empty() {
            exempt.insert(t.line);
        }
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "#") => {
                // `#![...]` inner attributes never start a test item.
                let inner = matches!(code.get(i + 1), Some(n) if n.text == "!");
                let open = if inner { i + 2 } else { i + 1 };
                if matches!(code.get(open), Some(n) if n.text == "[") {
                    let close = matching_bracket(code, open);
                    if !inner && attr_marks_test(&code[open + 1..close]) {
                        pending_test_attr = true;
                        // The attribute's own lines are exempt too.
                        for tok in &code[i..=close.min(code.len() - 1)] {
                            exempt.insert(tok.line);
                        }
                    }
                    i = close + 1;
                    continue;
                }
            }
            (TokenKind::Punct, "{") => {
                depth += 1;
                if pending_test_attr {
                    pending_test_attr = false;
                    exempt_until.push(depth);
                    exempt.insert(t.line);
                }
            }
            (TokenKind::Punct, "}") => {
                if exempt_until.last() == Some(&depth) {
                    exempt_until.pop();
                    exempt.insert(t.line);
                }
                depth -= 1;
            }
            // `#[cfg(test)] use foo;` — attribute applied to a braceless
            // item; nothing to exempt beyond it.
            (TokenKind::Punct, ";") if pending_test_attr && exempt_until.is_empty() => {
                pending_test_attr = false;
            }
            _ => {}
        }
        if pending_test_attr {
            exempt.insert(t.line);
        }
        i += 1;
    }
    exempt
}

/// Whether an attribute body (tokens between `[` and `]`) marks test code:
/// `test`, `cfg(test)`, `cfg(any(test, ...))`, `cfg(all(test, ...))`.
fn attr_marks_test(body: &[&Token]) -> bool {
    match body.first().map(|t| t.text.as_str()) {
        Some("test") if body.len() == 1 => true,
        Some("cfg") => body
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "test"),
        _ => false,
    }
}

fn matching_bracket(code: &[&Token], open: usize) -> usize {
    let (open_ch, close_ch) = match code[open].text.as_str() {
        "[" => ("[", "]"),
        "(" => ("(", ")"),
        "{" => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            if t.text == open_ch {
                depth += 1;
            } else if t.text == close_ch {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
    }
    code.len() - 1
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

fn determinism_pass(code: &[&Token], out: &mut Vec<Violation>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "thread_rng" | "from_entropy" => out.push(Violation {
                lint: Lint::AmbientEntropy,
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}()` draws ambient entropy; thread an explicit `u64` seed instead \
                     (`SmallRng::seed_from_u64`)",
                    t.text
                ),
            }),
            "random" if path_prefix_is(code, i, "rand") => out.push(Violation {
                lint: Lint::AmbientEntropy,
                line: t.line,
                col: t.col,
                message: "`rand::random` draws ambient entropy; thread an explicit `u64` seed \
                          instead"
                    .to_string(),
            }),
            "SystemTime" | "Instant" if path_suffix_is(code, i, "now") => out.push(Violation {
                lint: Lint::WallClock,
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}::now()` makes results depend on the wall clock; take the time (or \
                         a seed) as a parameter",
                    t.text
                ),
            }),
            _ => {}
        }
    }
}

/// Method names whose receiver being a `HashMap`/`HashSet` means the
/// call observes (or depends on) the container's unspecified order.
const UNORDERED_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Finds `HashMap`/`HashSet` iteration sites in a token slice.
///
/// Heuristic, deliberately shared between the token lint and the effect
/// seeder: a name is *unordered-bound* when a `let` statement binding it
/// mentions `HashMap`/`HashSet` before its terminating `;`, or when a
/// `name: ..HashMap..` parameter appears in `sig`. A site is reported
/// when an unordered-bound name is iterated — `name.iter()`-family
/// calls, or `for .. in [&[mut]] name {`. Field accesses and opaque
/// return types are out of reach at token level; the call-graph layer
/// is what makes the under-approximation acceptable (helpers that
/// iterate are still caught at their own definition site).
///
/// Returns `(line, col, description)` triples.
pub fn unordered_iter_sites(sig: &[&Token], body: &[&Token]) -> Vec<(u32, u32, String)> {
    let mut bound: Vec<String> = Vec::new();
    // Parameter bindings: `name : .. HashMap ..` up to the next `,` or
    // closing paren of the type span.
    let mut k = 0usize;
    while k < sig.len() {
        let t = sig[k];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, _)
                if sig.get(k + 1).is_some_and(|n| n.text == ":")
                    && sig.get(k + 2).is_some_and(|n| n.text != ":") =>
            {
                // Scan the type span for the unordered containers.
                let mut j = k + 2;
                let mut d = 0i32;
                while j < sig.len() {
                    let u = sig[j];
                    match (u.kind, u.text.as_str()) {
                        (TokenKind::Punct, "(" | "[" | "<") => d += 1,
                        (TokenKind::Punct, ")" | "]" | ">") if d > 0 => d -= 1,
                        (TokenKind::Punct, "," | ")") if d == 0 => break,
                        (TokenKind::Ident, "HashMap" | "HashSet") => {
                            bound.push(t.text.clone());
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    // Local bindings: `let [mut] name .. HashMap ..;`.
    let mut i = 0usize;
    while i < body.len() {
        let t = body[i];
        if t.kind == TokenKind::Ident && t.text == "let" {
            let mut n = i + 1;
            if body.get(n).is_some_and(|u| u.text == "mut") {
                n += 1;
            }
            if let Some(name) = body.get(n).filter(|u| u.kind == TokenKind::Ident) {
                let mut j = n + 1;
                let mut d = 0i32;
                while j < body.len() {
                    let u = body[j];
                    match (u.kind, u.text.as_str()) {
                        (TokenKind::Punct, "(" | "[" | "{") => d += 1,
                        (TokenKind::Punct, ")" | "]" | "}") => d -= 1,
                        (TokenKind::Punct, ";") if d <= 0 => break,
                        (TokenKind::Ident, "HashMap" | "HashSet") => {
                            bound.push(name.text.clone());
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        i += 1;
    }
    if bound.is_empty() {
        return Vec::new();
    }

    let mut sites = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name.iter()` / `name.keys()` / ... on an unordered-bound name.
        if bound.contains(&t.text)
            && body.get(i + 1).is_some_and(|n| n.text == ".")
            && body.get(i + 3).is_some_and(|n| n.text == "(")
        {
            if let Some(m) = body.get(i + 2) {
                if UNORDERED_ITER_METHODS.contains(&m.text.as_str()) {
                    sites.push((
                        t.line,
                        t.col,
                        format!("`{}.{}()` iterates a HashMap/HashSet", t.text, m.text),
                    ));
                }
            }
        }
        // `for x in [&[mut]] name {` — direct IntoIterator use.
        if t.text == "in" {
            let mut n = i + 1;
            while body
                .get(n)
                .is_some_and(|u| u.text == "&" || u.text == "mut")
            {
                n += 1;
            }
            if let Some(name) = body.get(n).filter(|u| u.kind == TokenKind::Ident) {
                if bound.contains(&name.text) && body.get(n + 1).is_some_and(|u| u.text == "{") {
                    sites.push((
                        name.line,
                        name.col,
                        format!("`for .. in {}` iterates a HashMap/HashSet", name.text),
                    ));
                }
            }
        }
    }
    sites
}

/// The `unordered-iter` lint: flags HashMap/HashSet iteration anywhere
/// in the file (file-wide binding tracking, no signature context).
fn unordered_iter_pass(code: &[&Token], out: &mut Vec<Violation>) {
    for (line, col, what) in unordered_iter_sites(&[], code) {
        out.push(Violation {
            lint: Lint::UnorderedIter,
            line,
            col,
            message: format!(
                "{what}; iteration order is unspecified and can reorder results — use \
                 `BTreeMap`/`BTreeSet` or sort before iterating"
            ),
        });
    }
}

/// The `unsafe-island` gate: any `unsafe` token in a file outside the
/// declared island modules (scope decides which files the pass sees).
fn unsafe_island_pass(code: &[&Token], out: &mut Vec<Violation>) {
    for t in code {
        if t.kind == TokenKind::Ident && t.text == "unsafe" {
            out.push(Violation {
                lint: Lint::UnsafeIsland,
                line: t.line,
                col: t.col,
                message: "`unsafe` outside a declared island module; add the module to \
                          `UNSAFE_ISLANDS` (crates/xtask/src/lib.rs) with review, or keep \
                          the code safe"
                    .to_string(),
            });
        }
    }
}

/// True when `code[i]` is preceded by `prefix ::`.
fn path_prefix_is(code: &[&Token], i: usize, prefix: &str) -> bool {
    i >= 3 && code[i - 1].text == ":" && code[i - 2].text == ":" && code[i - 3].text == prefix
}

/// True when `code[i]` is followed by `:: suffix`.
fn path_suffix_is(code: &[&Token], i: usize, suffix: &str) -> bool {
    code.get(i + 1).is_some_and(|t| t.text == ":")
        && code.get(i + 2).is_some_and(|t| t.text == ":")
        && code.get(i + 3).is_some_and(|t| t.text == suffix)
}

// ---------------------------------------------------------------------------
// Panic-freedom
// ---------------------------------------------------------------------------

fn panic_pass(code: &[&Token], out: &mut Vec<Violation>) {
    for (i, t) in code.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "unwrap" | "expect")
                if i > 0
                    && code[i - 1].text == "."
                    && code.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                let lint = if t.text == "unwrap" {
                    Lint::Unwrap
                } else {
                    Lint::Expect
                };
                out.push(Violation {
                    lint,
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`.{}()` panics in library code; return the crate's typed `Error` \
                         (`?`, `ok_or_else`) so fleet runs fail softly",
                        t.text
                    ),
                });
            }
            (TokenKind::Ident, "panic" | "unreachable" | "todo" | "unimplemented")
                if code.get(i + 1).is_some_and(|n| n.text == "!")
                    && (i == 0 || code[i - 1].text != ".") =>
            {
                out.push(Violation {
                    lint: Lint::Panic,
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}!` aborts the caller; return a typed `Error` instead",
                        t.text
                    ),
                });
            }
            (TokenKind::Punct, "[") if i > 0 && is_index_base(code[i - 1]) => {
                // `x[..]` / `f()[..]` / `m[i][j]` — but not attributes
                // (`#[...]`), macro brackets (`vec![..]`), array types or
                // array literals (preceded by punctuation).
                out.push(Violation {
                    lint: Lint::Index,
                    line: t.line,
                    col: t.col,
                    message: "slice indexing panics out-of-bounds; prefer `get`/iterators, or \
                              justify with `xtask:allow(index)`"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

/// Whether the token before `[` makes it an *indexing* bracket.
fn is_index_base(prev: &Token) -> bool {
    match prev.kind {
        TokenKind::Ident => !matches!(
            prev.text.as_str(),
            // Keywords that can directly precede an array literal/pattern
            // or a slice type (`impl Trait for [T]`).
            "return"
                | "break"
                | "in"
                | "as"
                | "mut"
                | "ref"
                | "else"
                | "match"
                | "if"
                | "move"
                | "for"
        ),
        TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Hot-path allocation hygiene
// ---------------------------------------------------------------------------

/// Flags fresh allocations inside hot function bodies — functions whose
/// names start with one of the scope's `hot_path` prefixes (layer
/// `forward*`/`backward*` bodies run once per training iteration; the
/// GEMM drivers/packers/microkernels run inside the innermost matmul
/// loops). Steady-state epochs are supposed to run allocation-free out of
/// the `Workspace` arena; a stray `Tensor::zeros` or buffer copy there
/// silently reintroduces per-step heap traffic. O(1) copy-on-write handle
/// clones are fine but must say so via the allow hatch, so every
/// remaining `clone()` in a hot path is a documented decision.
fn hot_path_pass(code: &[&Token], prefixes: &[&str], out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        let is_hot_fn = t.kind == TokenKind::Ident
            && t.text == "fn"
            && code.get(i + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident && prefixes.iter().any(|p| n.text.starts_with(p))
            });
        if !is_hot_fn {
            i += 1;
            continue;
        }
        // Skip the signature: the body opens at the first `{` outside
        // parens/brackets; a `;` there instead means a bodyless trait
        // method declaration.
        let mut j = i + 2;
        let mut nesting = 0i32;
        while j < code.len() {
            let u = code[j];
            if u.kind == TokenKind::Punct {
                match u.text.as_str() {
                    "(" | "[" => nesting += 1,
                    ")" | "]" => nesting -= 1,
                    "{" | ";" if nesting == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if j >= code.len() || code[j].text == ";" {
            i = j + 1;
            continue;
        }
        let close = matching_bracket(code, j);
        scan_hot_body(&code[j..=close], out);
        i = close + 1;
    }
}

/// Reports allocation/copy calls within one hot function body.
fn scan_hot_body(body: &[&Token], out: &mut Vec<Violation>) {
    for (k, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "new" | "with_capacity" if path_prefix_is(body, k, "Vec") => out.push(Violation {
                lint: Lint::HotPathAlloc,
                line: t.line,
                col: t.col,
                message: format!(
                    "`Vec::{}` allocates every iteration in a layer hot path; reuse a \
                     scratch buffer or the `Workspace` arena, or justify with \
                     `xtask:allow(hot-path-alloc)`",
                    t.text
                ),
            }),
            // `vec![…]` / `vec!(…)`: the macro bang plus an open delimiter —
            // this cannot be the rare `vec != …` (the `!` there is fused
            // into `!=`, never followed by a delimiter).
            "vec"
                if body.get(k + 1).is_some_and(|n| n.text == "!")
                    && body
                        .get(k + 2)
                        .is_some_and(|n| matches!(n.text.as_str(), "[" | "(" | "{")) =>
            {
                out.push(Violation {
                    lint: Lint::HotPathAlloc,
                    line: t.line,
                    col: t.col,
                    message: "`vec![…]` allocates every iteration in a layer hot path; reuse a \
                              scratch buffer or the `Workspace` arena, or justify with \
                              `xtask:allow(hot-path-alloc)`"
                        .to_string(),
                })
            }
            "zeros" | "ones" | "full" if path_prefix_is(body, k, "Tensor") => out.push(Violation {
                lint: Lint::HotPathAlloc,
                line: t.line,
                col: t.col,
                message: format!(
                    "`Tensor::{}` allocates every iteration in a layer hot path; take the \
                     buffer from the `Workspace` arena (`ws.take`) or justify with \
                     `xtask:allow(hot-path-alloc)`",
                    t.text
                ),
            }),
            "clone" | "to_vec"
                if k > 0
                    && body[k - 1].text == "."
                    && body.get(k + 1).is_some_and(|n| n.text == "(")
                    // `.dims().to_vec()` copies a handful of `usize` shape
                    // entries, not a data buffer — not worth an allow each.
                    && !(k >= 4 && body[k - 4].text == "dims" && body[k - 2].text == ")") =>
            {
                out.push(Violation {
                    lint: Lint::HotPathAlloc,
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`.{}()` in a layer hot path copies a buffer every iteration; reuse \
                         workspace storage, or justify with `xtask:allow(hot-path-alloc)` \
                         (O(1) copy-on-write handle clones qualify)",
                        t.text
                    ),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Artifact-write hygiene
// ---------------------------------------------------------------------------

/// Flags direct artifact writes — `fs::write` (incl. `std::fs::write`),
/// `File::create`, `fs::rename`, and raw file syncs (`.sync_all()` /
/// `.sync_data()`) — outside `reduce_core::artifact`, the one sanctioned
/// temp-file+rename call site. A direct write can be interrupted half way
/// and leave a torn manifest/run-log/CSV/journal behind; a raw rename or
/// fsync bypasses the write→sync→rename→dir-sync durability ordering the
/// atomic writer enforces (and the IO-fault injection seam that tests it),
/// breaking the crash-safety contract that checkpoint/resume and the CI
/// artifact diffs rely on.
fn artifact_io_pass(code: &[&Token], out: &mut Vec<Violation>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "write" if path_prefix_is(code, i, "fs") => out.push(Violation {
                lint: Lint::ArtifactIo,
                line: t.line,
                col: t.col,
                message: "`fs::write` is not crash-safe; route artifact writes through \
                          `reduce_core::artifact::write_atomic` (temp file + rename), or \
                          justify with `xtask:allow(artifact-io)`"
                    .to_string(),
            }),
            "create" if path_prefix_is(code, i, "File") => out.push(Violation {
                lint: Lint::ArtifactIo,
                line: t.line,
                col: t.col,
                message: "`File::create` truncates in place and is not crash-safe; route \
                          artifact writes through `reduce_core::artifact::write_atomic` \
                          (temp file + rename), or justify with `xtask:allow(artifact-io)`"
                    .to_string(),
            }),
            "rename" if path_prefix_is(code, i, "fs") => out.push(Violation {
                lint: Lint::ArtifactIo,
                line: t.line,
                col: t.col,
                message: "`fs::rename` outside the atomic writer publishes data that was \
                          never fsynced; route artifact writes through \
                          `reduce_core::artifact::write_atomic` (which orders \
                          write→sync→rename→dir-sync), or justify with \
                          `xtask:allow(artifact-io)`"
                    .to_string(),
            }),
            "sync_all" | "sync_data"
                if i > 0
                    && code[i - 1].text == "."
                    && code.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                out.push(Violation {
                    lint: Lint::ArtifactIo,
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "raw `.{}()` bypasses the atomic writer's durability ordering and \
                         its IO-fault injection seam; route artifact writes through \
                         `reduce_core::artifact::write_atomic`, or justify with \
                         `xtask:allow(artifact-io)`",
                        t.text
                    ),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Numeric safety
// ---------------------------------------------------------------------------

fn numeric_pass(code: &[&Token], out: &mut Vec<Violation>) {
    for (i, t) in code.iter().enumerate() {
        // `==` / `!=` with a float-literal operand. `==` is two adjacent
        // `=` puncts (its second `=` cannot re-match: the token after it
        // is an operand); `!=` is `!` + `=` adjacent. Compound operators
        // (`<=`, `+=`, `>>=`) put their `=` last, so neither shape
        // matches them.
        let op = if t.kind != TokenKind::Punct {
            None
        } else if t.text == "="
            && code
                .get(i + 1)
                .is_some_and(|n| n.text == "=" && n.offset == t.offset + 1)
        {
            Some("==")
        } else if t.text == "!"
            && code
                .get(i + 1)
                .is_some_and(|n| n.text == "=" && n.offset == t.offset + 1)
        {
            Some("!=")
        } else {
            None
        };
        if let Some(op) = op {
            let float_lhs = i > 0 && code[i - 1].kind == TokenKind::Float;
            // Allow a unary minus before the rhs literal.
            let j = i + 2 + usize::from(code.get(i + 2).is_some_and(|n| n.text == "-"));
            let float_rhs = code.get(j).is_some_and(|n| n.kind == TokenKind::Float);
            if float_lhs || float_rhs {
                out.push(Violation {
                    lint: Lint::FloatEq,
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{op}` on floats is exact bit comparison; use an epsilon (or \
                         justify the exact-zero semantics with `xtask:allow(float-eq)`)"
                    ),
                });
            }
        }
        // `expr as f32` where expr mentions f64.
        if t.kind == TokenKind::Ident
            && t.text == "as"
            && code.get(i + 1).is_some_and(|n| n.text == "f32")
            && i > 0
            && cast_source_mentions_f64(code, i)
        {
            out.push(Violation {
                lint: Lint::LossyFloatCast,
                line: t.line,
                col: t.col,
                message: "`f64 as f32` silently drops precision; keep the accumulation in one \
                          width or justify with `xtask:allow(lossy-float-cast)`"
                    .to_string(),
            });
        }
    }
}

/// Walks the postfix expression before `as` (idents, field/method chains,
/// matched parens/brackets) and reports whether it mentions `f64`.
fn cast_source_mentions_f64(code: &[&Token], as_idx: usize) -> bool {
    let mut j = as_idx as isize - 1;
    let lower = as_idx.saturating_sub(64) as isize; // bounded walk
    while j >= lower {
        let t = code[j as usize];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "f64") => return true,
            (TokenKind::Ident, name) if name.contains("f64") => return true,
            (TokenKind::Float, text) if text.ends_with("f64") => return true,
            (TokenKind::Ident | TokenKind::Int | TokenKind::Float | TokenKind::Str, _) => j -= 1,
            (TokenKind::Punct, ")" | "]") => {
                // Jump to the matching opener.
                let (close, open) = if t.text == ")" {
                    (")", "(")
                } else {
                    ("]", "[")
                };
                let mut depth = 0i32;
                while j >= 0 {
                    let u = code[j as usize];
                    if u.kind == TokenKind::Punct {
                        if u.text == close {
                            depth += 1;
                        } else if u.text == open {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                    } else if (u.kind == TokenKind::Ident && u.text.contains("f64"))
                        || (u.kind == TokenKind::Float && u.text.ends_with("f64"))
                    {
                        return true;
                    }
                    j -= 1;
                }
                j -= 1;
            }
            (TokenKind::Punct, "." | ":") => j -= 1,
            _ => break,
        }
    }
    false
}

/// Aggregates violations into `(lint-name -> count)` for baseline keys.
///
/// Returns a `BTreeMap` so everything downstream — report rendering,
/// baseline emission, JSON output — inherits a deterministic iteration
/// order. (The linter enforces `unordered-iter` on the workspace; this
/// is it holding itself to the same rule.)
pub fn count_by_lint(violations: &[Violation]) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for v in violations {
        *counts.entry(v.lint.name().to_string()).or_insert(0u64) += 1;
    }
    counts
}
