//! Paper-scale pipeline benchmark for the Reduce reproduction.
//!
//! ```text
//! paperbench --workload vgg-characterize|vgg-fleet|mlp-fleet-stream \
//!     --seed N --seconds S --trace 0|1 [--threads T] [--work-dir DIR] \
//!     [--commit ID]
//! ```
//!
//! Each workload drives the public pipeline API the way `fig2`/`fig3` do:
//! set up (`Reduce::new` plus the fixed inputs) a few times, then repeat
//! the workload's stage call (`Reduce::characterize` or
//! `FleetEvaluation::run`) until `--seconds` of stage time have passed.
//! The untraced run (`--trace 0`) reports the end-to-end metrics; the
//! traced run (`--trace 1`) reports per-layer metrics (see `trace.rs`).
//! Both run the correctness checks; any failing check makes the process
//! exit with code 1. The last line of stdout is one JSON result object.
//! See `paperbench/README.md` for the metric definitions.

mod trace;

use reduce_core::telemetry::{Event, Observer};
use reduce_core::{
    inspect_journal, Checkpoint, ChipSource, ExecConfig, FleetEvaluation, FleetReport,
    FleetStrategy, JournalStatus, Reduce, ResilienceConfig, ResilienceTable, RetrainPolicy,
    SeededChips, Statistic, Workbench,
};
use reduce_nn::layers::Mode;
use reduce_nn::Workspace;
use reduce_systolic::{Chip, ClusterConfig, FaultModel, FleetConfig, RateDistribution};
use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

type Res<T> = Result<T, Box<dyn Error>>;

/// The `--scale default` characterisation rates (Fig. 2).
pub const GRID_RATES: [f64; 7] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30];
/// FAT epochs per grid cell (the `--scale default` grid).
const GRID_EPOCHS: usize = 16;
/// Chips in the `vgg-fleet` workload (each retrained by both strategies).
const VGG_FLEET_CHIPS: usize = 32;
/// Chips streamed by `mlp-fleet-stream`.
const STREAM_CHIPS: usize = 10_000;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Step ① on the nano-VGG workbench.
    Characterize,
    /// Steps ②+③ on the nano-VGG workbench: Reduce(max) per chip, then eFAT.
    Fleet,
    /// Steps ②+③ on the toy MLP workbench, streamed and journaled.
    Stream,
}

impl Kind {
    fn parse(name: &str) -> Res<Kind> {
        match name {
            "vgg-characterize" => Ok(Kind::Characterize),
            "vgg-fleet" => Ok(Kind::Fleet),
            "mlp-fleet-stream" => Ok(Kind::Stream),
            other => Err(format!(
                "unknown workload {other:?} (vgg-characterize|vgg-fleet|mlp-fleet-stream)"
            )
            .into()),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Characterize => "vgg-characterize",
            Kind::Fleet => "vgg-fleet",
            Kind::Stream => "mlp-fleet-stream",
        }
    }

    /// The given DNN's workbench: fixed for every seed.
    pub fn workbench(self) -> Workbench {
        match self {
            Kind::Characterize | Kind::Fleet => Workbench::paper_scale(500, 500, 1),
            Kind::Stream => Workbench::toy(1),
        }
    }

    fn pretrain_epochs(self) -> usize {
        match self {
            Kind::Characterize | Kind::Fleet => 40,
            Kind::Stream => 15,
        }
    }

    pub fn constraint(self) -> f32 {
        match self {
            Kind::Characterize | Kind::Fleet => 0.91,
            Kind::Stream => 0.90,
        }
    }

    /// Set-up repetitions per run; `setup_s` is their median. Pre-training
    /// nano-VGG takes seconds, the toy MLP milliseconds.
    fn setup_reps(self) -> usize {
        match self {
            Kind::Characterize | Kind::Fleet => 3,
            Kind::Stream => 25,
        }
    }

    /// Chips in the workload's fleet (0: no fleet).
    fn fleet_chips(self) -> usize {
        match self {
            Kind::Characterize => 0,
            Kind::Fleet => VGG_FLEET_CHIPS,
            Kind::Stream => STREAM_CHIPS,
        }
    }

    /// The checked-in resilience table and its expected epoch cap.
    fn table_file(self) -> Option<(&'static str, usize)> {
        match self {
            Kind::Characterize => None,
            Kind::Fleet => Some(("vgg_table.txt", GRID_EPOCHS)),
            Kind::Stream => Some(("mlp_table.txt", 8)),
        }
    }
}

/// splitmix64: derives independent seeds from the workload seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Step-① grid of `vgg-characterize`: the default rates, one repeat.
pub fn grid_config(seed: u64, constraint: f32, max_epochs: usize) -> Res<ResilienceConfig> {
    Ok(ResilienceConfig::builder()
        .fault_rates(GRID_RATES.to_vec())
        .max_epochs(max_epochs)
        .repeats(1)
        .constraint(constraint)
        .seed(mix(seed ^ 0x6A1D))
        .build()?)
}

/// A seeded fleet whose per-chip fault *rates* are a fixed low-discrepancy
/// sample of Uniform(0, 0.30) — so every seed prices the same epoch
/// budgets — while the fault *positions* come from [`SeededChips`] under a
/// seed derived from the workload seed. Chip `id` is the same in a fleet
/// of any size, and any prefix of the fleet spreads over the whole range.
pub struct StratifiedChips {
    base: FleetConfig,
}

impl StratifiedChips {
    pub fn new(chips: usize, (rows, cols): (usize, usize), seed: u64) -> Self {
        StratifiedChips {
            base: FleetConfig {
                chips,
                rows,
                cols,
                rates: RateDistribution::Fixed(0.0),
                model: FaultModel::Random,
                seed: mix(seed ^ 0xF1EE7),
            },
        }
    }

    fn rate(&self, id: usize) -> f64 {
        // Weyl sequence with the golden-ratio step, snapped to 1e-4.
        let u = (0.5 + id as f64 * 0.618_033_988_749_894_9).fract();
        (u * 0.30 * 1e4).round() / 1e4
    }

    fn seeded(&self, id: usize) -> SeededChips {
        SeededChips::new(FleetConfig {
            rates: RateDistribution::Fixed(self.rate(id)),
            ..self.base
        })
    }
}

impl ChipSource for StratifiedChips {
    fn len(&self) -> usize {
        self.base.chips
    }

    fn chip(&self, id: usize) -> reduce_core::Result<Chip> {
        self.seeded(id).chip(id)
    }

    fn fault_rate(&self, id: usize) -> reduce_core::Result<f64> {
        self.seeded(id).fault_rate(id)
    }
}

/// The fleet strategies a workload runs, in order.
pub fn strategies(kind: Kind) -> Vec<(&'static str, FleetStrategy)> {
    match kind {
        Kind::Characterize => Vec::new(),
        Kind::Fleet => vec![
            ("reduce", FleetStrategy::PerChip),
            ("efat", FleetStrategy::Clustered(ClusterConfig::default())),
        ],
        Kind::Stream => vec![("reduce", FleetStrategy::PerChip)],
    }
}

/// Event tallies from the benchmark-side observer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub epochs: u64,
    pub chip_events: u64,
    pub satisfied_events: u64,
    pub points: u64,
    pub ws_hits: u64,
    pub ws_misses: u64,
    pub clusters: u64,
    pub warm_starts: u64,
}

/// An [`Observer`] that tallies the events the metrics and checks need.
#[derive(Default)]
pub struct Counter(Mutex<Tally>);

impl Counter {
    pub fn take(&self) -> Tally {
        self.0
            .lock()
            .map(|mut t| std::mem::take(&mut *t))
            .unwrap_or_default()
    }
}

impl Observer for Counter {
    fn on_event(&self, event: &Event) {
        let Ok(mut t) = self.0.lock() else { return };
        match event {
            Event::EpochCompleted { .. } => t.epochs += 1,
            Event::ChipRetrained { satisfied, .. } => {
                t.chip_events += 1;
                t.satisfied_events += u64::from(*satisfied);
            }
            Event::PointFinished { .. } => t.points += 1,
            Event::WorkspaceUsed { hits, misses, .. } => {
                t.ws_hits += hits;
                t.ws_misses += misses;
            }
            Event::ClusterFormed { .. } => t.clusters += 1,
            Event::WarmStartHit { .. } => t.warm_starts += 1,
            _ => {}
        }
    }
}

/// One FAT job's result, accuracies as bit patterns so that comparisons
/// are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobResult {
    pub epochs_run: usize,
    pub pre_acc: u32,
    pub final_acc: u32,
    /// Accuracy after the first FAT epoch, where the pipeline reports it
    /// (grid cells; a fleet report keeps only the final accuracy).
    pub first_acc: Option<u32>,
}

impl JobResult {
    /// A grid cell's result from its pre-retrain accuracy and per-epoch
    /// accuracies.
    pub fn cell(pre: f32, accs: &[f32]) -> Self {
        JobResult {
            epochs_run: accs.len(),
            pre_acc: pre.to_bits(),
            final_acc: accs.last().copied().unwrap_or(pre).to_bits(),
            first_acc: accs.first().map(|a| a.to_bits()),
        }
    }
}

/// One strategy's share of a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOut {
    pub label: &'static str,
    pub attempted: usize,
    pub evaluated: usize,
    pub quarantined: usize,
    pub satisfied: usize,
    pub epochs: usize,
    pub acc_sum: f64,
    pub clusters: usize,
    pub warm_started: usize,
    pub tally: Tally,
    /// Per-job results keyed by chip id (per-chip strategies) or grid
    /// cell index, when collected.
    pub jobs: BTreeMap<usize, JobResult>,
}

/// The deterministic result of one stage call.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOut {
    pub parts: Vec<StrategyOut>,
    /// Journal records appended (`mlp-fleet-stream`). Bytes written are
    /// left out: the open shard is rewritten on every append, so their sum
    /// depends on the order in which the workers seal batches.
    pub journal: Option<usize>,
}

impl StageOut {
    fn sum(&self, f: impl Fn(&StrategyOut) -> usize) -> usize {
        self.parts.iter().map(f).sum()
    }
    pub fn attempted(&self) -> usize {
        self.sum(|p| p.attempted)
    }
    pub fn failed(&self) -> usize {
        self.sum(|p| p.quarantined)
    }
    pub fn epochs(&self) -> usize {
        self.sum(|p| p.epochs)
    }
    pub fn satisfied(&self) -> usize {
        self.sum(|p| p.satisfied)
    }
    pub fn evaluated(&self) -> usize {
        self.sum(|p| p.evaluated)
    }
    fn mean_acc(&self) -> f64 {
        let acc: f64 = self.parts.iter().map(|p| p.acc_sum).sum();
        acc / self.evaluated().max(1) as f64
    }
}

/// A set-up workload: the pretrained DNN plus its fixed inputs.
pub struct Bench {
    pub kind: Kind,
    pub seed: u64,
    pub reduce: Reduce,
    pub table: Option<ResilienceTable>,
    pub source: Option<StratifiedChips>,
    pub work_dir: PathBuf,
}

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("data")
}

/// Loads a checked-in resilience table, refusing a missing or malformed
/// file or one whose epoch cap is not the one it was captured with.
fn load_table(file: &str, cap: usize) -> Res<ResilienceTable> {
    let path = data_dir().join(file);
    let table = ResilienceTable::load(&path).map_err(|e| {
        format!(
            "fixed input {} is missing or malformed: {e}",
            path.display()
        )
    })?;
    if table.epoch_cap() != cap || table.entries().is_empty() {
        return Err(format!(
            "fixed input {} has epoch cap {} (expected {cap})",
            path.display(),
            table.epoch_cap()
        )
        .into());
    }
    Ok(table)
}

/// Set-up: pre-training (`Reduce::new`, which materialises the workbench
/// datasets) plus loading the fixed inputs.
fn setup(kind: Kind, seed: u64, work_dir: &Path) -> Res<Bench> {
    let reduce = Reduce::new(kind.workbench(), kind.constraint(), kind.pretrain_epochs())?;
    let table = match kind.table_file() {
        Some((file, cap)) => Some(load_table(file, cap)?),
        None => None,
    };
    let dims = reduce.runner().workbench().array_dims();
    Ok(Bench {
        kind,
        seed,
        reduce,
        table,
        source: (kind.fleet_chips() > 0)
            .then(|| StratifiedChips::new(kind.fleet_chips(), dims, seed)),
        work_dir: work_dir.to_path_buf(),
    })
}

/// The job key of grid cell `(rate_index, repeat)`.
pub fn cell_key(rate_index: usize, repeat: usize) -> usize {
    rate_index * 1000 + repeat
}

impl Bench {
    fn table(&self) -> Res<&ResilienceTable> {
        self.table
            .as_ref()
            .ok_or_else(|| "workload has no resilience table".into())
    }

    fn source(&self) -> Res<&StratifiedChips> {
        self.source
            .as_ref()
            .ok_or_else(|| "workload has no fleet".into())
    }

    /// A fleet of the workload's chip geometry: chip `id` is chip `id` of
    /// the workload's own fleet.
    pub fn fleet_of(&self, chips: usize) -> StratifiedChips {
        let dims = self.reduce.runner().workbench().array_dims();
        StratifiedChips::new(chips, dims, self.seed)
    }

    /// Retrains `source` under Reduce(max) with each strategy in turn, at
    /// `threads` workers, journaling into `journal` if given. `collect`
    /// keeps the per-chip strategies' per-job results.
    pub fn run_fleet(
        &self,
        source: &dyn ChipSource,
        table: &ResilienceTable,
        strategies: Vec<(&'static str, FleetStrategy)>,
        threads: usize,
        journal: Option<&Checkpoint>,
        collect: bool,
    ) -> Res<Vec<StrategyOut>> {
        let counter = Arc::new(Counter::default());
        let exec = ExecConfig::new(threads).with_observer(counter.clone());
        let mut parts = Vec::new();
        for (label, strategy) in strategies {
            let per_chip = matches!(strategy, FleetStrategy::PerChip);
            let mut eval = FleetEvaluation::new(
                RetrainPolicy::Reduce(Statistic::Max),
                self.kind.constraint(),
            )
            .source(source)
            .table(table)
            .fleet_strategy(strategy)
            .collect_outcomes(collect)
            .exec(&exec);
            if let Some(cp) = journal {
                eval = eval.journal(cp);
            }
            let report = eval.run(self.reduce.runner(), self.reduce.pretrained())?;
            parts.push(strategy_out(
                label,
                &report,
                counter.take(),
                source.len(),
                per_chip,
            ));
        }
        Ok(parts)
    }

    fn journal_path(&self) -> PathBuf {
        self.work_dir.join("journal.jsonl")
    }

    /// Removes the stream journal (manifest and shards) left by a
    /// previous stage call.
    fn clear_journal(&self) -> Res<()> {
        for entry in std::fs::read_dir(&self.work_dir)? {
            let path = entry?.path();
            let is_journal = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal"));
            if is_journal && path.is_file() {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// The workload's timed stage call at `threads` workers. `collect`
    /// keeps per-job results (always on for the nano-VGG workloads).
    pub fn stage(&mut self, threads: usize, collect: bool) -> Res<StageOut> {
        match self.kind {
            Kind::Characterize => {
                let counter = Arc::new(Counter::default());
                let exec = ExecConfig::new(threads).with_observer(counter.clone());
                let grid = grid_config(self.seed, self.kind.constraint(), GRID_EPOCHS)?;
                let analysis = self.reduce.characterize(grid, &exec)?;
                let mut part = StrategyOut {
                    label: "grid",
                    attempted: analysis.points().len() + analysis.failures().len(),
                    evaluated: analysis.points().len(),
                    quarantined: analysis.failures().len(),
                    satisfied: 0,
                    epochs: 0,
                    acc_sum: 0.0,
                    clusters: 0,
                    warm_started: 0,
                    tally: counter.take(),
                    jobs: BTreeMap::new(),
                };
                for p in analysis.points() {
                    let job = JobResult::cell(p.pre_retrain_accuracy, &p.accuracy_after_epoch);
                    part.satisfied += usize::from(p.epochs_to_constraint.is_some());
                    part.epochs += job.epochs_run;
                    part.acc_sum += f64::from(f32::from_bits(job.final_acc));
                    part.jobs.insert(cell_key(p.rate_index, p.repeat), job);
                }
                Ok(StageOut {
                    parts: vec![part],
                    journal: None,
                })
            }
            Kind::Fleet | Kind::Stream => {
                let journal = if self.kind == Kind::Stream {
                    self.clear_journal()?;
                    Some(Checkpoint::create(&self.journal_path()))
                } else {
                    None
                };
                let parts = self.run_fleet(
                    self.source()?,
                    self.table()?,
                    strategies(self.kind),
                    threads,
                    journal.as_ref(),
                    collect || self.kind == Kind::Fleet,
                )?;
                let journal = match journal {
                    Some(cp) => Some(cp.io_stats()?.appends as usize),
                    None => None,
                };
                Ok(StageOut { parts, journal })
            }
        }
    }
}

fn strategy_out(
    label: &'static str,
    report: &FleetReport,
    tally: Tally,
    attempted: usize,
    keep_jobs: bool,
) -> StrategyOut {
    let mut jobs = BTreeMap::new();
    if keep_jobs {
        for o in report.outcomes.iter().flatten() {
            jobs.insert(
                o.chip_id,
                JobResult {
                    epochs_run: o.epochs_run,
                    pre_acc: o.pre_retrain_accuracy.to_bits(),
                    final_acc: o.final_accuracy.to_bits(),
                    first_acc: None,
                },
            );
        }
    }
    StrategyOut {
        label,
        attempted,
        evaluated: report.evaluated,
        quarantined: report.quarantined_count(),
        satisfied: report.satisfied,
        epochs: report.total_epochs,
        acc_sum: f64::from(report.mean_accuracy) * report.evaluated as f64,
        clusters: report.clusters,
        warm_started: report.warm_started,
        tally,
        jobs,
    }
}

/// Correctness checks; each failure is one line naming what broke.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: usize,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            let msg = what();
            println!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

/// Bookkeeping checks on one stage result.
fn check_stage(bench: &Bench, out: &StageOut, checks: &mut Checks) -> Res<()> {
    for p in &out.parts {
        checks.check(p.evaluated + p.quarantined == p.attempted, || {
            format!(
                "{}: evaluated {} + quarantined {} != attempted {}",
                p.label, p.evaluated, p.quarantined, p.attempted
            )
        });
        checks.check(p.tally.epochs as usize == p.epochs, || {
            format!(
                "{}: {} EpochCompleted events but {} epochs reported",
                p.label, p.tally.epochs, p.epochs
            )
        });
        match bench.kind {
            Kind::Characterize => {
                let cells = GRID_RATES.len();
                checks.check(p.attempted == cells && p.tally.points as usize == p.evaluated, || {
                    format!(
                        "grid: {} cells attempted, {} PointFinished events, expected rates x repeats = {cells}",
                        p.attempted, p.tally.points
                    )
                });
            }
            Kind::Fleet | Kind::Stream => {
                checks.check(p.satisfied == p.tally.satisfied_events as usize, || {
                    format!(
                        "{}: satisfied {} != {} satisfied ChipRetrained events",
                        p.label, p.satisfied, p.tally.satisfied_events
                    )
                });
                checks.check(p.evaluated == p.tally.chip_events as usize, || {
                    format!(
                        "{}: evaluated {} != {} ChipRetrained events",
                        p.label, p.evaluated, p.tally.chip_events
                    )
                });
                let eft = (p.tally.clusters as usize, p.tally.warm_starts as usize);
                checks.check(eft == (p.clusters, p.warm_started), || {
                    format!(
                        "{}: {} clusters and {} warm starts reported, {eft:?} in events",
                        p.label, p.clusters, p.warm_started
                    )
                });
            }
        }
    }
    if bench.kind != Kind::Characterize {
        // Reduce per chip spends exactly the budget the table selects.
        let table = bench.table()?;
        let source = bench.source()?;
        let mut budget = 0usize;
        for id in 0..source.len() {
            budget += RetrainPolicy::Reduce(Statistic::Max)
                .epochs_for_chip(Some(table), source.fault_rate(id)?)?
                .epochs;
        }
        if let Some(p) = out.parts.iter().find(|p| p.label == "reduce") {
            checks.check(p.epochs == budget, || {
                format!(
                    "fat: reduce spent {} epochs, table budgets sum to {budget}",
                    p.epochs
                )
            });
        }
        if let Some(p) = out.parts.iter().find(|p| p.label == "efat") {
            checks.check(p.epochs <= budget, || {
                format!(
                    "fat: efat spent {} epochs, above the per-chip budget sum {budget}",
                    p.epochs
                )
            });
        }
    }
    if bench.kind == Kind::Stream {
        let health = inspect_journal(&bench.journal_path())?;
        checks.check(health.status == JournalStatus::Clean, || {
            format!(
                "journal: inspect_journal reports {:?}: {:?}",
                health.status, health.notes
            )
        });
    }
    Ok(())
}

/// Thread-count check on a slice of the stage: a one-thread re-run must
/// reproduce the multi-threaded per-job results bit for bit.
fn check_single_thread(
    bench: &mut Bench,
    reference: &StageOut,
    threads: usize,
    checks: &mut Checks,
) -> Res<()> {
    match bench.kind {
        Kind::Characterize => {
            // Cells train epoch by epoch from fixed seeds and a schedule that
            // does not depend on the epoch count, so a one-epoch grid at one
            // thread must reproduce every cell's pre-retrain accuracy and its
            // accuracy after the first epoch.
            let analysis = bench.reduce.characterize(
                grid_config(bench.seed, bench.kind.constraint(), 1)?,
                &ExecConfig::new(1),
            )?;
            let jobs = &reference.parts[0].jobs;
            for p in analysis.points() {
                let key = cell_key(p.rate_index, p.repeat);
                let one = JobResult::cell(p.pre_retrain_accuracy, &p.accuracy_after_epoch);
                let same = jobs
                    .get(&key)
                    .is_some_and(|r| (r.pre_acc, r.first_acc) == (one.pre_acc, one.first_acc));
                checks.check(same && one.epochs_run == 1, || {
                    format!("exec: grid cell {key} differs between 1 and {threads} threads")
                });
            }
        }
        Kind::Fleet | Kind::Stream => {
            let source = bench.fleet_of(if bench.kind == Kind::Fleet { 3 } else { 256 });
            let run = |threads: usize| -> Res<BTreeMap<usize, JobResult>> {
                let reduce = vec![("reduce", FleetStrategy::PerChip)];
                let mut parts =
                    bench.run_fleet(&source, bench.table()?, reduce, threads, None, true)?;
                Ok(parts.pop().map(|p| p.jobs).unwrap_or_default())
            };
            let single = run(1)?;
            // The stream's reference run does not keep per-chip results, so
            // its prefix is re-run at the workload's thread count.
            let multi = match reference.parts[0].jobs.is_empty() {
                true => run(threads)?,
                false => reference.parts[0].jobs.clone(),
            };
            for (id, r) in &single {
                checks.check(multi.get(id) == Some(r), || {
                    format!("exec: chip {id} differs between 1 and {threads} threads")
                });
            }
        }
    }
    Ok(())
}

/// Forward multiply-accumulates per sample of every GEMM layer of
/// `model`, found by pushing one sample through it layer by layer:
/// `(layer index, name, MACs)`.
pub fn layer_macs(
    model: &mut reduce_nn::Sequential,
    sample: &reduce_tensor::Tensor,
) -> Res<Vec<(usize, String, u64)>> {
    let mut ws = Workspace::new();
    let mut x = sample.clone();
    let mut out = Vec::new();
    for i in 0..model.len() {
        let layer = model.layer_mut(i)?;
        let y = layer.forward_ws(&x, Mode::Eval, &mut ws)?;
        if let Some(w) = layer.params().first() {
            let dims = w.value().dims();
            if dims.len() == 2 {
                // Conv weights are (Cout, Cin·K·K) and linear weights
                // (out, in): one weight row per output channel.
                let positions = y.len() / dims[0];
                out.push((i, layer.name(), (positions * w.value().len()) as u64));
            }
        }
        x = y;
    }
    Ok(out)
}

/// The first sample of a batch-major tensor, as a batch of one.
pub fn first_sample(x: &reduce_tensor::Tensor) -> Res<reduce_tensor::Tensor> {
    let mut dims = x.dims().to_vec();
    let stride: usize = dims.iter().skip(1).product();
    dims[0] = 1;
    Ok(reduce_tensor::Tensor::from_vec(
        x.data()[..stride].to_vec(),
        dims,
    )?)
}

/// MACs of one FAT epoch on the workbench: forward, weight-gradient and
/// input-gradient GEMMs over the training set, plus the test-set eval.
pub fn macs_per_epoch(bench: &Bench) -> Res<u64> {
    let runner = bench.reduce.runner();
    let wb = runner.workbench();
    let mut model = wb.model.build(wb.seed)?;
    let sample = first_sample(runner.train_data().features())?;
    let per_sample: u64 = layer_macs(&mut model, &sample)?.iter().map(|l| l.2).sum();
    let train = runner.train_data().labels().len() as u64;
    let test = runner.test_data().labels().len() as u64;
    Ok(per_sample * (3 * train + test))
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Exact work counters of a stage that do not depend on the seed.
fn exact_counters(bench: &Bench, out: &StageOut, macs: u64) -> Vec<(String, u64)> {
    let mut c = vec![
        ("nn.macs_per_epoch".to_string(), macs),
        (
            match bench.kind {
                Kind::Characterize => "grid.cells",
                _ => "fleet.chip_runs",
            }
            .to_string(),
            (out.evaluated() + out.failed()) as u64,
        ),
    ];
    // Epochs and workspace traffic are seed-independent wherever the
    // epoch budgets are: the fixed-length grid and the stratified fleets'
    // per-chip Reduce runs. eFAT's epochs follow its clusters, which the
    // fault positions (and so the seed) decide.
    for p in &out.parts {
        if p.label != "efat" {
            c.push((format!("{}.fat_epochs", p.label), p.epochs as u64));
            c.push((format!("{}.workspace_misses", p.label), p.tally.ws_misses));
        }
    }
    c
}

/// The recorded exact counters, `workload counter value` per line.
fn recorded_counters(kind: Kind) -> Res<BTreeMap<String, u64>> {
    let path = data_dir().join("counters.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut map = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, name, value] => {
                if *w == kind.name() {
                    map.insert((*name).to_string(), value.parse()?);
                }
            }
            _ => return Err(format!("{}: malformed line {line:?}", path.display()).into()),
        }
    }
    Ok(map)
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    work_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Res<Args> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key.as_str(), value.clone());
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let trace = get("--trace")?;
    if trace != "0" && trace != "1" {
        return Err("--trace takes 0 or 1".into());
    }
    Ok(Args {
        kind: Kind::parse(&get("--workload")?)?,
        seed: get("--seed")?.parse()?,
        seconds: get("--seconds")?.parse()?,
        trace: trace == "1",
        threads: map.get("--threads").map_or(Ok(2), |t| t.parse())?,
        work_dir: PathBuf::from(
            map.get("--work-dir")
                .cloned()
                .unwrap_or_else(|| ".bench_build/paperbench-work".into()),
        ),
        commit: map
            .get("--commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::from(1),
        Err(e) => {
            eprintln!("paperbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

fn run() -> Res<bool> {
    let args = parse_args()?;
    let kind = args.kind;
    let work_dir = args
        .work_dir
        .join(format!("{}-{}", kind.name(), std::process::id()));
    std::fs::create_dir_all(&work_dir)?;
    let result = run_in(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    result
}

fn run_in(args: &Args, work_dir: &Path) -> Res<bool> {
    let kind = args.kind;
    println!(
        "provenance: workload={} seed={} seconds={} trace={} threads={} available_parallelism={} target_features={} commit={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.threads,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        target_features(),
        args.commit,
    );
    let mut setup_times = Vec::new();
    let mut bench = None;
    for _ in 0..kind.setup_reps() {
        let t = Instant::now();
        let b = setup(kind, args.seed, work_dir)?;
        setup_times.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.ok_or("no set-up ran")?;
    println!(
        "sizes: {} train={} test={} pretrain_epochs={} baseline_acc={:.4} constraint={} grid={}x1x{} fleet_chips={} setup_reps={}",
        kind.name(),
        bench.reduce.runner().train_data().labels().len(),
        bench.reduce.runner().test_data().labels().len(),
        kind.pretrain_epochs(),
        bench.reduce.pretrained().baseline_accuracy,
        kind.constraint(),
        GRID_RATES.len(),
        GRID_EPOCHS,
        bench.source.as_ref().map_or(0, |s| s.len()),
        kind.setup_reps(),
    );

    let mut checks = Checks::default();
    let mut walls = Vec::new();
    let mut cpu = Vec::new();
    let mut first: Option<StageOut> = None;
    let budget = Instant::now();
    // The stage repeats until --seconds of stage time have passed; every
    // repeat must reproduce the first one exactly.
    while first.is_none() || budget.elapsed().as_secs_f64() < args.seconds {
        let (c0, t) = (cpu_seconds(), Instant::now());
        let out = bench.stage(args.threads, args.trace)?;
        walls.push(t.elapsed().as_secs_f64());
        cpu.push(cpu_seconds() - c0);
        match &first {
            None => {
                check_stage(&bench, &out, &mut checks)?;
                first = Some(out);
            }
            Some(f) => checks.check(*f == out, || {
                format!("repeat {} of the stage differs from the first", walls.len())
            }),
        }
    }
    let out = first.ok_or("stage never ran")?;

    let macs = macs_per_epoch(&bench)?;
    let recorded = recorded_counters(kind)?;
    for (name, value) in exact_counters(&bench, &out, macs) {
        let expected = recorded.get(&name).copied();
        let layer = name.split('.').next().unwrap_or(&name);
        checks.check(expected == Some(value), || match expected {
            Some(e) => format!("counter {name} (layer {layer}) is {value}, recorded {e}"),
            None => format!("counter {name} (layer {layer}) is {value}, not recorded"),
        });
    }

    for p in &out.parts {
        println!(
            "stage: {} attempted={} evaluated={} quarantined={} satisfied={} epochs={} mean_acc={:.4} clusters={} warm_started={} workspace_misses={}",
            p.label,
            p.attempted,
            p.evaluated,
            p.quarantined,
            p.satisfied,
            p.epochs,
            p.acc_sum / p.evaluated.max(1) as f64,
            p.clusters,
            p.warm_started,
            p.tally.ws_misses
        );
    }
    if let Some(records) = out.journal {
        println!("journal: records={records}");
    }
    let wall = median(&walls);
    let metrics = if args.trace {
        let util = 100.0 * median(&cpu) / (args.threads as f64 * wall);
        trace::traced(&mut bench, &out, util, args.threads, &mut checks)?
    } else {
        vec![
            metric("setup_s", median(&setup_times), "s"),
            metric("wall_s", wall, "s"),
            metric("epochs_per_s", out.epochs() as f64 / wall, "epochs/s"),
            metric("chips_per_s", out.attempted() as f64 / wall, "chips/s"),
            metric(
                "yield_pct",
                100.0 * out.satisfied() as f64 / out.evaluated().max(1) as f64,
                "%",
            ),
            metric(
                "epochs_per_good_chip",
                out.epochs() as f64 / out.satisfied().max(1) as f64,
                "epochs",
            ),
            metric("mean_acc_pct", 100.0 * out.mean_acc(), "%"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    // After the metrics: on vgg-characterize this replaces the analysis
    // the trace reads its table from.
    check_single_thread(&mut bench, &out, args.threads, &mut checks)?;
    println!("stage_runs: {} walls_s={:?}", walls.len(), walls);
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "checks: {} passed, {} failed",
        checks.passed,
        checks.failures.len()
    );
    let correct = checks.failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted() * walls.len(),
        out.failed() * walls.len(),
        body.join(", ")
    );
    Ok(correct)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn target_features() -> String {
    let mut f = Vec::new();
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        f.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        f.push("avx512f");
    }
    if f.is_empty() {
        "baseline".to_string()
    } else {
        f.join("+")
    }
}
