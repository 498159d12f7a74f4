//! The traced run: per-layer numbers timed from outside the program.
//!
//! * Part (a) is the workload's own stage call, repeated at the same
//!   thread count with process CPU time read around it; it yields
//!   `exec.core_util_pct` and the reference results.
//! * Part (b) replays a deterministic sample of the stage's FAT jobs on
//!   one thread, calling the layers' public functions in the order
//!   `FatRunner` runs them (masked model → pre-eval → `train_epoch`/eval
//!   per epoch), inside spans. Every replayed job must reproduce the
//!   reference `epochs_run` and accuracies bit for bit.
//! * Layer probes time the remaining public functions directly: conv
//!   kernels, per-layer forward/backward, fault-map clustering, the
//!   policy lookup and journal appends. Every traced run reports every
//!   per-layer metric, so a layer the workload's stage does not run is
//!   probed at the workload's own sizes (see README).
//!
//! Spans are `{name, start, end, parent, job}` records kept in memory
//! until the run ends; a span's self time is its duration minus the time
//! its children cover.

use crate::*;
use reduce_core::{FatRunner, JournalRecord, Mitigation, OptimSpec, Pretrained};
use reduce_nn::{CrossEntropyLoss, Loss, Optimizer, Sequential, Sgd, Target};
use reduce_systolic::{cluster_fault_maps, FaultMap};
use reduce_tensor::ops::{self, Conv2dGeometry};
use reduce_tensor::Tensor;

/// One timed region.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub job: Option<usize>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: None,
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn enter(&mut self, name: &str) {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let end = self.now();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end = end;
        }
    }

    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time in seconds of every span, by index.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Per-job sums of the durations of the direct children named `names`
    /// of spans named `parent`: `(parent duration, children total)`.
    fn split(&self, parent: &str, names: &[&str]) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != parent {
                continue;
            }
            let inner: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i) && names.contains(&c.name.as_str()))
                .map(|c| c.end - c.start)
                .sum();
            out.push((s.end - s.start, inner));
        }
        out
    }
}

/// The highest percentile with at least ten samples beyond it, or the
/// maximum when there are ten samples or fewer: `(value, percentile)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    let idx = n - 11;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// One sampled FAT job to replay.
struct Job {
    key: usize,
    map: FaultMap,
    epochs: usize,
    seed: u64,
}

/// Replays `job`: its pre-retrain accuracy and per-epoch accuracies.
fn replay(
    tr: &mut Tracer,
    runner: &FatRunner,
    pretrained: &Pretrained,
    job: &Job,
) -> Res<(f32, Vec<f32>)> {
    let wb = runner.workbench();
    // The mask derivation alone, outside the job span (masked_model
    // derives the same masks again inside it).
    let probe = wb.model.build(wb.seed)?;
    tr.span("systolic.fap_mask", |_| {
        runner.derive_masks(&probe, &job.map, Mitigation::Fap)
    })?;
    tr.job = Some(job.key);
    tr.enter("fat.job");
    let (mut model, _) = tr.span("fat.masked_model", |_| {
        runner.masked_model(pretrained, &job.map, Mitigation::Fap)
    })?;
    if wb.bn_recalibration_passes > 0 {
        runner.recalibrate_statistics(&mut model, wb.bn_recalibration_passes)?;
    }
    let pre = tr
        .span("fat.pre_eval", |_| {
            wb.evaluate(&mut model, runner.test_data())
        })?
        .accuracy;
    let mut trainer = wb.fat_trainer(job.seed);
    let mut accs = Vec::with_capacity(job.epochs);
    for _ in 0..job.epochs {
        tr.span("nn.train_epoch", |_| {
            trainer.train_epoch(
                &mut model,
                runner.train_data().features(),
                runner.train_data().labels(),
            )
        })?;
        accs.push(
            tr.span("nn.eval", |_| wb.evaluate(&mut model, runner.test_data()))?
                .accuracy,
        );
    }
    tr.exit();
    tr.job = None;
    Ok((pre, accs))
}

/// The deterministic sample of jobs part (b) replays.
fn sample_jobs(bench: &Bench, tr: &mut Tracer) -> Res<Vec<Job>> {
    let (rows, cols) = bench.reduce.runner().workbench().array_dims();
    let mut jobs = Vec::new();
    match bench.kind {
        Kind::Characterize => {
            let grid = grid_config(bench.seed, bench.kind.constraint(), GRID_EPOCHS)?;
            for ri in [2usize, 5] {
                let rate = GRID_RATES[ri];
                // The cell seeds of `ResilienceAnalysis::run` (repeat 0).
                let map_seed = grid.seed.wrapping_add((ri as u64) << 32);
                let map = tr.span("systolic.chip_gen", |_| {
                    FaultMap::generate(rows, cols, rate, grid.fault_model, map_seed)
                })?;
                jobs.push(Job {
                    key: cell_key(ri, 0),
                    map,
                    epochs: GRID_EPOCHS,
                    seed: map_seed ^ 0x5EED,
                });
            }
        }
        Kind::Fleet | Kind::Stream => {
            let source = bench.source()?;
            let ids: Vec<usize> = match bench.kind {
                Kind::Fleet => (0..6).collect(),
                _ => (0..200).map(|k| k * 37 % source.len()).collect(),
            };
            for id in ids {
                let chip = tr.span("systolic.chip_gen", |_| source.chip(id))?;
                let budget = RetrainPolicy::Reduce(Statistic::Max)
                    .epochs_for_chip(Some(bench.table()?), chip.fault_rate())?
                    .epochs;
                jobs.push(Job {
                    key: id,
                    map: chip.fault_map().clone(),
                    epochs: budget,
                    // FleetEvaluation's default seed plus the chip id.
                    seed: 0xF1EE7u64.wrapping_add(id as u64),
                });
            }
        }
    }
    Ok(jobs)
}

/// Per-batch forward/backward timings of every layer over one epoch of
/// the training set, on a masked model.
struct Breakdown {
    /// `(metric stem, fwd s, bwd s, fwd MACs over the epoch)` per GEMM layer.
    layers: Vec<(String, f64, f64, u64)>,
    other: f64,
    loss: f64,
    optim: f64,
    batches: usize,
}

fn breakdown(runner: &FatRunner, pretrained: &Pretrained, map: &FaultMap) -> Res<Breakdown> {
    let wb = runner.workbench();
    let (mut model, _) = runner.masked_model(pretrained, map, Mitigation::Fap)?;
    let spec = wb.fat_train.as_ref().unwrap_or(&wb.train);
    let mut opt = match spec.optimizer {
        OptimSpec::Sgd {
            lr,
            momentum,
            weight_decay,
        } => Sgd::with_momentum(lr, momentum).weight_decay(weight_decay),
        OptimSpec::Adam { .. } => return Err("layer breakdown expects an SGD workbench".into()),
    };
    let x = runner.train_data().features();
    let labels = runner.train_data().labels();
    let per_sample = layer_macs(&mut model, &first_sample(x)?)?;
    let (mut conv, mut fc) = (0, 0);
    let mut stems: Vec<Option<String>> = (0..model.len()).map(|_| None).collect();
    for (i, name, _) in &per_sample {
        let stem = if name.starts_with("conv") {
            conv += 1;
            format!("nn.conv{conv}")
        } else {
            fc += 1;
            format!("nn.fc{fc}")
        };
        stems[*i] = Some(stem);
    }
    let n = labels.len();
    let stride: usize = x.dims().iter().skip(1).product();
    let mut ws = Workspace::new();
    let (mut tr, mut warmup) = (Tracer::new(), Tracer::new());
    // A warm-up epoch fills the workspace and caches, then one measured
    // epoch.
    let epoch: Vec<usize> = (0..n).step_by(spec.batch_size).collect();
    let batches = epoch.len();
    for (b, &start) in epoch.iter().chain(&epoch).enumerate() {
        let end = (start + spec.batch_size).min(n);
        let mut dims = x.dims().to_vec();
        dims[0] = end - start;
        let bx = Tensor::from_vec(x.data()[start * stride..end * stride].to_vec(), dims)?;
        let by = &labels[start..end];
        let t = if b < batches { &mut warmup } else { &mut tr };
        let mut cur = bx;
        for (i, stem) in stems.iter().enumerate() {
            let name = format!("{}.fwd", stem.as_deref().unwrap_or("nn.other"));
            let next = t.span(&name, |_| {
                model.layer_mut(i)?.forward_ws(&cur, Mode::Train, &mut ws)
            })?;
            ws.give(std::mem::replace(&mut cur, next));
        }
        let out = t.span("nn.loss", |_| {
            CrossEntropyLoss.evaluate(&cur, Target::Labels(by))
        })?;
        ws.give(cur);
        t.span("nn.optim", |_| model.zero_grad());
        let mut grad = out.grad;
        for i in (0..model.len()).rev() {
            let name = format!("{}.bwd", stems[i].as_deref().unwrap_or("nn.other"));
            let next = t.span(&name, |_| model.layer_mut(i)?.backward_ws(&grad, &mut ws))?;
            ws.give(std::mem::replace(&mut grad, next));
        }
        ws.give(grad);
        t.span("nn.optim", |_| opt.step(&mut model.params_mut()))?;
    }
    let layers = per_sample
        .iter()
        .filter_map(|(i, _, macs)| {
            let stem = stems[*i].clone()?;
            let (f, b) = (
                tr.total(&format!("{stem}.fwd")),
                tr.total(&format!("{stem}.bwd")),
            );
            Some((stem, f, b, macs * n as u64))
        })
        .collect();
    Ok(Breakdown {
        layers,
        other: tr.total("nn.other.fwd") + tr.total("nn.other.bwd"),
        loss: tr.total("nn.loss"),
        optim: tr.total("nn.optim"),
        batches,
    })
}

impl Breakdown {
    fn accounted(&self) -> f64 {
        self.layers.iter().map(|l| l.1 + l.2).sum::<f64>() + self.other + self.loss + self.optim
    }
}

/// Median seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f()?;
        t.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&t))
}

/// Direct conv-kernel probes at the nano-VGG conv shapes, batch 32.
fn tensor_probe(out: &mut Vec<Metric>) -> Res<()> {
    const BATCH: usize = 32;
    const REPS: usize = 15;
    let wb = Kind::Characterize.workbench();
    let mut model = wb.model.build(wb.seed)?;
    let mut ws = Workspace::new();
    let mut x = Tensor::zeros([1, 3, 16, 16]);
    let mut shapes = Vec::new();
    for i in 0..model.len() {
        let layer = model.layer_mut(i)?;
        if layer.name().starts_with("conv") {
            let cout = layer.params().first().map_or(0, |w| w.value().dims()[0]);
            shapes.push((x.dims()[1], cout, x.dims()[2], x.dims()[3]));
        }
        x = layer.forward_ws(&x, Mode::Eval, &mut ws)?;
    }
    let (mut im2col, mut col2im, mut layout, mut fwd, mut dw, mut dx) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut macs, mut cols_bytes) = (0u64, 0u64);
    for (li, &(cin, cout, h, w)) in shapes.iter().enumerate() {
        let geom = Conv2dGeometry::new(h, w, 3, 3, 1, 1)?;
        let (pos, patch) = (BATCH * geom.out_h * geom.out_w, cin * 9);
        let input = Tensor::rand_uniform([BATCH, cin, h, w], -1.0, 1.0, li as u64);
        let weight = Tensor::rand_uniform([cout, patch], -0.1, 0.1, 100 + li as u64);
        let grad = Tensor::rand_uniform(
            [BATCH, cout, geom.out_h, geom.out_w],
            -0.1,
            0.1,
            200 + li as u64,
        );
        let mut cols = Tensor::zeros([pos, patch]);
        let mut rows = Tensor::zeros([pos, cout]);
        let mut y = Tensor::zeros([BATCH, cout, geom.out_h, geom.out_w]);
        let mut grows = Tensor::zeros([pos, cout]);
        let mut dwt = Tensor::zeros([cout, patch]);
        let mut dcols = Tensor::zeros([pos, patch]);
        let mut gx = Tensor::zeros([BATCH, cin, h, w]);
        let t_im2col = time_median(REPS, || Ok(ops::im2col_into(&input, &geom, &mut cols)?))?;
        let t_fwd = time_median(REPS, || Ok(ops::matmul_nt_into(&cols, &weight, &mut rows)?))?;
        let t_layout = time_median(REPS, || {
            ops::rows_to_nchw_into(&rows, BATCH, cout, geom.out_h, geom.out_w, &mut y)?;
            Ok(ops::nchw_to_rows_into(&grad, &mut grows)?)
        })?;
        let t_dw = time_median(REPS, || Ok(ops::matmul_tn_into(&grows, &cols, &mut dwt)?))?;
        let t_dx = time_median(REPS, || Ok(ops::matmul_into(&grows, &weight, &mut dcols)?))?;
        let t_col2im = time_median(REPS, || {
            Ok(ops::col2im_into(&dcols, BATCH, cin, &geom, &mut gx)?)
        })?;
        if li == 0 {
            out.push(metric("tensor.conv1.im2col_ms", 1e3 * t_im2col, "ms"));
            out.push(metric(
                "tensor.conv1.gemm_ms",
                1e3 * (t_fwd + t_dw + t_dx),
                "ms",
            ));
            out.push(metric("tensor.conv1.col2im_ms", 1e3 * t_col2im, "ms"));
        }
        im2col += t_im2col;
        col2im += t_col2im;
        layout += t_layout;
        fwd += t_fwd;
        dw += t_dw;
        dx += t_dx;
        macs += 3 * (pos * patch * cout) as u64;
        cols_bytes += (pos * patch * 4) as u64;
    }
    out.push(metric("tensor.im2col_ms", 1e3 * im2col, "ms"));
    out.push(metric("tensor.col2im_ms", 1e3 * col2im, "ms"));
    out.push(metric("tensor.layout_ms", 1e3 * layout, "ms"));
    out.push(metric("tensor.gemm_fwd_ms", 1e3 * fwd, "ms"));
    out.push(metric("tensor.gemm_dw_ms", 1e3 * dw, "ms"));
    out.push(metric("tensor.gemm_dx_ms", 1e3 * dx, "ms"));
    out.push(metric(
        "tensor.gemm_gmac_s",
        macs as f64 / (fwd + dw + dx) / 1e9,
        "GMAC/s",
    ));
    out.push(metric("tensor.cols_mb", cols_bytes as f64 / 1e6, "MB"));
    Ok(())
}

/// A small fleet retrained by both strategies with the journal on, for
/// the fleet and journal layers where the stage does not run them: the
/// first 6 chips of the workload's fleet geometry on the nano-VGG
/// workloads (with the run's own grid table on `vgg-characterize`), the
/// first 512 on `mlp-fleet-stream`.
fn probe_fleet(bench: &Bench, threads: usize, journal: &Checkpoint) -> Res<Vec<StrategyOut>> {
    let table = match bench.kind {
        Kind::Characterize => bench.reduce.table()?,
        _ => bench.table()?.clone(),
    };
    let chips = if bench.kind == Kind::Stream { 512 } else { 6 };
    bench.run_fleet(
        &bench.fleet_of(chips),
        &table,
        strategies(Kind::Fleet),
        threads,
        Some(journal),
        false,
    )
}

fn fleet_metrics(parts: &[StrategyOut], out: &mut Vec<Metric>) {
    for p in parts {
        let y = 100.0 * p.satisfied as f64 / p.evaluated.max(1) as f64;
        out.push(metric(format!("fleet.{}.yield_pct", p.label), y, "%"));
        out.push(metric(
            format!("fleet.{}.epochs", p.label),
            p.epochs as f64,
            "epochs",
        ));
        if p.label == "efat" {
            out.push(metric("fleet.clusters", p.clusters as f64, "count"));
            let warm = 100.0 * p.warm_started as f64 / p.evaluated.max(1) as f64;
            out.push(metric("fleet.warm_start_pct", warm, "%"));
        }
    }
}

/// Journal metrics of the journal at `path`, written for `chip_runs` chip
/// runs: its records re-appended one by one into a scratch journal, and
/// its replay (`Checkpoint::resume` + `records()`).
fn journal_metrics(bench: &Bench, path: &Path, chip_runs: usize, out: &mut Vec<Metric>) -> Res<()> {
    let records: Vec<JournalRecord> = Checkpoint::resume(path)?.records()?;
    let scratch = Checkpoint::create(&bench.work_dir.join("append-journal.jsonl"));
    let mut appends = Vec::new();
    for r in &records {
        let t = Instant::now();
        scratch.append(r.clone())?;
        appends.push(t.elapsed().as_secs_f64());
    }
    let mut replay = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let n = Checkpoint::resume(path)?.records()?.len();
        replay.push(t.elapsed().as_secs_f64());
        if n != records.len() {
            return Err(format!(
                "journal replay returned {n} records, expected {}",
                records.len()
            )
            .into());
        }
    }
    let health = inspect_journal(path)?;
    let (tail_s, tail_pct) = tail(&appends);
    out.push(metric(
        "journal.append_ms.p50",
        1e3 * median(&appends),
        "ms",
    ));
    out.push(metric("journal.append_ms.tail", 1e3 * tail_s, "ms"));
    println!(
        "trace: journal.append_ms.tail is p{tail_pct:.1} of {} appends",
        appends.len()
    );
    out.push(metric(
        "journal.max_append_kb",
        scratch.io_stats()?.max_append_bytes as f64 / 1024.0,
        "KiB",
    ));
    out.push(metric(
        "journal.bytes_per_chip",
        health.total_bytes as f64 / chip_runs.max(1) as f64,
        "B",
    ));
    out.push(metric("journal.records", health.records as f64, "count"));
    out.push(metric("journal.replay_ms", 1e3 * median(&replay), "ms"));
    Ok(())
}

/// The traced run's metrics; `util` is part (a)'s core utilisation at
/// `threads` workers.
pub fn traced(
    bench: &mut Bench,
    stage: &StageOut,
    util: f64,
    threads: usize,
    checks: &mut Checks,
) -> Res<Vec<Metric>> {
    let mut out = vec![metric("exec.core_util_pct", util, "%")];
    let mut tr = Tracer::new();

    // Part (b): replay the sampled jobs on one thread.
    let jobs = sample_jobs(bench, &mut tr)?;
    let reference = &stage.parts[0].jobs;
    for job in &jobs {
        let (pre, accs) = replay(
            &mut tr,
            bench.reduce.runner(),
            bench.reduce.pretrained(),
            job,
        )?;
        let mut got = JobResult::cell(pre, &accs);
        if bench.kind != Kind::Characterize {
            got.first_acc = None;
        }
        checks.check(reference.get(&job.key) == Some(&got), || {
            format!(
                "trace: replayed job {} gave {got:?}, the measured run {:?}",
                job.key,
                reference.get(&job.key)
            )
        });
    }
    if bench.kind != Kind::Characterize {
        // Step ① cost at the workload's sizes: one cell at the table cap.
        let (rows, cols) = bench.reduce.runner().workbench().array_dims();
        let map = FaultMap::generate(rows, cols, 0.15, FaultModel::Random, mix(bench.seed))?;
        let cell = Job {
            key: usize::MAX,
            map,
            epochs: bench.table()?.epoch_cap(),
            seed: 0x5EED,
        };
        tr.span("resilience.cell", |tr| {
            replay(tr, bench.reduce.runner(), bench.reduce.pretrained(), &cell)
        })?;
    }

    let ms = |v: Vec<f64>| 1e3 * median(&v);
    let job_s = tr.durations("fat.job");
    let (tail_s, tail_pct) = tail(&job_s[..jobs.len()]);
    let mut epochs = tr.split("fat.job", &["nn.train_epoch", "nn.eval"]);
    epochs.truncate(jobs.len());
    let job_total: f64 = epochs.iter().map(|e| e.0).sum();
    let epoch_total: f64 = epochs.iter().map(|e| e.1).sum();
    let (train_s, eval_s) = (tr.total("nn.train_epoch"), tr.total("nn.eval"));
    let train_epoch_ms = ms(tr.durations("nn.train_epoch"));
    out.push(metric(
        "fat.masked_model_ms",
        ms(tr.durations("fat.masked_model")),
        "ms",
    ));
    out.push(metric(
        "fat.pre_eval_ms",
        ms(tr.durations("fat.pre_eval")),
        "ms",
    ));
    out.push(metric(
        "fat.chip_ms.p50",
        1e3 * median(&job_s[..jobs.len()]),
        "ms",
    ));
    out.push(metric("fat.chip_ms.tail", 1e3 * tail_s, "ms"));
    out.push(metric("fat.chip_ms.samples", jobs.len() as f64, "count"));
    println!(
        "trace: fat.chip_ms.tail is p{tail_pct:.1} of {} replayed jobs",
        jobs.len()
    );
    out.push(metric(
        "fat.fixed_pct",
        100.0 * (job_total - epoch_total) / job_total,
        "%",
    ));
    out.push(metric("nn.train_epoch_ms", train_epoch_ms, "ms"));
    out.push(metric("nn.eval_ms", ms(tr.durations("nn.eval")), "ms"));
    out.push(metric(
        "nn.eval_pct",
        100.0 * eval_s / (train_s + eval_s),
        "%",
    ));
    let cell_s = match bench.kind {
        Kind::Characterize => median(&job_s),
        _ => median(&tr.durations("resilience.cell")),
    };
    out.push(metric("resilience.cell_s.p50", cell_s, "s"));
    out.push(metric(
        "systolic.chip_gen_us",
        1e6 * median(&tr.durations("systolic.chip_gen")),
        "us",
    ));
    out.push(metric(
        "systolic.fap_mask_us",
        1e6 * median(&tr.durations("systolic.fap_mask")),
        "us",
    ));
    let self_time: f64 = tr.self_times().iter().sum();
    let covered = tr
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum::<f64>();
    let traced_jobs: std::collections::BTreeSet<usize> =
        tr.spans.iter().filter_map(|s| s.job).collect();
    println!(
        "trace: {} spans over {} jobs, {:.3} s covered, self times sum to {:.3} s",
        tr.spans.len(),
        traced_jobs.len(),
        covered,
        self_time
    );

    // Per-layer forward/backward on the first sampled job's masked model.
    let first = jobs.first().ok_or("no job sampled")?;
    let own = breakdown(bench.reduce.runner(), bench.reduce.pretrained(), &first.map)?;
    let per_batch = |s: f64, b: &Breakdown| 1e3 * s / b.batches as f64;
    let accounted_ms = 1e3 * own.accounted();
    out.push(metric("nn.other_ms", per_batch(own.other, &own), "ms"));
    out.push(metric("nn.loss_ms", per_batch(own.loss, &own), "ms"));
    out.push(metric("nn.optim_ms", per_batch(own.optim, &own), "ms"));
    out.push(metric(
        "nn.unaccounted_pct",
        100.0 * (train_epoch_ms - accounted_ms) / train_epoch_ms,
        "%",
    ));
    // The MLP workload has no conv layers: its conv/fc rows come from a
    // nano-VGG probe (fresh weights, same shapes and data).
    let vgg = match bench.kind {
        Kind::Stream => {
            let runner = FatRunner::new(Kind::Characterize.workbench())?;
            let wb = runner.workbench();
            let fresh = Pretrained {
                state: wb.model.build(wb.seed)?.state_dict(),
                baseline_accuracy: 0.0,
                epochs: 0,
            };
            let map = FaultMap::generate(32, 32, 0.15, FaultModel::Random, mix(bench.seed))?;
            breakdown(&runner, &fresh, &map)?
        }
        _ => own,
    };
    for (stem, f, b, macs) in &vgg.layers {
        out.push(metric(format!("{stem}.fwd_ms"), per_batch(*f, &vgg), "ms"));
        out.push(metric(format!("{stem}.bwd_ms"), per_batch(*b, &vgg), "ms"));
        if stem.starts_with("nn.conv") {
            out.push(metric(
                format!("{stem}.gmac_s"),
                3.0 * *macs as f64 / (f + b) / 1e9,
                "GMAC/s",
            ));
        }
    }
    out.push(metric(
        "nn.macs_per_epoch",
        macs_per_epoch(bench)? as f64,
        "count",
    ));
    let (hits, misses) = stage.parts.iter().fold((0, 0), |(h, m), p| {
        (h + p.tally.ws_hits, m + p.tally.ws_misses)
    });
    out.push(metric(
        "nn.workspace.hit_pct",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        "%",
    ));
    out.push(metric("nn.workspace.misses", misses as f64, "count"));

    tensor_probe(&mut out)?;

    // Clustering one intake window of the workload's chips.
    let maps: Vec<(usize, FaultMap)> = match bench.kind {
        Kind::Characterize => {
            let grid = grid_config(bench.seed, bench.kind.constraint(), GRID_EPOCHS)?;
            let (rows, cols) = bench.reduce.runner().workbench().array_dims();
            (0..GRID_RATES.len())
                .map(|ri| {
                    let seed = grid.seed.wrapping_add((ri as u64) << 32);
                    Ok((
                        ri,
                        FaultMap::generate(rows, cols, GRID_RATES[ri], grid.fault_model, seed)?,
                    ))
                })
                .collect::<Res<_>>()?
        }
        _ => {
            let source = bench.source()?;
            let window = source.len().min(FleetEvaluation::DEFAULT_WINDOW);
            (0..window)
                .map(|id| Ok((id, source.chip(id)?.fault_map().clone())))
                .collect::<Res<_>>()?
        }
    };
    let refs: Vec<(usize, &FaultMap)> = maps.iter().map(|(id, m)| (*id, m)).collect();
    let cluster = time_median(5, || {
        cluster_fault_maps(&refs, &ClusterConfig::default())?;
        Ok(())
    })?;
    out.push(metric("systolic.cluster_ms", 1e3 * cluster, "ms"));

    let table = match bench.kind {
        Kind::Characterize => bench.reduce.table()?,
        _ => bench.table()?.clone(),
    };
    let select = time_median(5, || {
        for i in 0..1000 {
            table.epochs_for(0.3 * i as f64 / 1000.0, Statistic::Max)?;
        }
        Ok(())
    })?;
    out.push(metric("policy.select_us", 1e3 * select, "us"));

    let probe_path = bench.work_dir.join("probe-journal.jsonl");
    let probe = probe_fleet(bench, threads, &Checkpoint::create(&probe_path))?;
    fleet_metrics(
        match bench.kind {
            Kind::Fleet => &stage.parts,
            _ => &probe,
        },
        &mut out,
    );
    match bench.kind {
        Kind::Stream => journal_metrics(bench, &bench.journal_path(), stage.attempted(), &mut out)?,
        _ => {
            let runs = probe.iter().map(|p| p.evaluated + p.quarantined).sum();
            journal_metrics(bench, &probe_path, runs, &mut out)?
        }
    }

    let wb = bench.reduce.runner().workbench().clone();
    out.push(metric(
        "data.materialize_ms",
        1e3 * time_median(3, || Ok(wb.datasets().map(|_| ())?))?,
        "ms",
    ));
    let (train, _) = wb.datasets()?;
    let mut model: Sequential = wb.model.build(wb.seed)?;
    let mut trainer = wb.trainer(wb.seed ^ 0xA5A5);
    let epoch = time_median(3, || {
        trainer.train_epoch(&mut model, train.features(), train.labels())?;
        Ok(())
    })?;
    out.push(metric("workbench.pretrain_epoch_ms", 1e3 * epoch, "ms"));
    Ok(out)
}
