//! The `train` and `train-faults` workloads: protected training steps
//! interleaved one-for-one with an unprotected, fault-free twin that starts
//! from the same weights.

use crate::host::{EndToEnd, HostRef};
use crate::report::Report;
use crate::stats;
use crate::sys::{self, ms_since};
use attn_fault::FaultKind;
use attn_model::model::{cross_entropy_checked, InjectionSpec, ModelConfig, TransformerModel};
use attn_model::{Example, Grads, HasParams, StepOutcome, SyntheticMrpc, Trainer};
use attn_tensor::rng::TensorRng;
use attn_tensor::workspace::thread_alloc_events;
use attnchecker::attention::AttnOp;
use attnchecker::config::ProtectionConfig;
use attnchecker::policy::ProtectionPolicy;
use attnchecker::report::AbftReport;
use attnchecker::section::GuardedSection;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Examples per training step.
pub const BATCH: usize = 8;
/// Worker threads each trainer fans batch items over.
pub const WORKERS: usize = 2;
/// Learning rate of both trainers.
const LR: f32 = 1e-3;
/// Distinct batches the steps rotate through.
const BATCHES: usize = 16;
/// Length of the generated fault schedule (steps beyond it wrap around).
const FAULT_SCHEDULE: usize = 4096;
/// Loss distance from the twin a fault-free protected step may show: the
/// fault-free bound of `tests/training_parity.rs`.
pub const PARITY_TOL: f32 = 1e-4;
/// Warm-up cap in rounds; see `sys::warm_up` (windows of one round).
const WARMUP_CAP: usize = 12;

/// Fault sites, rotated over: the six attention GEMM outputs and the two
/// FFN GEMM outputs that `ProtectionConfig::full()` guards.
pub const SITES: [AttnOp; 8] = [
    AttnOp::Q,
    AttnOp::K,
    AttnOp::V,
    AttnOp::AS,
    AttnOp::CL,
    AttnOp::O,
    AttnOp::Ffn1,
    AttnOp::Ffn2,
];

/// Extreme fault kinds, rotated over step by step.
pub const KINDS: [FaultKind; 4] = [
    FaultKind::Inf,
    FaultKind::NegInf,
    FaultKind::NaN,
    FaultKind::NearInf,
];

/// The model a train workload runs.
pub fn config(faults: bool) -> ModelConfig {
    if faults {
        ModelConfig::bert_base().scaled_for_timing()
    } else {
        ModelConfig::gpt2().scaled_for_timing()
    }
}

/// Tokens one step trains on.
pub fn tokens_per_step(cfg: &ModelConfig) -> usize {
    BATCH * cfg.max_seq
}

/// Everything a train workload derives from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainInputs {
    /// `BATCHES * BATCH` examples at the model's full sequence length.
    pub examples: Vec<Example>,
    /// Per step: the batch item struck and the fault (empty without faults).
    pub faults: Vec<(usize, InjectionSpec)>,
    /// Seed of the initial weights both trainers share.
    pub weight_seed: u64,
}

impl TrainInputs {
    /// Generate the inputs of one workload from `seed`.
    pub fn generate(cfg: &ModelConfig, seed: u64, faults: bool) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let data_seed = rng.next_u64();
        let weight_seed = rng.next_u64();
        let examples =
            SyntheticMrpc::generate(BATCHES * BATCH, cfg.vocab, cfg.max_seq, data_seed).examples;
        let faults = if faults {
            (0..FAULT_SCHEDULE)
                .map(|s| {
                    let item = rng.index(BATCH);
                    let spec = InjectionSpec {
                        layer: rng.index(cfg.layers),
                        op: SITES[(s / KINDS.len()) % SITES.len()],
                        head: rng.index(cfg.heads),
                        // Wrapped into each site's shape by the injector.
                        row: rng.index(1 << 12),
                        col: rng.index(1 << 12),
                        kind: KINDS[s % KINDS.len()],
                    };
                    (item, spec)
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            examples,
            faults,
            weight_seed,
        }
    }

    /// The batch of step `step`.
    pub fn batch(&self, step: usize) -> Vec<&Example> {
        let b = step % BATCHES;
        self.examples[b * BATCH..(b + 1) * BATCH].iter().collect()
    }

    /// The fault of step `step`, if this workload injects faults.
    pub fn fault(&self, step: usize) -> Option<(usize, InjectionSpec)> {
        (!self.faults.is_empty()).then(|| self.faults[step % self.faults.len()])
    }
}

/// The protected trainer and its unprotected twin.
pub struct Pair {
    /// `ProtectionConfig::full()`, receives the faults.
    pub prot: Trainer,
    /// `ProtectionConfig::off()`, fault-free.
    pub twin: Trainer,
}

impl Pair {
    fn new(cfg: &ModelConfig, inputs: &TrainInputs) -> Self {
        let mut rng = TensorRng::seed_from(inputs.weight_seed);
        let model = TransformerModel::new(cfg.clone(), ProtectionConfig::full(), &mut rng);
        let mut twin = Trainer::new(model.clone(), LR);
        twin.set_protection(ProtectionConfig::off());
        twin.set_parallelism(WORKERS);
        let mut prot = Trainer::new(model, LR);
        prot.set_parallelism(WORKERS);
        Self { prot, twin }
    }
}

/// A workload instance after set-up: inputs, warmed trainers, and the next
/// step index.
pub struct Setup {
    /// Model configuration.
    pub cfg: ModelConfig,
    /// Seeded inputs.
    pub inputs: TrainInputs,
    /// The trainers.
    pub pair: Pair,
    /// Steps taken so far (warm-up included).
    pub step: usize,
}

/// One untraced round: a protected step and a twin step on the same batch.
pub struct Round {
    /// Protected step wall time, ms.
    pub prot_ms: f64,
    /// Twin step wall time, ms.
    pub twin_ms: f64,
    /// Host reference position.
    pub pos: u64,
}

/// What a step's correctness check reads.
struct Checked<'a> {
    loss: f32,
    non_trainable: bool,
    report: &'a AbftReport,
    item_reports: &'a [AbftReport],
}

impl<'a> From<&'a StepOutcome> for Checked<'a> {
    fn from(o: &'a StepOutcome) -> Self {
        Self {
            loss: o.loss,
            non_trainable: o.non_trainable,
            report: &o.report,
            item_reports: &o.item_reports,
        }
    }
}

impl<'a> From<&'a StepSpans> for Checked<'a> {
    fn from(s: &'a StepSpans) -> Self {
        Self {
            loss: s.loss,
            non_trainable: s.non_trainable,
            report: &s.report,
            item_reports: &s.item_reports,
        }
    }
}

/// Count one protected step as an operation. A faulted step fails unless
/// the struck item detected the fault, nothing stayed unrecovered and the
/// model stays trainable; a fault-free step fails when it is non-trainable
/// or its loss leaves the twin's by more than [`PARITY_TOL`].
fn check(
    report: &mut Report,
    step: usize,
    prot: Checked<'_>,
    twin_loss: f32,
    fault: Option<&(usize, InjectionSpec)>,
) {
    match fault {
        Some((item, spec)) => {
            let r = &prot.item_reports[*item];
            let detected = r.detections + r.op_detections > 0;
            let unrecovered = prot.report.unrecovered;
            let ok = detected && unrecovered == 0 && !prot.non_trainable;
            report.op(ok, || {
                format!(
                    "step {step}: {:?} at {:?} item {item}: detected={detected} unrecovered={unrecovered} non_trainable={}",
                    spec.kind, spec.op, prot.non_trainable
                )
            });
        }
        None => {
            let ok = !prot.non_trainable && (prot.loss - twin_loss).abs() <= PARITY_TOL;
            report.op(ok, || {
                format!(
                    "step {step}: loss {} vs twin {twin_loss} (tolerance {PARITY_TOL}), non_trainable={}",
                    prot.loss, prot.non_trainable
                )
            });
        }
    }
}

impl Setup {
    /// Build, generate and warm up one workload instance, with a host
    /// reference sample after each warm-up round; returns it with its
    /// set-up time in seconds at the reference speed (sampling excluded).
    pub fn build(faults: bool, seed: u64, host: &mut HostRef, report: &mut Report) -> (Self, f64) {
        let t0 = Instant::now();
        let mark = host.mark();
        let mut sampling_ms = 0.0;
        let cfg = config(faults);
        let inputs = TrainInputs::generate(&cfg, seed, faults);
        let pair = Pair::new(&cfg, &inputs);
        let mut s = Self {
            cfg,
            inputs,
            pair,
            step: 0,
        };
        let _ = sys::warm_up(1, WARMUP_CAP, || {
            s.round(report);
            host.advance();
            sampling_ms += host.sample();
            Ok::<(), ()>(())
        });
        let raw = t0.elapsed().as_secs_f64() - sampling_ms / 1e3;
        (s, raw / host.factor_since(mark))
    }

    /// Run one checked round; the side that runs first alternates.
    pub fn round(&mut self, report: &mut Report) -> Round {
        let step = self.step;
        self.step += 1;
        let batch = self.inputs.batch(step);
        let fault = self.inputs.fault(step);
        let Pair { prot, twin } = &mut self.pair;
        let mut run_prot = || {
            let t = Instant::now();
            let out = prot.train_step_injected(&batch, fault);
            (ms_since(t), out)
        };
        let mut run_twin = || {
            let t = Instant::now();
            let out = twin.train_step(&batch);
            (ms_since(t), out)
        };
        let ((prot_ms, p), (twin_ms, t)) = if step.is_multiple_of(2) {
            let p = run_prot();
            (p, run_twin())
        } else {
            let t = run_twin();
            (run_prot(), t)
        };
        check(report, step, (&p).into(), t.loss, fault.as_ref());
        Round {
            prot_ms,
            twin_ms,
            pos: 0,
        }
    }

    /// Rounds until `seconds` of wall time have passed and at least
    /// `min_rounds` ran, or until three times `seconds` passed; one host
    /// reference sample after each round.
    pub fn rounds(
        &mut self,
        seconds: f64,
        min_rounds: usize,
        host: &mut HostRef,
        report: &mut Report,
    ) -> Vec<Round> {
        let t0 = Instant::now();
        let mut out = Vec::new();
        loop {
            let mut r = self.round(report);
            r.pos = host.advance();
            host.sample();
            out.push(r);
            let el = t0.elapsed().as_secs_f64();
            if (el >= seconds && out.len() >= min_rounds) || el >= 3.0 * seconds {
                return out;
            }
        }
    }
}

/// The untraced end-to-end run of a train workload.
pub fn run(faults: bool, seed: u64, seconds: f64, setups: usize, report: &mut Report) {
    let mut host = HostRef::new(WORKERS);
    let (mut s, setups_s) = build_repeated(faults, seed, setups, &mut host, report);
    let rounds = s.rounds(seconds, stats::samples_for_tail(90), &mut host, report);
    let prot: Vec<f64> = rounds.iter().map(|r| r.prot_ms).collect();
    let twin: Vec<f64> = rounds.iter().map(|r| r.twin_ms).collect();
    let pos: Vec<u64> = rounds.iter().map(|r| r.pos).collect();
    let norm = host.normalise(&prot, &pos);
    let n = prot.len();
    let per_step = tokens_per_step(&s.cfg);
    EndToEnd {
        setups_s: &setups_s,
        tokens: (n * per_step) as f64,
        busy_ms: norm.iter().sum(),
        raw_busy_ms: prot.iter().sum(),
        throughput_what: format!("{n} protected steps x {per_step} tokens"),
        latency_ms: &norm,
        latency_what: "step time",
        ttft_ms: &norm,
        ttft_what: "training emits one output per step: the step time",
    }
    .report(&host, report);
    report.metric(
        "protect_ratio",
        prot.iter().sum::<f64>() / twin.iter().sum::<f64>(),
        "ratio",
        format!("protected over unprotected twin wall time, {n} interleaved pairs"),
    );
}

/// Set up `reps` times; keep the last instance and return every set-up
/// time (s) at the reference speed.
/// Every set-up runs the same seeded steps, so only the kept instance's
/// operations are counted.
pub fn build_repeated(
    faults: bool,
    seed: u64,
    reps: usize,
    host: &mut HostRef,
    report: &mut Report,
) -> (Setup, Vec<f64>) {
    let reps = reps.max(1);
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for i in 0..reps {
        let mut scratch = Report::default();
        let r = if i + 1 == reps {
            &mut *report
        } else {
            &mut scratch
        };
        let (s, t) = Setup::build(faults, seed, host, r);
        times.push(t);
        kept = Some(s);
    }
    (kept.expect("at least one set-up"), times)
}

// ---------------------------------------------------------------------------
// Traced run: the same step rebuilt from the public per-layer calls, with a
// span around each.
// ---------------------------------------------------------------------------

/// Spans of one traced step of one trainer.
#[derive(Debug, Clone, Default)]
pub struct StepSpans {
    /// Whole step, ms.
    pub step_ms: f64,
    /// Parallel item section (forward + loss + backward of every item), ms.
    pub par_ms: f64,
    /// Forward + loss, summed over items (busy time), ms.
    pub fwd_ms: f64,
    /// Backward, summed over items (busy time), ms.
    pub bwd_ms: f64,
    /// Attention sub-layers inside the forward, summed over items, ms.
    pub attn_ms: f64,
    /// FFN sub-layers inside the forward, summed over items, ms.
    pub ffn_ms: f64,
    /// Gradient merge + AdamW with guarded moments, ms.
    pub optim_ms: f64,
    /// Workspace allocation events on every thread of the step.
    pub allocs: u64,
    /// Batch-order merge of the item reports.
    pub report: AbftReport,
    /// Per-item reports.
    pub item_reports: Vec<AbftReport>,
    /// Mean loss.
    pub loss: f32,
    /// NaN loss or non-finite parameter after the update.
    pub non_trainable: bool,
}

struct ItemSpans {
    loss: f32,
    grads: Grads,
    report: AbftReport,
    fwd: Duration,
    bwd: Duration,
    attn: Duration,
    ffn: Duration,
    allocs: u64,
}

/// One training step assembled from `forward_tape`, `cross_entropy_checked`,
/// `backward_tape_checked` and `AdamW::step_batched_checked`, as
/// `Trainer::train_step_injected` composes them, timing each call.
pub fn traced_step(
    tr: &mut Trainer,
    policy: &mut ProtectionPolicy,
    pool: Option<&rayon::ThreadPool>,
    batch: &[&Example],
    inject: Option<(usize, InjectionSpec)>,
) -> StepSpans {
    let toggles = policy.next_toggles();
    let protection = tr.model.blocks[0].attn.protection;
    let t0 = Instant::now();
    let inv = 1.0 / batch.len() as f32;
    let items: Vec<ItemSpans> = {
        let model = &tr.model;
        let run_item = |bi: usize| -> ItemSpans {
            let a0 = thread_alloc_events();
            let spec = inject.filter(|(target, _)| *target == bi).map(|(_, s)| s);
            let mut report = AbftReport::default();
            let guard = GuardedSection::guard_step(&protection);
            let f0 = Instant::now();
            let (logits, tape) =
                model.forward_tape(&batch[bi].tokens, toggles, spec.as_ref(), &mut report);
            let (loss, dlogits) = cross_entropy_checked(&logits, batch[bi].label, &guard);
            let fwd = f0.elapsed();
            let b0 = Instant::now();
            let mut grads = Grads::new();
            model.backward_tape_checked(&dlogits.scaled(inv), &tape, &mut grads, &guard);
            let bwd = b0.elapsed();
            report.absorb_op_guard(guard.take_stats());
            ItemSpans {
                loss,
                grads,
                report,
                fwd,
                bwd,
                attn: tape.attn_time,
                ffn: tape.ffn_time,
                allocs: thread_alloc_events() - a0,
            }
        };
        match pool {
            Some(p) => p.install(|| (0..batch.len()).into_par_iter().map(run_item).collect()),
            None => (0..batch.len()).map(run_item).collect(),
        }
    };
    let par_ms = ms_since(t0);
    let mut s = StepSpans {
        par_ms,
        ..StepSpans::default()
    };
    let mut loss_sum = 0.0f32;
    for it in &items {
        loss_sum += it.loss;
        s.report.merge(&it.report);
        s.item_reports.push(it.report.clone());
        s.fwd_ms += it.fwd.as_secs_f64() * 1e3;
        s.bwd_ms += it.bwd.as_secs_f64() * 1e3;
        s.attn_ms += it.attn.as_secs_f64() * 1e3;
        s.ffn_ms += it.ffn.as_secs_f64() * 1e3;
        s.allocs += it.allocs;
    }
    let o0 = Instant::now();
    let a0 = thread_alloc_events();
    let guard = GuardedSection::guard_step(&protection);
    tr.optim
        .step_batched_checked(&mut tr.model, items.into_iter().map(|i| i.grads), &guard);
    s.report.absorb_op_guard(guard.take_stats());
    s.allocs += thread_alloc_events() - a0;
    s.optim_ms = ms_since(o0);
    s.loss = loss_sum * inv;
    s.non_trainable = s.loss.is_nan() || !tr.model.params_finite();
    s.step_ms = ms_since(t0);
    s
}

/// A traced trainer: its own gate policy and worker pool.
struct Traced {
    policy: ProtectionPolicy,
    pool: Option<rayon::ThreadPool>,
}

impl Traced {
    fn new(tr: &Trainer, workers: usize) -> Self {
        Self {
            policy: ProtectionPolicy::new(tr.model.blocks[0].attn.protection),
            pool: (workers > 1).then(|| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .expect("the pool builder cannot fail")
            }),
        }
    }
}

/// Per-layer figures of a train workload's traced run.
pub struct TrainTrace {
    /// Protected-side spans per traced round.
    pub prot: Vec<StepSpans>,
    /// Twin-side spans per traced round.
    pub twin: Vec<StepSpans>,
    /// Per-round struck item (train-faults).
    pub struck: Vec<Option<usize>>,
    /// Protected throughput of the untraced rounds, tok/s.
    pub untraced_tok_s: f64,
    /// Protected throughput of the traced rounds, tok/s.
    pub traced_tok_s: f64,
    /// Step time at one worker over two workers, per pair.
    pub scaling: Vec<f64>,
    /// The workload instance, for the recovery comparison.
    pub setup: Setup,
}

/// The traced run's loop: untraced rounds for a baseline, then traced
/// rounds, then a short one-versus-two-worker comparison.
pub fn trace(faults: bool, seed: u64, seconds: f64, report: &mut Report) -> TrainTrace {
    let mut host = HostRef::new(WORKERS);
    let (mut s, _) = build_repeated(faults, seed, 1, &mut host, report);
    let tps = tokens_per_step(&s.cfg) as f64;
    let base = s.rounds(0.3 * seconds, 8, &mut host, report);
    let untraced_tok_s =
        tps * base.len() as f64 / (base.iter().map(|r| r.prot_ms).sum::<f64>() / 1e3);

    let mut tp = Traced::new(&s.pair.prot, WORKERS);
    let mut tt = Traced::new(&s.pair.twin, WORKERS);
    let (mut prot, mut twin, mut struck) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.45 * seconds || prot.len() < 8 {
        let step = s.step;
        s.step += 1;
        let batch = s.inputs.batch(step);
        let fault = s.inputs.fault(step);
        let Pair { prot: p, twin: t } = &mut s.pair;
        let (ps, ts) = if step.is_multiple_of(2) {
            let ps = traced_step(p, &mut tp.policy, tp.pool.as_ref(), &batch, fault);
            (
                ps,
                traced_step(t, &mut tt.policy, tt.pool.as_ref(), &batch, None),
            )
        } else {
            let ts = traced_step(t, &mut tt.policy, tt.pool.as_ref(), &batch, None);
            (
                traced_step(p, &mut tp.policy, tp.pool.as_ref(), &batch, fault),
                ts,
            )
        };
        check(report, step, (&ps).into(), ts.loss, fault.as_ref());
        struck.push(fault.map(|(i, _)| i));
        prot.push(ps);
        twin.push(ts);
    }
    let traced_tok_s =
        tps * prot.len() as f64 / (prot.iter().map(|p| p.step_ms).sum::<f64>() / 1e3);

    // One worker versus two on the protected trainer, interleaved.
    let mut one = Traced::new(&s.pair.prot, 1);
    let mut scaling = Vec::new();
    for _ in 0..6 {
        let step = s.step;
        s.step += 1;
        let batch = s.inputs.batch(step);
        let a = traced_step(&mut s.pair.prot, &mut one.policy, None, &batch, None);
        let b = traced_step(
            &mut s.pair.prot,
            &mut tp.policy,
            tp.pool.as_ref(),
            &batch,
            None,
        );
        scaling.push(a.step_ms / b.step_ms);
    }
    TrainTrace {
        prot,
        twin,
        struck,
        untraced_tok_s,
        traced_tok_s,
        scaling,
        setup: s,
    }
}

/// Median of `f` over `xs`.
pub fn med<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// Median and quartile band of per-round `prot / twin - 1`; "not resolved"
/// when the band crosses zero.
pub fn overhead(prot: &[f64], twin: &[f64]) -> (f64, String) {
    let r: Vec<f64> = prot.iter().zip(twin).map(|(p, t)| p / t - 1.0).collect();
    let [q1, q2, q3] = stats::quartiles(&r);
    let band = format!("band [{q1:+.4}, {q3:+.4}], n={}", r.len());
    if q1 < 0.0 && q3 > 0.0 {
        (q2, format!("not resolved: {band}"))
    } else {
        (q2, band)
    }
}

/// Record the `attn_model` layer metrics and the Fig 7 overhead columns
/// of a traced train loop; `source` says which loop measured them.
pub fn report_model_layer(t: &TrainTrace, source: &str, report: &mut Report) {
    let n = t.prot.len();
    let (p, w) = (&t.prot, &t.twin);
    let per = format!("median per step, n={n}{source}");
    let busy =
        format!("busy ms per step summed over {BATCH} items on {WORKERS} workers, n={n}{source}");
    report.metric("attn_model.fwd_ms.prot", med(p, |s| s.fwd_ms), "ms", &busy);
    report.metric("attn_model.fwd_ms.off", med(w, |s| s.fwd_ms), "ms", &busy);
    report.metric("attn_model.bwd_ms.prot", med(p, |s| s.bwd_ms), "ms", &busy);
    report.metric("attn_model.bwd_ms.off", med(w, |s| s.bwd_ms), "ms", &busy);
    report.metric(
        "attn_model.optim_ms.prot",
        med(p, |s| s.optim_ms),
        "ms",
        &per,
    );
    report.metric(
        "attn_model.optim_ms.off",
        med(w, |s| s.optim_ms),
        "ms",
        &per,
    );
    report.metric("attn_model.attn_fwd_ms", med(p, |s| s.attn_ms), "ms", &busy);
    report.metric("attn_model.ffn_fwd_ms", med(p, |s| s.ffn_ms), "ms", &busy);
    report.metric(
        "attn_model.step_self_ms",
        med(p, |s| s.step_ms - s.par_ms - s.optim_ms),
        "ms",
        format!("step wall minus item section and optimizer, {per}"),
    );
    report.metric(
        "attn_model.scaling_1w_2w",
        stats::median(&t.scaling),
        "ratio",
        format!(
            "protected step time 1 worker / 2 workers, n={}{source}",
            t.scaling.len()
        ),
    );
    let column = |f: fn(&StepSpans) -> f64| {
        overhead(
            &p.iter().map(f).collect::<Vec<_>>(),
            &w.iter().map(f).collect::<Vec<_>>(),
        )
    };
    for (name, f) in [
        (
            "attnchecker.step_overhead",
            (|s| s.step_ms) as fn(&StepSpans) -> f64,
        ),
        ("attnchecker.attn_overhead", |s| s.attn_ms),
        ("attnchecker.ffn_overhead", |s| s.ffn_ms),
    ] {
        let (v, note) = column(f);
        report.metric(name, v, "ratio", format!("{note}{source}"));
    }
}

/// Record the workload-level per-layer metrics of a train workload's
/// traced run: workspace, op guards, ABFT activity, and the trace itself.
pub fn report_workload(t: &TrainTrace, report: &mut Report) {
    let n = t.prot.len();
    let p = &t.prot;
    let per = format!("median per step, n={n}");
    report.metric(
        "attn_tensor.ws_allocs_per_step",
        med(p, |s| s.allocs as f64),
        "1/step",
        format!("workspace allocation events on every thread, {per}"),
    );
    let mean = |f: &dyn Fn(&AbftReport) -> usize| {
        p.iter().map(|s| f(&s.report) as f64).sum::<f64>() / n as f64
    };
    report.metric(
        "attn_tensor.guard_checks_per_step",
        mean(&|r| r.op_checks),
        "1/step",
        "op-guard checks",
    );
    report.metric(
        "attn_tensor.guard_heals_per_step",
        mean(&|r| r.op_heals),
        "1/step",
        "op-guard heals",
    );
    report.metric(
        "attnchecker.sections_checked",
        mean(&|r| r.sections_checked),
        "1/step",
        "",
    );
    let detections = mean(&|r| r.detections);
    let corrections = mean(&|r| r.correction_count());
    report.metric(
        "attnchecker.detections",
        detections,
        "1/step",
        "GEMM checksum detections",
    );
    report.metric("attnchecker.corrections", corrections, "1/step", "");
    report.metric(
        "attnchecker.propagations",
        mean(&|r| r.propagations),
        "1/step",
        "",
    );
    report.metric(
        "attnchecker.rebuilds",
        mean(&|r| r.checksum_rebuilds),
        "1/step",
        "",
    );
    report.metric(
        "attnchecker.unrecovered",
        mean(&|r| r.unrecovered),
        "1/step",
        "",
    );
    let (yield_, note) = if detections > 0.0 {
        (
            corrections / detections,
            "corrections per detection".to_string(),
        )
    } else {
        (0.0, "no detections".to_string())
    };
    report.metric("attnchecker.correction_yield", yield_, "ratio", note);
    // Detections in items that carried no fault.
    let fp: usize = p
        .iter()
        .zip(&t.struck)
        .map(|(s, hit)| {
            s.item_reports
                .iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != *hit)
                .map(|(_, r)| r.detections + r.op_detections)
                .sum::<usize>()
        })
        .sum();
    report.metric(
        "attnchecker.false_positives",
        fp as f64,
        "count",
        format!("over {n} steps"),
    );
    report.metric(
        "trace.overhead",
        t.traced_tok_s / t.untraced_tok_s,
        "ratio",
        format!(
            "traced {:.1} over untraced {:.1} tok/s",
            t.traced_tok_s, t.untraced_tok_s
        ),
    );
    report.metric(
        "trace.coverage",
        med(p, |s| {
            ((s.fwd_ms + s.bwd_ms) / WORKERS as f64 + s.optim_ms) / s.step_ms
        }),
        "ratio",
        format!("(item busy / {WORKERS} workers + optimizer) over step wall, {per}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for faults in [false, true] {
            let cfg = config(faults);
            let a = TrainInputs::generate(&cfg, 7, faults);
            assert_eq!(a, TrainInputs::generate(&cfg, 7, faults));
            assert_ne!(a, TrainInputs::generate(&cfg, 8, faults));
            assert_eq!(a.faults.is_empty(), !faults);
        }
    }

    #[test]
    fn fault_schedule_rotates_kinds_and_sites() {
        let cfg = config(true);
        let inputs = TrainInputs::generate(&cfg, 3, true);
        let window: Vec<_> = (0..KINDS.len() * SITES.len())
            .map(|s| inputs.fault(s).expect("faulted workload"))
            .collect();
        for kind in KINDS {
            for site in SITES {
                assert!(window.iter().any(|(_, f)| f.kind == kind && f.op == site));
            }
        }
        assert!(window.iter().all(|(item, _)| *item < BATCH));
    }

    #[test]
    fn traced_step_matches_the_trainer_bit_for_bit() {
        let mut cfg = ModelConfig::gpt2();
        cfg.hidden = 16;
        cfg.heads = 2;
        cfg.layers = 1;
        let inputs = TrainInputs::generate(&cfg, 5, false);
        let mut a = Pair::new(&cfg, &inputs).prot;
        let mut b = Pair::new(&cfg, &inputs).prot;
        let mut traced = Traced::new(&b, 2);
        for step in 0..3 {
            let batch = inputs.batch(step);
            let x = a.train_step(&batch);
            let y = traced_step(
                &mut b,
                &mut traced.policy,
                traced.pool.as_ref(),
                &batch,
                None,
            );
            assert_eq!(x.loss.to_bits(), y.loss.to_bits());
            assert_eq!(x.report, y.report);
        }
    }
}
