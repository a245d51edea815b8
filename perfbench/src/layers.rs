//! Layer microbenchmarks at the workloads' own shapes, called directly on
//! the public functions, plus the checkpoint/restore recovery comparison.

use crate::report::Report;
use crate::serve;
use crate::stats;
use crate::sys::ms_since;
use crate::train;
use attn_ckpt::CheckpointManager;
use attn_infer::{DecodeEngine, DecodeSession, Sampling};
use attn_model::model::{ModelConfig, TransformerModel};
use attn_model::Example;
use attn_tensor::gemm::{gemm_encode_cols_into, matmul_into};
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::config::ProtectionConfig;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// GEMM shape `(m, k, n)` with how many times it runs.
type Gemms = Vec<(usize, (usize, usize, usize))>;

/// The GEMMs one training item runs per layer, forward: Q/K/V/O
/// projections, per-head scores and context, FFN up and down.
fn train_layer_gemms(cfg: &ModelConfig) -> Gemms {
    let (s, h, dh, f) = (
        cfg.max_seq,
        cfg.hidden,
        cfg.hidden / cfg.heads,
        cfg.ffn_mult * cfg.hidden,
    );
    vec![
        (4, (s, h, h)),
        (cfg.heads, (s, dh, s)),
        (cfg.heads, (s, s, dh)),
        (1, (s, h, f)),
        (1, (s, f, h)),
    ]
}

/// One session's decode-step GEMMs per layer at KV length `pos`.
fn decode_layer_gemms(cfg: &ModelConfig, pos: usize) -> Gemms {
    let (h, dh, f) = (
        cfg.hidden,
        cfg.hidden / cfg.heads,
        cfg.ffn_mult * cfg.hidden,
    );
    vec![
        (4, (1, h, h)),
        (cfg.heads, (1, dh, pos)),
        (cfg.heads, (1, pos, dh)),
        (1, (1, h, f)),
        (1, (1, f, h)),
    ]
}

/// Flops and bytes of `gemms`, computed from the shapes: 2mkn flops; f32
/// operands read once and the result written once.
fn cost(gemms: &Gemms) -> (f64, f64) {
    gemms.iter().fold((0.0, 0.0), |(fl, by), &(c, (m, k, n))| {
        let c = c as f64;
        (
            fl + c * 2.0 * (m * k * n) as f64,
            by + c * 4.0 * (m * k + k * n + m * n) as f64,
        )
    })
}

/// Computed GEMM flops and bytes of one training step: backward costs
/// twice the forward.
pub fn train_cost_per_step(cfg: &ModelConfig) -> (f64, f64) {
    let (fl, by) = cost(&train_layer_gemms(cfg));
    let k = 3.0 * cfg.layers as f64 * train::BATCH as f64;
    (fl * k, by * k)
}

/// Computed GEMM flops and bytes of one decode engine step over `batch`
/// sessions at KV length `pos`, LM head included.
pub fn decode_cost_per_step(cfg: &ModelConfig, pos: usize, batch: usize) -> (f64, f64) {
    let (fl, by) = cost(&decode_layer_gemms(cfg, pos));
    let (hf, hb) = cost(&vec![(1, (1, cfg.hidden, cfg.vocab))]);
    let l = cfg.layers as f64;
    let b = batch as f64;
    ((fl * l + hf) * b, (by * l + hb) * b)
}

/// The distinct shapes of `gemms`.
fn shapes(gemms: Gemms) -> Vec<(usize, usize, usize)> {
    gemms.into_iter().map(|(_, s)| s).collect()
}

/// Median time per call of `f`, over at least `min` calls and `budget_ms`.
fn time_calls(budget_ms: f64, min: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < min || ms_since(t0) < budget_ms {
        let t = Instant::now();
        f();
        xs.push(ms_since(t));
    }
    stats::median(&xs)
}

struct Gemm {
    a: Matrix,
    b: Matrix,
    c: Matrix,
    enc: Matrix,
}

impl Gemm {
    fn new((m, k, n): (usize, usize, usize), rng: &mut TensorRng) -> Self {
        Self {
            a: rng.normal_matrix(m, k, 1.0),
            b: rng.normal_matrix(k, n, 1.0),
            c: Matrix::zeros(m, n),
            enc: Matrix::zeros(m + 2, n),
        }
    }

    fn flops(&self) -> f64 {
        2.0 * (self.a.rows() * self.a.cols() * self.b.cols()) as f64
    }

    fn plain(&mut self) {
        matmul_into(
            black_box(&self.a).view(),
            black_box(&self.b).view(),
            self.c.view_mut(),
        );
        black_box(&self.c);
    }

    fn encoded(&mut self) {
        gemm_encode_cols_into(
            black_box(&self.a).view(),
            black_box(&self.b).view(),
            self.enc.view_mut(),
        );
        black_box(&self.enc);
    }
}

/// Median-per-call GFLOP/s over a shape set, and encoded/plain time ratio,
/// the two kernels interleaved call by call.
fn gemm_suite(shapes: &[(usize, usize, usize)], budget_ms: f64, rng: &mut TensorRng) -> (f64, f64) {
    let (mut flops, mut plain_ms, mut enc_ms) = (0.0, 0.0, 0.0);
    let per = budget_ms / shapes.len() as f64;
    for &shape in shapes {
        let mut g = Gemm::new(shape, rng);
        let (mut p, mut e) = (Vec::new(), Vec::new());
        g.plain();
        g.encoded();
        let t0 = Instant::now();
        while p.len() < 20 || ms_since(t0) < per {
            let t = Instant::now();
            g.plain();
            p.push(ms_since(t));
            let t = Instant::now();
            g.encoded();
            e.push(ms_since(t));
        }
        flops += g.flops();
        plain_ms += stats::median(&p);
        enc_ms += stats::median(&e);
    }
    (flops / (plain_ms * 1e6), enc_ms / plain_ms)
}

/// Sessions for the decode microbenches: `n` prompts of 16 tokens.
fn open(engine: &mut DecodeEngine, n: usize, rng: &mut TensorRng) -> Vec<DecodeSession> {
    let vocab = engine.model().config.vocab;
    (0..n)
        .map(|i| {
            let prompt: Vec<usize> = (0..16).map(|_| rng.index(vocab)).collect();
            engine.open_session(&prompt, i as u64)
        })
        .collect()
}

/// Median `step_batch` time over `n` sessions, reopening them before the
/// position table runs out.
fn step_ms(engine: &mut DecodeEngine, n: usize, budget_ms: f64, rng: &mut TensorRng) -> f64 {
    let mut sessions = open(engine, n, rng);
    let mut xs = Vec::new();
    let t0 = Instant::now();
    while xs.len() < 20 || ms_since(t0) < budget_ms {
        if sessions.iter().any(|s| engine.capacity_left(s) < 2) {
            sessions = open(engine, n, rng);
        }
        let t = Instant::now();
        black_box(engine.step_batch(&mut sessions, Sampling::Greedy));
        xs.push(ms_since(t));
    }
    stats::median(&xs)
}

/// Per-call costs of the decode layer, shared with the serve trace's
/// coverage model.
pub struct DecodeCosts {
    /// `step_batch` ms at batch sizes `1..=MAX_LIVE` (index 0 = batch 1).
    pub step_ms: Vec<f64>,
    /// `open_session` ms per prompt token.
    pub prefill_ms_per_tok: f64,
    /// `park_session` ms.
    pub park_ms: f64,
    /// `unpark_session` ms.
    pub unpark_ms: f64,
    /// Protected over unprotected `step_batch` time at `MAX_LIVE`, minus 1.
    pub overhead: f64,
}

/// Measure the decode layer on the serve model.
pub fn decode_costs(budget_ms: f64, seed: u64) -> DecodeCosts {
    let mut rng = TensorRng::seed_from(seed);
    let model = serve::lm_model(&mut rng);
    let mut engine = DecodeEngine::new(model.clone());
    let batches = serve::MAX_LIVE;
    let per = budget_ms / (batches + 6) as f64;
    let step_ms: Vec<f64> = (1..=batches)
        .map(|b| step_ms(&mut engine, b, per, &mut rng))
        .collect();

    let vocab = engine.model().config.vocab;
    let prompt: Vec<usize> = (0..32).map(|_| rng.index(vocab)).collect();
    let prefill = time_calls(per, 10, || {
        black_box(engine.open_session(&prompt, 1));
    }) / prompt.len() as f64;

    let mut s = engine.open_session(&prompt, 2);
    for _ in 0..16 {
        engine.step(&mut s, Sampling::Greedy);
    }
    let (mut park, mut unpark) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while park.len() < 20 || ms_since(t0) < per {
        let t = Instant::now();
        engine.park_session(&mut s);
        park.push(ms_since(t));
        let t = Instant::now();
        engine.unpark_session(&mut s);
        unpark.push(ms_since(t));
    }

    // Protected versus unprotected batch step, interleaved.
    let mut off = model;
    off.set_protection(ProtectionConfig::off());
    let mut off = DecodeEngine::new(off);
    let (mut prot_s, mut off_s) = (
        open(&mut engine, batches, &mut rng),
        open(&mut off, batches, &mut rng),
    );
    let mut ratio = Vec::new();
    let t0 = Instant::now();
    while ratio.len() < 20 || ms_since(t0) < 2.0 * per {
        if prot_s.iter().any(|s| engine.capacity_left(s) < 2) {
            prot_s = open(&mut engine, batches, &mut rng);
            off_s = open(&mut off, batches, &mut rng);
        }
        let t = Instant::now();
        engine.step_batch(&mut prot_s, Sampling::Greedy);
        let p = ms_since(t);
        let t = Instant::now();
        off.step_batch(&mut off_s, Sampling::Greedy);
        ratio.push(p / ms_since(t) - 1.0);
    }
    DecodeCosts {
        step_ms,
        prefill_ms_per_tok: prefill,
        park_ms: stats::median(&park),
        unpark_ms: stats::median(&unpark),
        overhead: stats::median(&ratio),
    }
}

/// Record the layer microbenchmarks shared by every traced run. The
/// decode costs are returned for the serve trace's coverage model.
pub fn report_suite(
    cfg: &ModelConfig,
    budget_ms: f64,
    seed: u64,
    report: &mut Report,
) -> DecodeCosts {
    let mut rng = TensorRng::seed_from(seed);
    let train_cfg = train::config(false);
    let lm = serve::lm_config();
    let (gf_train, enc) = gemm_suite(
        &shapes(train_layer_gemms(&train_cfg)),
        0.25 * budget_ms,
        &mut rng,
    );
    let (gf_decode, _) = gemm_suite(
        &shapes(decode_layer_gemms(&lm, 64)),
        0.15 * budget_ms,
        &mut rng,
    );
    report.metric(
        "attn_tensor.gemm_gflops.train",
        gf_train,
        "GFLOP/s",
        "matmul_into at the train step shapes",
    );
    report.metric(
        "attn_tensor.gemm_gflops.decode",
        gf_decode,
        "GFLOP/s",
        "matmul_into at m=1 decode shapes, KV length 64",
    );
    report.metric(
        "attn_tensor.encode_overhead",
        enc,
        "ratio",
        "gemm_encode_cols_into over matmul_into, train shapes",
    );
    let ((flops, bytes), what) = if cfg.num_classes == cfg.vocab {
        let b = serve::MAX_LIVE;
        (
            decode_cost_per_step(cfg, 64, b),
            format!("decode step of {b} sessions at KV length 64"),
        )
    } else {
        (
            train_cost_per_step(cfg),
            format!("forward + 2x backward x batch {}", train::BATCH),
        )
    };
    let note = format!(
        "computed, not measured: {what}; {:.3e} bytes (computed)",
        bytes
    );
    report.metric("attn_tensor.gemm_flops_per_step", flops, "flop", note);
    let costs = decode_costs(0.6 * budget_ms, seed ^ 0x5e5e);
    report.metric(
        "attn_infer.prefill_ms_per_tok",
        costs.prefill_ms_per_tok,
        "ms",
        "open_session, 32-token prompt",
    );
    report.metric(
        "attn_infer.decode_step_ms.b1",
        costs.step_ms[0],
        "ms",
        "step_batch, 1 session",
    );
    report.metric(
        "attn_infer.decode_step_ms.b8",
        costs.step_ms[serve::MAX_LIVE - 1],
        "ms",
        format!("step_batch, {} sessions", serve::MAX_LIVE),
    );
    report.metric(
        "attn_infer.park_ms",
        costs.park_ms,
        "ms",
        "park_session at position 48",
    );
    report.metric(
        "attn_infer.unpark_ms",
        costs.unpark_ms,
        "ms",
        "unpark_session at position 48",
    );
    report.metric(
        "attnchecker.decode_overhead",
        costs.overhead,
        "ratio",
        "protected over unprotected step_batch at 8 sessions, minus 1",
    );
    costs
}

/// Checkpoint/restore recovery on `trainer`, in a scratch directory under
/// the working directory that is removed afterwards. Returns the medians of
/// save, load and replay (ms) and the checkpoint size (bytes).
pub fn recovery(
    trainer: &mut attn_model::Trainer,
    batch: &[&Example],
    reps: usize,
) -> (f64, f64, f64, usize) {
    let root = PathBuf::from(".bench_tmp");
    let dir = root.join(format!("ckpt-{}", std::process::id()));
    let mut mgr = CheckpointManager::new(&dir).expect("create the checkpoint directory");
    let (mut save, mut load, mut replay, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for _ in 0..reps {
        let (t, _) = mgr
            .recover_and_replay(trainer, batch)
            .expect("checkpoint round trip");
        save.push(t.save.as_secs_f64() * 1e3);
        load.push(t.load.as_secs_f64() * 1e3);
        replay.push(t.replay.as_secs_f64() * 1e3);
        bytes = t.bytes;
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Leave no empty parent behind (fails harmlessly if another run uses it).
    let _ = std::fs::remove_dir(&root);
    (
        stats::median(&save),
        stats::median(&load),
        stats::median(&replay),
        bytes,
    )
}

/// A trainer over `model` for checkpointing a model that is not trained.
pub fn trainer_for(model: &TransformerModel) -> attn_model::Trainer {
    attn_model::Trainer::new(model.clone(), 1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_flops_match_the_closed_form() {
        let cfg = train::config(false);
        let (s, h) = (cfg.max_seq as f64, cfg.hidden as f64);
        let f = (cfg.ffn_mult * cfg.hidden) as f64;
        let per_layer = 8.0 * s * h * h + 4.0 * s * s * h + 4.0 * s * h * f;
        let want = 3.0 * per_layer * cfg.layers as f64 * train::BATCH as f64;
        assert_eq!(train_cost_per_step(&cfg).0, want);

        let lm = serve::lm_config();
        let (h, v) = (lm.hidden as f64, lm.vocab as f64);
        let f = (lm.ffn_mult * lm.hidden) as f64;
        let per_layer = 8.0 * h * h + 4.0 * 64.0 * h + 4.0 * h * f;
        let want = (per_layer * lm.layers as f64 + 2.0 * h * v) * 8.0;
        assert_eq!(decode_cost_per_step(&lm, 64, 8).0, want);
    }

    #[test]
    fn bytes_count_operands_and_result_once() {
        assert_eq!(
            cost(&vec![(2, (3, 4, 5))]),
            (2.0 * 120.0, 2.0 * 4.0 * (12 + 20 + 15) as f64)
        );
    }
}
