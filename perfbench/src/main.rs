//! Workload benchmark of the ATTNChecker reproduction.
//!
//! ```text
//! perfbench --workload <train|train-faults|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run generates the workload's inputs from the seed, sets the
//! program up, measures for the given seconds, checks every output, and
//! prints one JSON object as the last stdout line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run times the
//! calls into each crate's public functions instead and reports per-layer
//! metrics. Exit code 0 means every output checked out; 1 means some
//! operation failed; 2 is a usage error; 3 means the benchmark could not
//! measure (no result printed).

mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod sys;
mod train;

use report::Report;
use std::process::ExitCode;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Train,
    TrainFaults,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "train" => Some(Self::Train),
            "train-faults" => Some(Self::TrainFaults),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        let v = get(flag)?;
        v.parse()
            .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
    };
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn header(a: &Args) {
    println!(
        "perfbench workload={:?} seed={} seconds={} trace={}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    println!("host: nproc={} cpu: {}", sys::nproc(), sys::cpu_features());
    match a.workload {
        Workload::Train | Workload::TrainFaults => {
            let cfg = train::config(a.workload == Workload::TrainFaults);
            println!(
                "shape: {} {:?} hidden={} heads={} layers={} seq={} batch={} workers={} (batch items)",
                cfg.name, cfg.arch, cfg.hidden, cfg.heads, cfg.layers, cfg.max_seq, train::BATCH, train::WORKERS
            );
            println!("twin: same weights, ProtectionConfig::off(), fault-free, steps interleaved one for one");
            if a.workload == Workload::TrainFaults {
                println!(
                    "faults: one per step, kinds {:?} x sites {:?}",
                    train::KINDS,
                    train::SITES
                );
            }
        }
        Workload::Serve => {
            let cfg = serve::lm_config();
            let gw = serve::gateway_config();
            println!(
                "shape: {} LM hidden={} heads={} layers={} vocab={} max_seq={}",
                cfg.name, cfg.hidden, cfg.heads, cfg.layers, cfg.vocab, cfg.max_seq
            );
            println!(
                "gateway: closed loop, {} clients, max_live={} kv_row_budget={} prefill_chunk={} workers={}; prompts {}..={}, max_new {}..={}",
                serve::CLIENTS,
                gw.max_live,
                gw.kv_row_budget,
                gw.prefill_chunk,
                gw.workers,
                serve::PROMPT.0,
                serve::PROMPT.1,
                serve::MAX_NEW.0,
                serve::MAX_NEW.1
            );
        }
    }
}

fn run(a: &Args, report: &mut Report) -> Result<(), String> {
    let secs = a.seconds as f64;
    match (a.workload, a.trace) {
        (Workload::Serve, false) => serve::run(a.seed, secs, SETUPS, report)?,
        (w, false) => train::run(w == Workload::TrainFaults, a.seed, secs, SETUPS, report),
        (Workload::Serve, true) => trace_serve(a, report)?,
        (w, true) => trace_train(w == Workload::TrainFaults, a, report)?,
    }
    if !a.trace {
        let rss = sys::peak_rss_mb().ok_or("/proc/self/status has no VmHWM")?;
        report.metric("peak_rss_mb", rss, "MB", "VmHWM");
    }
    Ok(())
}

/// Traced-run seconds of the short loop that measures the layers of the
/// other workload kind (the gateway on train runs, the training step on
/// serve runs), so every traced run reports every layer.
const PROBE_SECONDS: f64 = 3.0;
const PROBE: &str = ", from a short probe of the other workload kind";

fn trace_train(faults: bool, a: &Args, report: &mut Report) -> Result<(), String> {
    let secs = a.seconds as f64;
    let mut t = train::trace(faults, a.seed, secs, report);
    train::report_model_layer(&t, "", report);
    train::report_workload(&t, report);
    // Recovery comparison: checkpoint/restore against the measured cost of
    // protection on a faulty step (protected minus twin step time).
    let abft: Vec<f64> = t
        .prot
        .iter()
        .zip(&t.twin)
        .map(|(p, w)| p.step_ms - w.step_ms)
        .collect();
    let abft_ms = stats::median(&abft);
    let floor = 0.005 * train::med(&t.twin, |s| s.step_ms);
    let batch = t.setup.inputs.batch(0);
    let (save, load, replay, bytes) = layers::recovery(&mut t.setup.pair.prot, &batch, 5);
    report.metric(
        "attn_ckpt.save_ms",
        save,
        "ms",
        "CheckpointManager::save, median of 5",
    );
    report.metric(
        "attn_ckpt.load_ms",
        load,
        "ms",
        "CheckpointManager::load_last, median of 5",
    );
    report.metric("attn_ckpt.bytes", bytes as f64, "B", "checkpoint size");
    report.metric(
        "attn_ckpt.cr_over_abft",
        (save + load + replay) / abft_ms.max(floor),
        "ratio",
        format!(
            "(save + load + replay {replay:.3} ms) over ABFT cost {abft_ms:.3} ms per {} step (floor {floor:.3} ms)",
            if faults { "faulty" } else { "fault-free" }
        ),
    );
    layers::report_suite(&train::config(faults), 0.2 * secs * 1e3, a.seed, report);
    let probe = serve::trace(a.seed, PROBE_SECONDS, report)?;
    serve::report_gateway_layer(&probe, PROBE, report);
    Ok(())
}

fn trace_serve(a: &Args, report: &mut Report) -> Result<(), String> {
    let secs = a.seconds as f64;
    let t = serve::trace(a.seed, secs, report)?;
    let costs = layers::report_suite(&serve::lm_config(), 0.2 * secs * 1e3, a.seed, report);
    serve::report_gateway_layer(&t, "", report);
    serve::report_workload(&t, &costs, report);
    let probe = train::trace(false, a.seed, PROBE_SECONDS, report);
    train::report_model_layer(&probe, PROBE, report);
    // Checkpointing the served model; replay is a training step, so the
    // recovery ratio does not apply to serving.
    let lm = serve::lm_model(&mut attn_tensor::rng::TensorRng::seed_from(a.seed));
    let mut tr = layers::trainer_for(&lm);
    let cfg = serve::lm_config();
    let ds = attn_model::SyntheticMrpc::generate(train::BATCH, cfg.vocab, 32, a.seed);
    let batch: Vec<&attn_model::Example> = ds.examples.iter().collect();
    let (save, load, _, bytes) = layers::recovery(&mut tr, &batch, 5);
    report.metric("attn_ckpt.save_ms", save, "ms", "served model, median of 5");
    report.metric("attn_ckpt.load_ms", load, "ms", "served model, median of 5");
    report.metric(
        "attn_ckpt.bytes",
        bytes as f64,
        "B",
        "served model checkpoint size",
    );
    report.metric(
        "attn_ckpt.cr_over_abft",
        0.0,
        "ratio",
        "n/a: no recovery replay in serving",
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train|train-faults|serve> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    header(&args);
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: cannot measure: {e}");
        return ExitCode::from(3);
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
