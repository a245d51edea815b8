//! The `serve` workload: a closed loop of clients on one gateway.
//!
//! Each client submits its next request on the tick after its previous one
//! completes, so the offered load follows the program's speed. An
//! unprotected twin gateway with the same weights serves the same request
//! streams, one tick each in turn, for `protect_ratio`.
//!
//! The gateway reports completions, not first tokens, so time to first
//! token comes from a shadow of its documented schedule (FIFO admission,
//! chunked prefill, one step per hot session per tick, hot-row budget
//! scanned in admission order). The shadow is checked against every
//! observable counter after every tick; any disagreement stops the run.

use crate::host::{EndToEnd, HostRef};
use crate::report::Report;
use crate::stats;
use crate::sys::{self, ms_since};
use attn_model::model::{ModelConfig, TransformerModel};
use attn_serve::{Completion, FinishReason, Gateway, GatewayConfig, Request, RequestId};
use attn_tensor::rng::TensorRng;
use attn_tensor::workspace::thread_alloc_events;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Concurrent clients.
pub const CLIENTS: usize = 12;
/// Gateway `max_live`.
pub const MAX_LIVE: usize = 8;
/// Prompt length range, inclusive.
pub const PROMPT: (usize, usize) = (8, 32);
/// `max_new` range, inclusive.
pub const MAX_NEW: (usize, usize) = (16, 64);
/// Hot KV-row budget: below the ~8 x 60 rows the live sessions reach, so
/// sessions park and unpark.
pub const KV_ROW_BUDGET: usize = 320;
/// Warm-up window (rounds) and cap (windows); see `sys::warm_up`. The
/// gateway keeps taking workspace buffers in steady state, so warm-up ends
/// when the rate stops falling rather than at zero.
const WARMUP_WINDOW: usize = 32;
const WARMUP_CAP: usize = 30;
/// Rounds between host reference samples in the timed window.
const HOST_EVERY: usize = 4;

/// The served model: GPT-2, hidden 128, 4 heads, 2 layers, vocabulary 128,
/// 128 positions, LM head.
pub fn lm_config() -> ModelConfig {
    let mut c = ModelConfig::gpt2();
    c.hidden = 128;
    c.heads = 4;
    c.layers = 2;
    c.vocab = 128;
    c.num_classes = c.vocab;
    c.max_seq = 128;
    c
}

/// A protected instance of the served model with weights from `rng`.
pub fn lm_model(rng: &mut TensorRng) -> TransformerModel {
    TransformerModel::new(lm_config(), ProtectionConfig::full(), rng)
}

/// Gateway configuration of the workload (one engine worker, the default).
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        max_live: MAX_LIVE,
        kv_row_budget: KV_ROW_BUDGET,
        ..GatewayConfig::default()
    }
}

/// One client's endless request stream, drawn from its own seeded RNG.
#[derive(Clone)]
pub struct Client {
    rng: TensorRng,
    vocab: usize,
}

impl Client {
    /// Client `i` of a run seeded with `seed`.
    pub fn new(seed: u64, i: usize, vocab: usize) -> Self {
        let mut root = TensorRng::seed_from(seed);
        let rng = (0..=i)
            .map(|_| root.fork())
            .last()
            .expect("at least one fork");
        Self { rng, vocab }
    }

    /// The client's next request.
    pub fn next_request(&mut self) -> Request {
        let len = PROMPT.0 + self.rng.index(PROMPT.1 - PROMPT.0 + 1);
        let prompt = (0..len).map(|_| self.rng.index(self.vocab)).collect();
        let max_new = MAX_NEW.0 + self.rng.index(MAX_NEW.1 - MAX_NEW.0 + 1);
        Request {
            prompt,
            max_new,
            seed: self.rng.next_u64(),
        }
    }
}

/// All client streams of a run.
pub fn clients(seed: u64) -> Vec<Client> {
    (0..CLIENTS)
        .map(|i| Client::new(seed, i, lm_config().vocab))
        .collect()
}

// ---------------------------------------------------------------------------
// Shadow schedule
// ---------------------------------------------------------------------------

struct ShadowLive {
    id: RequestId,
    prompt_len: usize,
    fed: usize,
    gen: usize,
    max_new: usize,
    parked: bool,
    admitted: u64,
    first_token: Option<u64>,
}

/// When a finished request was admitted and produced its first token.
#[derive(Debug, Clone, Copy)]
struct Milestones {
    submitted: u64,
    admitted: u64,
    first_token: u64,
    finished: u64,
}

#[derive(Default)]
struct Shadow {
    queue: VecDeque<(RequestId, usize, usize, u64)>,
    live: Vec<ShadowLive>,
    done: BTreeMap<RequestId, Milestones>,
    submitted: BTreeMap<RequestId, u64>,
    now: u64,
    parks: u64,
    unparks: u64,
    generated: u64,
    fed: u64,
    /// Hot sessions stepped by the last tick.
    last_hot: usize,
    /// Sessions admitted by the last tick.
    last_admitted: usize,
}

impl Shadow {
    fn submit(&mut self, id: RequestId, prompt_len: usize, max_new: usize) {
        self.queue.push_back((id, prompt_len, max_new, self.now));
        self.submitted.insert(id, self.now);
    }

    fn tick(&mut self, cfg: &GatewayConfig, capacity: usize) {
        let now = self.now;
        let done = &mut self.done;
        let submitted = &self.submitted;
        self.live.retain(|l| {
            let budget_done = l.fed >= l.prompt_len && l.gen >= l.max_new;
            let full = capacity.saturating_sub(l.fed + l.gen) == 0;
            if budget_done || full {
                done.insert(
                    l.id,
                    Milestones {
                        submitted: submitted[&l.id],
                        admitted: l.admitted,
                        first_token: l.first_token.unwrap_or(now),
                        finished: now,
                    },
                );
            }
            !(budget_done || full)
        });
        self.last_admitted = 0;
        while self.live.len() < cfg.max_live {
            let Some((id, prompt_len, max_new, _)) = self.queue.pop_front() else {
                break;
            };
            self.last_admitted += 1;
            self.live.push(ShadowLive {
                id,
                prompt_len,
                fed: cfg.prefill_chunk.min(prompt_len),
                gen: 0,
                max_new,
                parked: false,
                admitted: now,
                first_token: None,
            });
        }
        let mut hot = 0usize;
        for (i, l) in self.live.iter_mut().enumerate() {
            let rows = l.fed + l.gen;
            if i == 0 || hot.saturating_add(rows) <= cfg.kv_row_budget {
                if l.parked {
                    l.parked = false;
                    self.unparks += 1;
                }
                hot = hot.saturating_add(rows);
            } else if !l.parked {
                l.parked = true;
                self.parks += 1;
            }
        }
        self.last_hot = 0;
        for l in self.live.iter_mut().filter(|l| !l.parked) {
            self.last_hot += 1;
            if l.fed < l.prompt_len {
                l.fed += 1;
                self.fed += 1;
            } else {
                l.first_token.get_or_insert(now);
                l.gen += 1;
                self.generated += 1;
            }
        }
        self.now += 1;
    }

    /// Compare with the gateway after a tick; `Err` names the first
    /// counter that disagrees.
    fn agree(&self, gw: &Gateway) -> Result<(), String> {
        let st = gw.stats();
        let parked = self.live.iter().filter(|l| l.parked).count();
        let pairs = [
            ("now", self.now, gw.now()),
            ("queue_len", self.queue.len() as u64, gw.queue_len() as u64),
            ("live_len", self.live.len() as u64, gw.live_len() as u64),
            ("parked_len", parked as u64, gw.parked_len() as u64),
            ("park_events", self.parks, st.park_events),
            ("unpark_events", self.unparks, st.unpark_events),
            ("generated_tokens", self.generated, st.generated_tokens),
            ("fed_tokens", self.fed, st.fed_tokens),
        ];
        match pairs.iter().find(|(_, a, b)| a != b) {
            Some((name, a, b)) => Err(format!(
                "shadow schedule diverged from the gateway at tick {}: {name} {a} vs {b}",
                self.now
            )),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// One side of the interleaved loop
// ---------------------------------------------------------------------------

/// A finished request as the benchmark saw it.
pub struct Finished {
    /// The request as submitted.
    pub request: Request,
    /// The gateway's completion.
    pub completion: Completion,
    /// Tick (round) in which it was submitted.
    pub submit_tick: usize,
    /// Tick whose engine step produced its first token.
    pub first_token_tick: usize,
    /// Tick after which its completion was drained.
    pub done_tick: usize,
    /// Ticks queued before admission.
    pub admit_wait: u64,
    /// Completed inside the timed window.
    pub timed: bool,
}

/// Per-tick trace record.
#[derive(Debug, Clone, Copy)]
pub struct TickSpan {
    /// `Gateway::tick` wall time, ms.
    pub tick_ms: f64,
    /// Hot sessions stepped.
    pub hot: usize,
    /// Sessions admitted.
    pub admitted: usize,
    /// Queue length before the tick.
    pub queue: usize,
    /// Tokens generated.
    pub generated: u64,
    /// Park and unpark events.
    pub parks: u64,
    pub unparks: u64,
    /// Workspace allocation events.
    pub allocs: u64,
}

struct Side {
    gw: Gateway,
    shadow: Shadow,
    clients: Vec<Client>,
    /// Per client: the request in flight, its id and submit tick.
    inflight: Vec<Option<(RequestId, Request, usize)>>,
    /// Clients whose next request goes in before the next tick.
    ready: Vec<usize>,
    /// Wall time of each tick's gateway calls (submit, tick, drain), ms.
    dur: Vec<f64>,
    /// Ticks in the timed window that stepped no session.
    idle_ticks: u64,
}

impl Side {
    fn new(model: TransformerModel, seed: u64) -> Self {
        Self {
            gw: Gateway::new(model, gateway_config()),
            shadow: Shadow::default(),
            clients: clients(seed),
            inflight: vec![None; CLIENTS],
            ready: (0..CLIENTS).collect(),
            dur: Vec::new(),
            idle_ticks: 0,
        }
    }

    /// Submit for every ready client (unless `drain`), tick once, and
    /// collect the completions. Shadow disagreement is an error.
    fn tick(
        &mut self,
        drain: bool,
        timed: bool,
        out: &mut Vec<Finished>,
        report: &mut Report,
    ) -> Result<TickSpan, String> {
        let t0 = Instant::now();
        let now = self.dur.len();
        if !drain {
            for c in std::mem::take(&mut self.ready) {
                let req = self.clients[c].next_request();
                match self.gw.submit(req.clone()) {
                    Ok(id) => {
                        self.shadow.submit(id, req.prompt.len(), req.max_new);
                        self.inflight[c] = Some((id, req, now));
                    }
                    Err(e) => {
                        report.op(false, || format!("client {c}: submission shed: {e:?}"));
                        self.ready.push(c);
                    }
                }
            }
        }
        let queue = self.gw.queue_len();
        let before = *self.gw.stats();
        let a0 = thread_alloc_events();
        let k0 = Instant::now();
        self.gw.tick();
        let tick_ms = ms_since(k0);
        let allocs = thread_alloc_events() - a0;
        let completions = self.gw.drain_completions();
        self.dur.push(ms_since(t0));
        let st = *self.gw.stats();
        self.shadow.tick(self.gw.config(), self.gw.table_capacity());
        self.shadow.agree(&self.gw)?;
        if timed && st.engine_steps == before.engine_steps {
            self.idle_ticks += 1;
        }
        for comp in completions {
            let c = self
                .inflight
                .iter()
                .position(|f| f.as_ref().is_some_and(|(id, _, _)| *id == comp.id))
                .ok_or_else(|| format!("completion for unknown request {}", comp.id))?;
            let (_, request, submit_tick) = self.inflight[c].take().expect("found above");
            let m = *self.shadow.done.get(&comp.id).ok_or_else(|| {
                format!(
                    "request {} completed before the shadow finished it",
                    comp.id
                )
            })?;
            if m.finished != comp.finished_at || m.submitted != comp.submitted_at {
                return Err(format!(
                    "shadow schedule diverged: request {} finished at tick {} (shadow {})",
                    comp.id, comp.finished_at, m.finished
                ));
            }
            out.push(Finished {
                submit_tick,
                first_token_tick: m.first_token as usize,
                done_tick: now,
                admit_wait: m.admitted - m.submitted,
                timed,
                request,
                completion: comp,
            });
            if !drain {
                self.ready.push(c);
            }
        }
        Ok(TickSpan {
            tick_ms,
            hot: self.shadow.last_hot,
            admitted: self.shadow.last_admitted,
            queue,
            generated: st.generated_tokens - before.generated_tokens,
            parks: st.park_events - before.park_events,
            unparks: st.unpark_events - before.unpark_events,
            allocs,
        })
    }
}

/// The protected gateway and its unprotected twin, stepped in turn.
pub struct Setup {
    prot: Side,
    twin: Side,
    model: TransformerModel,
    /// Host reference position of each round.
    round_pos: Vec<u64>,
    /// Protected-side completions so far.
    pub finished: Vec<Finished>,
}

impl Setup {
    /// Build both gateways from `seed` and warm them up, with a host
    /// reference sample every `HOST_EVERY` rounds; returns the instance and
    /// its set-up time in seconds at the reference speed (sampling
    /// excluded).
    pub fn build(
        seed: u64,
        host: &mut HostRef,
        report: &mut Report,
    ) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let mark = host.mark();
        let mut sampling_ms = 0.0;
        let mut rng = TensorRng::seed_from(seed ^ 0x5eed_5e7e);
        let model = lm_model(&mut rng);
        let mut off = model.clone();
        off.set_protection(ProtectionConfig::off());
        let mut s = Self {
            prot: Side::new(model.clone(), seed),
            twin: Side::new(off, seed),
            model,
            round_pos: Vec::new(),
            finished: Vec::new(),
        };
        sys::warm_up(WARMUP_WINDOW, WARMUP_CAP, || {
            let pos = host.advance();
            s.round(pos, false, false, report)?;
            if s.round_pos.len().is_multiple_of(HOST_EVERY) {
                sampling_ms += host.sample();
            }
            Ok::<(), String>(())
        })?;
        let raw = t0.elapsed().as_secs_f64() - sampling_ms / 1e3;
        Ok((s, raw / host.factor_since(mark)))
    }

    /// One tick on each side, the side going first alternating, at host
    /// reference position `pos`; returns the protected and twin tick spans.
    pub fn round(
        &mut self,
        pos: u64,
        drain: bool,
        timed: bool,
        report: &mut Report,
    ) -> Result<(TickSpan, TickSpan), String> {
        let mut sink = Vec::new();
        let (p, t) = if self.round_pos.len().is_multiple_of(2) {
            let p = self.prot.tick(drain, timed, &mut self.finished, report)?;
            (p, self.twin.tick(drain, timed, &mut sink, report)?)
        } else {
            let t = self.twin.tick(drain, timed, &mut sink, report)?;
            (self.prot.tick(drain, timed, &mut self.finished, report)?, t)
        };
        self.round_pos.push(pos);
        Ok((p, t))
    }

    /// Timed rounds for `seconds` (and until `min_done` requests completed
    /// inside the window, for at most three times `seconds`), with a host
    /// reference sample every `HOST_EVERY` rounds. Returns the tick spans
    /// and the busy time of each side.
    pub fn timed(
        &mut self,
        seconds: f64,
        min_done: usize,
        host: &mut HostRef,
        report: &mut Report,
    ) -> Result<Window, String> {
        let first = self.round_pos.len();
        let g0 = self.prot.gw.stats().generated_tokens;
        let wall = Instant::now();
        let mut spans = Vec::new();
        loop {
            let pos = host.advance();
            spans.push(self.round(pos, false, true, report)?.0);
            if spans.len().is_multiple_of(HOST_EVERY) {
                host.sample();
            }
            let el = wall.elapsed().as_secs_f64();
            let done = self.finished.iter().filter(|f| f.timed).count();
            if (el >= seconds && done >= min_done) || el >= 3.0 * seconds {
                break;
            }
        }
        let rounds = first..self.round_pos.len();
        Ok(Window {
            prot_ms: self.prot.dur[rounds.clone()].iter().sum(),
            twin_ms: self.twin.dur[rounds.clone()].iter().sum(),
            rounds,
            generated: self.prot.gw.stats().generated_tokens - g0,
            spans,
            idle_ticks: self.prot.idle_ticks,
        })
    }

    /// Stop submitting and tick until every request in flight completed.
    pub fn drain(&mut self, report: &mut Report) -> Result<(), String> {
        while self.prot.gw.live_len() + self.prot.gw.queue_len() > 0
            || self.twin.gw.live_len() + self.twin.gw.queue_len() > 0
        {
            self.round(u64::MAX, true, false, report)?;
        }
        Ok(())
    }

    /// Prefix sums of the protected side's tick times at the reference
    /// speed: element `k` is the busy time before round `k`, ms.
    pub fn reference_clock(&self, host: &HostRef) -> Vec<f64> {
        let norm = host.normalise(&self.prot.dur, &self.round_pos);
        std::iter::once(0.0)
            .chain(norm.iter().scan(0.0, |acc, d| {
                *acc += d;
                Some(*acc)
            }))
            .collect()
    }

    /// Count every protected-side request as an operation: it fails when
    /// shed, expired or short of its budget, or when its tokens differ
    /// from the same request served alone on a fresh gateway.
    pub fn verify(&self, report: &mut Report) {
        let mut solo = Gateway::new(self.model.clone(), gateway_config());
        for f in &self.finished {
            let c = &f.completion;
            let full =
                c.reason == FinishReason::TokenBudget && c.generated().len() == f.request.max_new;
            let alone = serve_alone(&mut solo, &f.request);
            let same = alone.as_ref().is_some_and(|a| a.tokens == c.tokens);
            report.op(full && same, || {
                format!(
                    "request {}: reason {:?}, {} of {} tokens, matches solo serving: {same}",
                    c.id,
                    c.reason,
                    c.generated().len(),
                    f.request.max_new
                )
            });
        }
    }

    /// ABFT activity summed over the protected completions.
    pub fn protected_report(&self) -> AbftReport {
        let mut r = AbftReport::default();
        for f in &self.finished {
            r.merge(&f.completion.report);
        }
        r
    }
}

/// The timed window's totals.
pub struct Window {
    /// Rounds of the window.
    pub rounds: std::ops::Range<usize>,
    /// Protected busy time, ms.
    pub prot_ms: f64,
    /// Twin busy time, ms.
    pub twin_ms: f64,
    /// Tokens the protected gateway generated.
    pub generated: u64,
    /// Protected tick spans.
    pub spans: Vec<TickSpan>,
    /// Ticks that stepped no session.
    pub idle_ticks: u64,
}

/// Serve `req` with no other request on `gw`.
fn serve_alone(gw: &mut Gateway, req: &Request) -> Option<Completion> {
    gw.submit(req.clone()).ok()?;
    loop {
        gw.tick();
        if let Some(c) = gw.drain_completions().pop() {
            return Some(c);
        }
    }
}

/// Set up `reps` times; keep the last instance and return every set-up
/// time (s) at the reference speed.
pub fn build_repeated(
    seed: u64,
    reps: usize,
    host: &mut HostRef,
    report: &mut Report,
) -> Result<(Setup, Vec<f64>), String> {
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
        let (s, t) = Setup::build(seed, host, r)?;
        times.push(t);
        kept = Some(s);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// The untraced end-to-end run of the serve workload.
pub fn run(seed: u64, seconds: f64, setups: usize, report: &mut Report) -> Result<(), String> {
    let mut host = HostRef::new(gateway_config().workers);
    let (mut s, setups_s) = build_repeated(seed, setups, &mut host, report)?;
    let w = s.timed(seconds, stats::samples_for_tail(90), &mut host, report)?;
    s.drain(report)?;
    s.verify(report);
    let timed: Vec<&Finished> = s.finished.iter().filter(|f| f.timed).collect();
    if timed.is_empty() {
        report.op(false, || {
            "no request completed inside the timed window".into()
        });
        return Ok(());
    }
    let clock = s.reference_clock(&host);
    let span = |from: usize, to: usize| clock[to + 1] - clock[from];
    let lat: Vec<f64> = timed
        .iter()
        .map(|f| span(f.submit_tick, f.done_tick))
        .collect();
    let ttft: Vec<f64> = timed
        .iter()
        .map(|f| span(f.submit_tick, f.first_token_tick))
        .collect();
    let ticks = w.spans.len();
    EndToEnd {
        setups_s: &setups_s,
        tokens: w.generated as f64,
        busy_ms: span(w.rounds.start, w.rounds.end - 1),
        raw_busy_ms: w.prot_ms,
        throughput_what: format!(
            "{} generated tokens over {ticks} ticks, {CLIENTS} closed-loop clients",
            w.generated
        ),
        latency_ms: &lat,
        latency_what: "submit to completion",
        ttft_ms: &ttft,
        ttft_what: "submit to first token",
    }
    .report(&host, report);
    report.metric(
        "protect_ratio",
        w.prot_ms / w.twin_ms,
        "ratio",
        format!("protected over unprotected twin gateway busy time, {ticks} interleaved ticks"),
    );
    report.op(w.idle_ticks == 0, || {
        format!("{} timed ticks had no live session", w.idle_ticks)
    });
    Ok(())
}

/// The serve workload's traced run: untraced baseline ticks, then ticks
/// with per-tick spans; the tick is decomposed with the decode layer's
/// measured per-call costs.
pub fn trace(seed: u64, seconds: f64, report: &mut Report) -> Result<ServeTrace, String> {
    let mut host = HostRef::new(gateway_config().workers);
    let (mut s, _) = build_repeated(seed, 1, &mut host, report)?;
    let base = s.timed(0.3 * seconds, 1, &mut host, report)?;
    let traced = s.timed(0.45 * seconds, 1, &mut host, report)?;
    s.drain(report)?;
    s.verify(report);
    Ok(ServeTrace {
        setup: s,
        base,
        traced,
    })
}

/// What the serve trace recorded.
pub struct ServeTrace {
    /// The workload instance.
    pub setup: Setup,
    /// Untraced window.
    pub base: Window,
    /// Traced window.
    pub traced: Window,
}

/// Mean of `f` over the window's ticks.
fn tick_mean(w: &Window, f: impl Fn(&TickSpan) -> f64) -> f64 {
    w.spans.iter().map(f).sum::<f64>() / w.spans.len() as f64
}

/// Record the `attn_serve` gateway metrics of a traced serve loop;
/// `source` says which loop measured them.
pub fn report_gateway_layer(t: &ServeTrace, source: &str, report: &mut Report) {
    let w = &t.traced;
    let med =
        |f: &dyn Fn(&TickSpan) -> f64| stats::median(&w.spans.iter().map(f).collect::<Vec<_>>());
    let mean = |f: &dyn Fn(&TickSpan) -> f64| tick_mean(w, f);
    report.metric(
        "attn_serve.tick_ms_p50",
        med(&|s| s.tick_ms),
        "ms",
        format!("Gateway::tick, n={}{source}", w.spans.len()),
    );
    report.metric(
        "attn_serve.tokens_per_tick",
        mean(&|s| s.generated as f64),
        "tok/tick",
        source.trim_start_matches(", "),
    );
    report.metric(
        "attn_serve.queue_depth_mean",
        mean(&|s| s.queue as f64),
        "requests",
        format!("before each tick{source}"),
    );
    report.metric(
        "attn_serve.park_events",
        mean(&|s| s.parks as f64),
        "1/tick",
        source.trim_start_matches(", "),
    );
    report.metric(
        "attn_serve.peak_hot_rows",
        t.setup.prot.gw.stats().peak_hot_rows as f64,
        "rows",
        format!("budget {KV_ROW_BUDGET}{source}"),
    );
    let waits: Vec<f64> = t
        .setup
        .finished
        .iter()
        .filter(|f| f.timed)
        .map(|f| f.admit_wait as f64)
        .collect();
    report.metric(
        "attn_serve.admit_wait_ticks_p50",
        if waits.is_empty() {
            0.0
        } else {
            stats::median(&waits)
        },
        "ticks",
        format!("submit to admission, n={}{source}", waits.len()),
    );
}

/// Record the workload-level per-layer metrics of the serve workload's
/// traced run; `costs` are the decode layer's per-call costs from the
/// layer suite, which model the tick for `trace.coverage`.
pub fn report_workload(t: &ServeTrace, costs: &crate::layers::DecodeCosts, report: &mut Report) {
    let w = &t.traced;
    let mean = |f: &dyn Fn(&TickSpan) -> f64| tick_mean(w, f);
    report.metric(
        "attn_tensor.ws_allocs_per_step",
        mean(&|s| s.allocs as f64),
        "1/step",
        "workspace allocation events per tick (one engine worker)",
    );
    let r = t.setup.protected_report();
    let steps = t.setup.prot.gw.stats().engine_steps.max(1) as f64;
    report.metric(
        "attn_tensor.guard_checks_per_step",
        r.op_checks as f64 / steps,
        "1/step",
        "per engine step, all requests",
    );
    report.metric(
        "attn_tensor.guard_heals_per_step",
        r.op_heals as f64 / steps,
        "1/step",
        "per engine step, all requests",
    );
    report.metric(
        "attnchecker.sections_checked",
        r.sections_checked as f64 / steps,
        "1/step",
        "per engine step",
    );
    for (name, v) in [
        ("attnchecker.detections", r.detections),
        ("attnchecker.corrections", r.correction_count()),
        ("attnchecker.propagations", r.propagations),
        ("attnchecker.rebuilds", r.checksum_rebuilds),
        ("attnchecker.unrecovered", r.unrecovered),
    ] {
        report.metric(name, v as f64 / steps, "1/step", "no faults injected");
    }
    report.metric(
        "attnchecker.correction_yield",
        0.0,
        "ratio",
        "no faults injected",
    );
    report.metric(
        "attnchecker.false_positives",
        (r.detections + r.op_detections) as f64,
        "count",
        format!("over {} requests", t.setup.finished.len()),
    );
    let thr = |w: &Window| w.generated as f64 / w.prot_ms;
    report.metric(
        "trace.overhead",
        thr(&t.traced) / thr(&t.base),
        "ratio",
        "traced over untraced generated tok/s",
    );
    // Tick time the measured decode-layer costs account for.
    let modelled: f64 = w
        .spans
        .iter()
        .map(|s| {
            let step = if s.hot == 0 {
                0.0
            } else {
                costs.step_ms[s.hot.min(costs.step_ms.len()) - 1]
            };
            let prefill = s.admitted as f64 * 4.0 * costs.prefill_ms_per_tok;
            step + prefill + s.parks as f64 * costs.park_ms + s.unparks as f64 * costs.unpark_ms
        })
        .sum();
    let measured: f64 = w.spans.iter().map(|s| s.tick_ms).sum();
    report.metric(
        "trace.coverage",
        modelled / measured,
        "ratio",
        "tick time explained by step_batch/prefill/park/unpark costs from the layer suite",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_streams() {
        let draw = |seed| -> Vec<Request> {
            clients(seed)
                .into_iter()
                .flat_map(|mut c| (0..20).map(move |_| c.next_request()))
                .collect()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        for r in &a {
            assert!((PROMPT.0..=PROMPT.1).contains(&r.prompt.len()));
            assert!((MAX_NEW.0..=MAX_NEW.1).contains(&r.max_new));
            assert!(r.prompt.iter().all(|&t| t < lm_config().vocab));
        }
        // Clients draw distinct streams.
        let mut c = clients(11);
        let first = c[0].next_request();
        assert_ne!(first, c[1].next_request());
    }

    #[test]
    fn requests_fit_the_position_table() {
        assert!(PROMPT.1 + MAX_NEW.1 < lm_config().max_seq);
    }
}
