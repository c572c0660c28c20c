//! The serving workloads, all on the default `ServeConfig`.
//!
//! * `serve_miss`: a closed loop into `Server::submit_wait` from two
//!   in-process callers. Every request carries a distinct field, so the
//!   patch cache misses and decoding and batching do the work.
//! * `net_repeat`: a closed loop over loopback TCP (`NetServer` +
//!   `NetClient`) from two connections, each cycling a pool of eight
//!   fields, so the cache serves nearly every decode.
//! * `serve_open`: an open loop into `Server::submit_with`. One generator
//!   thread sends every request at its seeded Poisson due time, whether or
//!   not earlier ones were answered; each latency runs from the due time to
//!   the reply, so a stall also charges the requests queued behind it.
//!
//! Every full response is checked against an engine built separately from
//! the same checkpoint: its bins (and, on the wire, its scores) against the
//! plan stage `InferenceEngine::infer` runs, for every response; its
//! patches against `InferenceEngine::infer` bitwise, for a seeded sample of
//! in-process responses, since the cache promises bitwise identity.
//!
//! Layers inside the server cannot be timed from outside. In the traced
//! run a fixed set of the workload's fields is replayed, one at a time,
//! through the public `core` entry points (`try_plan`, then one decoder
//! forward per bin); that replay gives the `core.*` and `nn.*` metrics and
//! must reproduce `InferenceEngine::infer` bitwise.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use adarnet_core::checkpoint::{self, ModelCheckpoint};
use adarnet_core::engine::InferenceEngine;
use adarnet_net::{
    decode_response, encode_request, encode_response, NetClient, NetServer, Request, Response,
    Status,
};
use adarnet_serve::{
    ModelRegistry, Priority, ResponseKind, ServeConfig, ServeStats, Server, SubmitOptions,
};
use adarnet_tensor::Tensor;

use crate::infer::{composed_predict, core_metrics, decoder_flops_per_pixel, prediction_digest};
use crate::inputs::{self, Digest, Load, Rng};
use crate::report::{self, Metrics, Outcome};
use crate::stats::{mean, median, nearest_rank, Quantile};
use crate::trace::Tracer;
use crate::SETUPS;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// In-process open loop, distinct fields.
    Open,
    /// In-process closed loop, distinct fields.
    Miss,
    /// Closed loop over TCP, a pool of eight fields.
    NetRepeat,
}

impl Loop {
    fn name(self) -> &'static str {
        match self {
            Loop::Open => "serve_open",
            Loop::Miss => "serve_miss",
            Loop::NetRepeat => "net_repeat",
        }
    }

    fn load(self, seed: u64, seconds: f64) -> Load {
        match self {
            Loop::Open => Load::open(seed, seconds),
            Loop::Miss => Load::miss(seed, seconds),
            Loop::NetRepeat => Load::net(seed),
        }
    }

    fn pinned_seed0(self) -> u64 {
        match self {
            Loop::Open => inputs::OPEN_SEED0_DIGEST,
            Loop::Miss => inputs::MISS_SEED0_DIGEST,
            Loop::NetRepeat => inputs::NET_SEED0_DIGEST,
        }
    }

    /// Field of caller `c`'s `k`-th request in a closed loop over `n`
    /// fields: `serve_miss` deals the distinct fields out in turn,
    /// `net_repeat` starts the callers half a pool apart.
    fn pick(self, c: usize, k: usize, n: usize) -> usize {
        match self {
            Loop::NetRepeat => (c * n / CALLERS + k) % n,
            _ => (k * CALLERS + c) % n,
        }
    }
}

/// Callers (client connections) of the closed loops.
const CALLERS: usize = 2;
/// In-process responses whose patches are compared bitwise.
const BITWISE_SAMPLE: usize = 16;
/// The bitwise sample is drawn from the first this-many fields, which
/// every run uses.
const SAMPLE_SPAN: usize = 128;
/// Generator lateness beyond which the loop was not open; the run fails.
const MAX_GEN_LAG: Duration = Duration::from_millis(100);
/// Window length of the end-to-end serving figures.
const WINDOW: Duration = Duration::from_secs(2);
/// Fields the traced run replays through the `core` entry points.
const REPLAY_FIELDS: usize = 40;

/// A started server (and listener).
struct Ready {
    server: Arc<Server>,
    net: Option<NetServer>,
}

fn start(ckpt: &ModelCheckpoint, over_tcp: bool) -> Result<Ready, String> {
    let registry = ModelRegistry::new();
    registry.register("bench", ckpt.clone());
    registry.activate("bench").map_err(|e| e.to_string())?;
    let server = Arc::new(
        Server::start(ServeConfig::default(), Arc::new(registry)).map_err(|e| e.to_string())?,
    );
    let net = if over_tcp {
        Some(NetServer::start("127.0.0.1:0", server.clone()).map_err(|e| e.to_string())?)
    } else {
        None
    };
    Ok(Ready { server, net })
}

/// Stop the listener and the server; returns the server's final counts.
fn stop(ready: Ready) -> ServeStats {
    if let Some(net) = ready.net {
        net.shutdown();
    }
    match Arc::try_unwrap(ready.server) {
        Ok(server) => server.shutdown(),
        Err(shared) => shared.stats(),
    }
}

/// Model load, input generation and server start, as a user pays them.
fn setup(kind: Loop, seed: u64, seconds: f64) -> Result<(ModelCheckpoint, Ready, Load), String> {
    let ckpt = inputs::load_checkpoint()?;
    let load = kind.load(seed, seconds);
    let ready = start(&ckpt, kind == Loop::NetRepeat)?;
    Ok((ckpt, ready, load))
}

/// One answered request, as the client saw it.
struct Obs {
    /// Index of the field in the workload's load.
    field: usize,
    /// Due time (open loop) or send time (closed loop) to reply.
    latency: Duration,
    /// Server-reported latency.
    server: Duration,
    /// Whether the response was a full inference.
    full: bool,
    /// Refinement bins of the response.
    bins: Vec<u8>,
    /// Bitwise digest of what is compared beyond the bins: the patches
    /// of a sampled in-process response, the scores of a wire response.
    digest: Option<u64>,
    /// Reply time, relative to the pass start.
    done: Duration,
    /// `Server::queue_depth()` just before the request was sent.
    depth: usize,
}

impl Obs {
    fn sent(&self) -> Duration {
        self.done.saturating_sub(self.latency)
    }
}

/// One wire exchange: the request sent and the response received.
type Frame = Option<(Request, Response)>;

/// What one caller observed, or why it stopped.
type CallerResult = Result<(Vec<Obs>, Vec<Frame>), String>;

/// What one pass over the load measured.
struct Pass {
    obs: Vec<Obs>,
    /// Wall time of the pass.
    wall: Duration,
    /// Server counts after shutdown.
    stats: ServeStats,
    cache_hits: u64,
    cache_misses: u64,
    /// Generator lateness (open loop).
    lag_max: Duration,
    /// Data-plane allocations during the pass, all threads.
    allocs: u64,
    /// One wire exchange per pool field (`net_repeat`).
    frames: Vec<Frame>,
    /// Requests served before the measured window (cache warm-up).
    warmup: u64,
}

impl Pass {
    /// Close a pass: `before` holds the data-plane allocation and cache
    /// counts at the start of the measured window.
    fn finish(ready: Ready, obs: Vec<Obs>, wall: Duration, before: (u64, u64, u64)) -> Pass {
        let cache = ready.server.cache();
        let (cache_hits, cache_misses) = (cache.hits() - before.1, cache.misses() - before.2);
        let allocs = adarnet_tensor::workspace::data_allocs() - before.0;
        Pass {
            stats: stop(ready),
            obs,
            wall,
            cache_hits,
            cache_misses,
            lag_max: Duration::ZERO,
            allocs,
            frames: Vec::new(),
            warmup: 0,
        }
    }

    fn hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }

    fn batch_mean(&self) -> f64 {
        self.stats.batched_requests as f64 / self.stats.batches.max(1) as f64
    }
}

/// Data-plane allocation and cache counts now.
fn counts(server: &Server) -> (u64, u64, u64) {
    (
        adarnet_tensor::workspace::data_allocs(),
        server.cache().hits(),
        server.cache().misses(),
    )
}

/// Record a response received in process.
fn in_process_obs(
    field: usize,
    answer: Option<adarnet_serve::ServeResponse>,
    sampled: bool,
) -> Obs {
    let mut o = Obs {
        field,
        latency: Duration::ZERO,
        server: Duration::ZERO,
        full: false,
        bins: Vec::new(),
        digest: None,
        done: Duration::ZERO,
        depth: 0,
    };
    if let Some(resp) = answer {
        o.server = resp.latency;
        o.full = resp.kind == ResponseKind::Full;
        o.bins = resp.prediction.binning.bin_of_patch.clone();
        if sampled {
            o.digest = Some(prediction_digest(&resp.prediction));
        }
        resp.prediction.recycle();
    }
    o
}

fn open_pass(ready: Ready, load: &Load, sample: &[bool], tr: &Tracer) -> Pass {
    let server = ready.server.clone();
    let mut sends: Vec<Tensor<f32>> = load.fields.clone();
    let (tx, rx) = mpsc::channel();
    let before = counts(&server);
    let origin = Instant::now() + Duration::from_millis(20);
    let mut obs = Vec::with_capacity(load.fields.len());
    let mut lag_max = Duration::ZERO;
    std::thread::scope(|scope| {
        let server = &server;
        let offsets = &load.offsets;
        scope.spawn(move || {
            for (i, (field, &offset)) in sends.drain(..).zip(offsets).enumerate() {
                let due = origin + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let lag = Instant::now().saturating_duration_since(due);
                let depth = server.queue_depth();
                let sent = Instant::now();
                let reply = server.submit_with(field, SubmitOptions::default());
                let submitted = Instant::now();
                if tx
                    .send((i, due, lag, depth, sent, submitted, reply))
                    .is_err()
                {
                    return;
                }
            }
        });
        for (i, due, lag, depth, sent, submitted, reply) in rx {
            let answer = reply.recv().ok();
            let done = Instant::now();
            lag_max = lag_max.max(lag);
            let id = tr.record("serve.request", 0, due, done);
            tr.record("serve.submit", id, sent, submitted);
            tr.record("serve.wait", id, submitted, done);
            let mut o = in_process_obs(i, answer, sample[i]);
            o.latency = done - due;
            o.done = done.saturating_duration_since(origin);
            o.depth = depth;
            obs.push(o);
        }
    });
    drop(server);
    let wall = obs.iter().map(|o| o.done).max().unwrap_or_default();
    let mut pass = Pass::finish(ready, obs, wall, before);
    pass.lag_max = lag_max;
    pass
}

/// One caller of a closed loop: requests back to back until `seconds`
/// have passed, over TCP when it holds a client, in process otherwise.
#[allow(clippy::too_many_arguments)]
fn caller(
    kind: Loop,
    c: usize,
    client: Option<&mut NetClient>,
    server: &Server,
    load: &Load,
    sample: &[bool],
    seconds: f64,
    origin: Instant,
    tr: &Tracer,
) -> CallerResult {
    let n = load.fields.len();
    let mut obs = Vec::new();
    let mut frames: Vec<Frame> = vec![None; n];
    let mut client = client;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0usize;
    while Instant::now() < deadline {
        let j = kind.pick(c, k, n);
        let field = load.fields[j].clone();
        let depth = server.queue_depth();
        let sent = Instant::now();
        // The reply time is taken before any bookkeeping on the response.
        let (mut o, done) = match client.as_deref_mut() {
            Some(client) => {
                let req = Request {
                    request_id: k as u64 + 1,
                    tenant: 0,
                    priority: Priority::Standard,
                    deadline_ms: 0,
                    trace_id: 0,
                    precision: None,
                    field,
                };
                let resp = client.request(&req).map_err(|e| e.to_string())?;
                let done = Instant::now();
                tr.record("net.request", 0, sent, done);
                let o = Obs {
                    field: j,
                    latency: Duration::ZERO,
                    server: Duration::from_nanos(resp.latency_ns),
                    full: resp.status == Status::Full,
                    bins: resp.bins.clone(),
                    digest: Some(scores_digest(&resp.scores)),
                    done: Duration::ZERO,
                    depth,
                };
                if frames[j].is_none() {
                    frames[j] = Some((req, resp));
                }
                (o, done)
            }
            None => {
                let resp = server.submit_wait(field);
                let done = Instant::now();
                tr.record("serve.request", 0, sent, done);
                (in_process_obs(j, Some(resp), sample[j]), done)
            }
        };
        o.latency = done - sent;
        o.done = done.saturating_duration_since(origin);
        o.depth = depth;
        obs.push(o);
        k += 1;
    }
    Ok((obs, frames))
}

fn closed_pass(
    ready: Ready,
    kind: Loop,
    load: &Load,
    sample: &[bool],
    seconds: f64,
    tr: &Tracer,
) -> Result<Pass, String> {
    let mut clients = Vec::with_capacity(CALLERS);
    for _ in 0..CALLERS {
        clients.push(match &ready.net {
            Some(net) => Some(NetClient::connect(net.local_addr()).map_err(|e| e.to_string())?),
            None => None,
        });
    }
    // `net_repeat` measures the cache's steady state: every pool field is
    // served once, in process, before the window opens.
    let warmup = if kind == Loop::NetRepeat {
        load.fields.len()
    } else {
        0
    };
    for field in &load.fields[..warmup] {
        ready.server.submit_wait(field.clone()).prediction.recycle();
    }
    let barrier = Barrier::new(CALLERS);
    let before = counts(&ready.server);
    let origin = Instant::now();
    let results: Vec<CallerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, server) = (&barrier, &*ready.server);
                scope.spawn(move || {
                    barrier.wait();
                    caller(
                        kind,
                        c,
                        client.as_mut(),
                        server,
                        load,
                        sample,
                        seconds,
                        origin,
                        tr,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("caller thread panicked".into()))
            })
            .collect()
    });
    let wall = origin.elapsed();
    drop(clients);
    let mut obs = Vec::new();
    let mut frames: Vec<Frame> = vec![None; load.fields.len()];
    for r in results {
        let (o, f) = r?;
        obs.extend(o);
        for (slot, x) in frames.iter_mut().zip(f) {
            if slot.is_none() {
                *slot = x;
            }
        }
    }
    let mut pass = Pass::finish(ready, obs, wall, before);
    pass.frames = frames;
    pass.warmup = warmup as u64;
    Ok(pass)
}

fn scores_digest(scores: &[f32]) -> u64 {
    let mut d = Digest::default();
    for s in scores {
        d.bytes(&s.to_bits().to_le_bytes());
    }
    d.finish()
}

/// What every response of a field is compared against.
#[derive(Default, Clone)]
struct Reference {
    /// Bins of the plan stage `InferenceEngine::infer` runs.
    bins: Vec<u8>,
    /// Digest of that plan's scores (what the wire carries).
    scores: u64,
    /// Digest of the full `InferenceEngine::infer` prediction (sampled
    /// fields only).
    full: Option<u64>,
}

/// References for every field a pass used (computed once per field, on
/// two threads).
fn extend_refs(
    refs: &mut [Option<Reference>],
    engine: &InferenceEngine,
    load: &Load,
    pass: &Pass,
    sample: &[bool],
) -> Result<(), String> {
    let mut todo: Vec<usize> = pass
        .obs
        .iter()
        .map(|o| o.field)
        .filter(|&j| refs[j].is_none())
        .collect();
    todo.sort_unstable();
    todo.dedup();
    let one = |j: usize| -> Result<Reference, String> {
        let x = engine.norm().normalize(&load.fields[j]);
        let plan = engine.frozen().try_plan(&x).map_err(|e| e.to_string())?;
        x.recycle();
        let full = if sample[j] {
            let p = engine.infer(&load.fields[j]).map_err(|e| e.to_string())?;
            let d = prediction_digest(&p);
            p.recycle();
            Some(d)
        } else {
            None
        };
        Ok(Reference {
            bins: plan.binning.bin_of_patch.clone(),
            scores: scores_digest(plan.scores.as_slice()),
            full,
        })
    };
    let half = todo.len().div_ceil(2).max(1);
    let done: Vec<Result<Vec<(usize, Reference)>, String>> = std::thread::scope(|scope| {
        let parts: Vec<_> = todo
            .chunks(half)
            .map(|chunk| scope.spawn(move || chunk.iter().map(|&j| Ok((j, one(j)?))).collect()))
            .collect();
        parts
            .into_iter()
            .map(|p| {
                p.join()
                    .unwrap_or_else(|_| Err("reference thread panicked".into()))
            })
            .collect()
    });
    for part in done {
        for (j, r) in part? {
            refs[j] = Some(r);
        }
    }
    Ok(())
}

/// Check a pass against the references; returns the failed request count.
fn check_pass(
    out: &mut Outcome,
    kind: Loop,
    label: &str,
    pass: &Pass,
    refs: &[Option<Reference>],
) -> u64 {
    let reference = |o: &Obs| refs[o.field].clone().unwrap_or_default();
    let bins_ok = |o: &Obs| o.bins == reference(o).bins;
    let value_ok = |o: &Obs| match (kind, o.digest) {
        (_, None) => true,
        (Loop::NetRepeat, Some(d)) => d == reference(o).scores,
        (_, Some(d)) => Some(d) == reference(o).full,
    };
    let full: Vec<&Obs> = pass.obs.iter().filter(|o| o.full).collect();
    out.check(
        format!(
            "{label}: every full response's bins equal InferenceEngine::infer ({} responses)",
            full.len()
        ),
        full.iter().all(|o| bins_ok(o)),
    );
    let compared = full.iter().filter(|o| o.digest.is_some()).count();
    out.check(
        format!(
            "{label}: {} {compared} responses match InferenceEngine::infer bitwise",
            if kind == Loop::NetRepeat {
                "scores of all"
            } else {
                "patches of a sample of"
            }
        ),
        compared > 0 && full.iter().all(|o| value_ok(o)),
    );
    let submitted = pass.obs.len() as u64 + pass.warmup;
    out.check(
        format!(
            "{label}: completed {} + degraded {} == submitted {submitted} (warm-up included)",
            pass.stats.completed,
            pass.stats.shed_total(),
        ),
        pass.stats.completed + pass.stats.shed_total() == submitted,
    );
    if kind == Loop::Open {
        out.check(
            format!(
                "{label}: generator lateness {:.3} ms stays under {} ms",
                pass.lag_max.as_secs_f64() * 1e3,
                MAX_GEN_LAG.as_millis()
            ),
            pass.lag_max <= MAX_GEN_LAG,
        );
    }
    pass.obs
        .iter()
        .filter(|o| !(o.full && bins_ok(o) && value_ok(o)))
        .count() as u64
}

/// Client latency in seconds; a failed request counts as missing every
/// latency limit.
fn latency_s(o: &Obs) -> f64 {
    if o.full {
        o.latency.as_secs_f64()
    } else {
        f64::INFINITY
    }
}

/// The end-to-end serving figures `(p50, p95, full responses per
/// second)`: the median, over consecutive [`WINDOW`]s of send time, of
/// each window's figure. The host's speed drifts in phases of a few
/// seconds, so a median over windows keeps one slow phase from deciding
/// the run. A window's rate is its full responses less one over the time
/// from its first to its last send. Each figure's `n` is the number of
/// requests behind it.
fn windowed(pass: &Pass, seconds: f64) -> (Quantile, Quantile, Quantile) {
    let windows = ((seconds / WINDOW.as_secs_f64()).floor() as usize).max(1);
    let mut per: Vec<Vec<&Obs>> = vec![Vec::new(); windows];
    for o in &pass.obs {
        let k = (o.sent().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if k < windows {
            per[k].push(o);
        }
    }
    let n = per.iter().map(Vec::len).sum();
    let over = |f: &dyn Fn(&[&Obs]) -> Option<f64>| {
        let v: Vec<f64> = per.iter().filter_map(|w| f(w)).collect();
        Quantile {
            value: median(&v).value,
            n,
        }
    };
    let latencies = |w: &[&Obs]| -> Vec<f64> { w.iter().map(|o| latency_s(o)).collect() };
    (
        over(&|w| (!w.is_empty()).then(|| median(&latencies(w)).value)),
        over(&|w| (!w.is_empty()).then(|| nearest_rank(&latencies(w), 0.95).value)),
        over(&|w| {
            let sent: Vec<f64> = w.iter().map(|o| o.sent().as_secs_f64()).collect();
            let span = sent.iter().copied().fold(f64::MIN, f64::max)
                - sent.iter().copied().fold(f64::MAX, f64::min);
            let full = w.iter().filter(|o| o.full).count();
            (full >= 2 && span > 0.0).then(|| (full - 1) as f64 / span)
        }),
    )
}

fn run_pass(
    ready: Ready,
    kind: Loop,
    load: &Load,
    sample: &[bool],
    seconds: f64,
    tr: &Tracer,
) -> Result<Pass, String> {
    match kind {
        Loop::Open => Ok(open_pass(ready, load, sample, tr)),
        _ => closed_pass(ready, kind, load, sample, seconds, tr),
    }
}

/// Run a serving workload: set up [`SETUPS`] times (median is `setup_s`),
/// run the load for `seconds`, check every response; with `traced`, run it
/// again on a fresh server under spans and replay a fixed set of fields
/// through the `core` entry points.
pub fn run(
    kind: Loop,
    seed: u64,
    seconds: f64,
    traced: bool,
    tr: &Tracer,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // One server at a time, so the peak resident set is one server's.
        if let Some((_, old, _)) = ready.take() {
            stop(old);
        }
        let t0 = Instant::now();
        let r = setup(kind, seed, seconds)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some(r);
    }
    let (ckpt, ready, load) = ready.expect("set-up ran");
    inputs::check_seeded(
        kind.name(),
        |s, t| kind.load(s, t),
        kind.pinned_seed0(),
        seed,
        seconds,
        &load,
    )?;
    let n = load.fields.len();
    let mut sample = vec![false; n];
    let mut rng = Rng::new(seed, 5);
    let span = n.min(SAMPLE_SPAN);
    for _ in 0..BITWISE_SAMPLE.min(span) {
        sample[(rng.next_u64() % span as u64) as usize] = true;
    }

    let pass = run_pass(ready, kind, &load, &sample, seconds, &Tracer::disabled())?;
    let rss_mb = report::peak_rss_mb()?;
    let engine = InferenceEngine::from_checkpoint(&ckpt).map_err(|e| e.to_string())?;
    let mut refs: Vec<Option<Reference>> = vec![None; n];
    extend_refs(&mut refs, &engine, &load, &pass, &sample)?;
    let mut out = Outcome::default();
    out.attempted = pass.obs.len() as u64;
    out.failed = check_pass(&mut out, kind, "untraced", &pass, &refs);
    out.note(format!(
        "{} requests in {:.3} s, cache hit rate {:.4}, mean batch {:.2}, peak resident set {rss_mb:.1} MB after the pass",
        pass.obs.len(),
        pass.wall.as_secs_f64(),
        pass.hit_rate(),
        pass.batch_mean()
    ));

    if !traced {
        let m = &mut out.metrics;
        let (p50, p95, rate) = windowed(&pass, seconds);
        m.set("p50_ms", p50.value * 1e3, p50.n);
        m.set("p95_ms", p95.value * 1e3, p95.n);
        m.set("throughput_per_s", rate.value, rate.n);
        let setup = median(&setup_s);
        m.set("setup_s", setup.value, setup.n);
        return Ok(out);
    }

    let (_, again, _) = setup(kind, seed, seconds)?;
    let tpass = run_pass(again, kind, &load, &sample, seconds, tr)?;
    extend_refs(&mut refs, &engine, &load, &tpass, &sample)?;
    out.failed += check_pass(&mut out, kind, "traced", &tpass, &refs);
    out.attempted += tpass.obs.len() as u64;
    layer_metrics(&mut out.metrics, kind, &pass, &tpass)?;

    // Replay a fixed set of fields through the core entry points.
    let (model, norm) = checkpoint::restore(&ckpt)?;
    let prepack = tr.span("core.prepack", 0);
    let replayer = InferenceEngine::new(model, norm);
    drop(prepack);
    let replay: Vec<usize> = (0..REPLAY_FIELDS).map(|i| i % n).collect();
    let mut bitwise = true;
    for &j in &replay {
        let s = tr.span("core.infer", 0);
        let x = replayer.norm().normalize(&load.fields[j]);
        let p = composed_predict(replayer.frozen(), &x, tr, s.id()).map_err(|e| e.to_string())?;
        drop(s);
        x.recycle();
        let reference = engine.infer(&load.fields[j]).map_err(|e| e.to_string())?;
        bitwise &= prediction_digest(&p) == prediction_digest(&reference);
        p.recycle();
        reference.recycle();
    }
    out.check(
        format!("traced replay of {} fields through try_plan + per-bin decoder forward reproduces InferenceEngine::infer bitwise", replay.len()),
        bitwise,
    );
    let m = &mut out.metrics;
    core_metrics(m, tr, replay.len(), decoder_flops_per_pixel(&ckpt));
    m.set("core.prepack_ms", tr.total_s("core.prepack") * 1e3, 1);
    Ok(out)
}

/// `serve.*`, `tensor.*`, `net.*` and the tracing overhead, from the
/// untraced `pass` and the traced `tpass`.
fn layer_metrics(m: &mut Metrics, kind: Loop, pass: &Pass, tpass: &Pass) -> Result<(), String> {
    let mean_latency = |p: &Pass| {
        let finite: Vec<f64> = p
            .obs
            .iter()
            .map(latency_s)
            .filter(|x| x.is_finite())
            .collect();
        mean(&finite)
    };
    m.set(
        "trace.overhead_pct",
        (mean_latency(tpass) / mean_latency(pass) - 1.0) * 100.0,
        tpass.obs.len(),
    );
    let requests = tpass.obs.len();
    m.set(
        "tensor.pool_allocs_per_request",
        tpass.allocs as f64 / requests.max(1) as f64,
        requests,
    );
    m.set(
        "serve.batch_size_mean",
        tpass.batch_mean(),
        tpass.stats.batches as usize,
    );
    let depths: Vec<f64> = tpass.obs.iter().map(|o| o.depth as f64).collect();
    m.set("serve.queue_depth_mean", mean(&depths), depths.len());
    m.set(
        "serve.shed_frac",
        tpass.stats.shed_total() as f64 / requests.max(1) as f64,
        requests,
    );
    m.set(
        "serve.cache_hit_rate",
        tpass.hit_rate(),
        (tpass.cache_hits + tpass.cache_misses) as usize,
    );
    let server: Vec<f64> = tpass
        .obs
        .iter()
        .map(|o| o.server.as_secs_f64() * 1e3)
        .collect();
    let sp50 = median(&server);
    m.set("serve.server_p50_ms", sp50.value, sp50.n);
    m.set(
        "serve.gen_lag_ms_max",
        tpass.lag_max.as_secs_f64() * 1e3,
        requests,
    );
    if kind == Loop::NetRepeat {
        net_metrics(m, tpass)?;
    }
    Ok(())
}

/// `net.*` metrics: client-minus-server latency, exact frame bytes, and
/// the codec cost on the workload's own frames.
fn net_metrics(m: &mut Metrics, pass: &Pass) -> Result<(), String> {
    let overhead: Vec<f64> = pass
        .obs
        .iter()
        .map(|o| (o.latency.as_secs_f64() - o.server.as_secs_f64()) * 1e3)
        .collect();
    let op50 = median(&overhead);
    m.set("net.overhead_p50_ms", op50.value, op50.n);
    let frames: Vec<&(Request, Response)> = pass.frames.iter().flatten().collect();
    if frames.is_empty() {
        return Err("net_repeat exchanged no frames".into());
    }
    // A frame is a 4-byte length, the body and a 4-byte CRC.
    let bytes: Vec<f64> = frames
        .iter()
        .map(|(req, resp)| (8 + encode_request(req).len() + 8 + encode_response(resp).len()) as f64)
        .collect();
    m.set("net.bytes_per_request", mean(&bytes), bytes.len());
    let bodies: Vec<(&Request, Vec<u8>)> = frames
        .iter()
        .map(|(q, r)| (q, encode_response(r)))
        .collect();
    const ROUNDS: usize = 50;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for (req, body) in &bodies {
            let encoded = encode_request(std::hint::black_box(req));
            std::hint::black_box(&encoded);
            let decoded = decode_response(std::hint::black_box(body)).map_err(|e| e.to_string())?;
            std::hint::black_box(&decoded);
        }
    }
    let per = t0.elapsed().as_secs_f64() / (ROUNDS * bodies.len()) as f64;
    m.set("net.codec_us", per * 1e6, ROUNDS * bodies.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_serving_runs_pass_their_checks() {
        for kind in [Loop::Open, Loop::Miss, Loop::NetRepeat] {
            let out = run(kind, 7, 1.0, false, &Tracer::disabled()).unwrap();
            assert!(out.correct(), "{} checks: {:?}", kind.name(), out.checks);
            assert_eq!(out.failed, 0, "{}", kind.name());
        }
    }
}
