//! The three workloads. Each sets up (several times, for a steady
//! `setup_s`), runs one timed window against the daemon with raw
//! sockets from a single generator thread, one request in flight at a
//! time, verifies every reply byte for byte, checks its premise from
//! `stats` deltas and, on a traced run, replays its exact request
//! sequence in-process with spans around every layer.

use crate::daemon::{host_steal_ticks, Daemon};
use crate::inputs::{
    self, daemon_config, mix, tokens, DeltaScript, RidBase, SimulateCase, Size, TOKEN_BASE,
    WATCH_SHAPE,
};
use crate::replay::{self, config_key, ResultCache, WatchReplay};
use crate::report::Report;
use crate::stats::{self, counter_delta, gap_ratio, hist_delta, ratio};
use crate::trace::Tracer;
use crate::wire::{is_error_kind, is_ok_reply, Conn};
use isomit_core::{Rid, RidDelta};
use isomit_graph::json::Value;
use isomit_graph::SignedDigraph;
use isomit_service::fingerprint::fingerprint_bytes;
use isomit_service::protocol::{encode_request, ok_line, RequestBody};
use isomit_service::{Client, LruCache};
use isomit_telemetry::{names, RegistrySnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `isomit-serve` binary to start.
    pub serve_bin: PathBuf,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Every per-layer metric with its unit. A traced run reports all of
/// them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("framing.scan_us", "us"),
    ("json.parse_us", "us"),
    ("json.parse_mb_per_s.small", "MB/s"),
    ("json.parse_mb_per_s.large", "MB/s"),
    ("snapshot.build_us", "us"),
    ("fingerprint.us", "us"),
    ("cache.lookup_us", "us"),
    ("extract.forest_us", "us"),
    ("extract.support_us", "us"),
    ("engine.extract_us_mean", "us"),
    ("query.dp_us", "us"),
    ("engine.query_us_mean", "us"),
    ("serialize.us", "us"),
    ("queue.wait_us_mean", "us"),
    ("queue.shed_ratio", "ratio"),
    ("shard.imbalance_pct", "%"),
    ("cache.artifact_hit_ratio", "ratio"),
    ("cache.result_hit_ratio", "ratio"),
    ("watch.apply_us", "us"),
    ("watch.answer_us", "us"),
    ("watch.delta_us_mean", "us"),
    ("watch.dirty_components", "count"),
    ("watch.fallback_ratio", "ratio"),
    ("simulate.mc_us", "us"),
    ("simulate.lane_runs_per_s", "1/s"),
    ("rayon.join_us", "us"),
    ("service.request_us_mean", "us"),
    ("reconcile.gap_ratio", "ratio"),
    ("loadgen.gap_us_mean", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// Span name of each traced layer and the per-layer metric it feeds.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("framing.scan", "framing.scan_us"),
    ("json.parse", "json.parse_us"),
    ("snapshot.build", "snapshot.build_us"),
    ("fingerprint", "fingerprint.us"),
    ("cache.lookup", "cache.lookup_us"),
    ("extract.forest", "extract.forest_us"),
    ("extract.support", "extract.support_us"),
    ("query.dp", "query.dp_us"),
    ("serialize", "serialize.us"),
    ("watch.apply", "watch.apply_us"),
    ("watch.answer", "watch.answer_us"),
    ("simulate.mc", "simulate.mc_us"),
];

fn setup_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `setup` [`SETUP_REPEATS`] times, stopping every daemon but the
/// last, and returns the last state with the median set-up time.
fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<(Daemon, T), String>,
) -> Result<(Daemon, T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((daemon, _)) = last.take() {
            Daemon::stop(daemon)?;
        }
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let (daemon, state) = last.expect("at least one set-up ran");
    let median = stats::percentile(&stats::sorted(times), 0.5).expect("set-up times");
    Ok((daemon, state, median))
}

fn telemetry(daemon: &Daemon) -> Result<RegistrySnapshot, String> {
    Client::connect(daemon.addr())
        .map_err(setup_err)?
        .telemetry()
        .map_err(setup_err)
}

/// The daemon's shard count, from its `stats` reply.
fn shard_count(daemon: &Daemon) -> Result<usize, String> {
    Client::connect(daemon.addr())
        .map_err(setup_err)?
        .request(&RequestBody::Stats)
        .map_err(setup_err)?
        .get("shards")
        .and_then(Value::as_usize)
        .filter(|&n| n > 0)
        .ok_or_else(|| "stats reply has no shard count".into())
}

/// Share of the machine's CPU time the host stole: `ticks` of steal
/// (`/proc/stat` counts 100 per second) over `seconds` of wall time.
fn steal_share(ticks: u64, seconds: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    ratio(ticks as f64 / 100.0, seconds * cpus as f64)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// One timed request: when it was sent (from the window's start), how
/// long its reply took, the daemon CPU time it cost, and whether the
/// reply verified.
#[derive(Debug, Clone, Copy)]
struct Timed {
    at_ns: u64,
    latency_ns: u64,
    cpu_ns: u64,
    ok: bool,
}

/// Times one request: reads the daemon's CPU clock (`cpu_ns`), notes the send
/// time, runs `request` (send and read the reply; the generator keeps
/// one request in flight, so the CPU the daemon used meanwhile is this
/// request's), then reads both clocks again.
fn timed<T>(
    cpu_ns: &impl Fn() -> Result<u64, String>,
    started: Instant,
    request: impl FnOnce() -> T,
) -> Result<(Timed, T), String> {
    let cpu = cpu_ns()?;
    let sent = Instant::now();
    let out = request();
    let latency_ns = sent.elapsed().as_nanos() as u64;
    let time = Timed {
        at_ns: sent.duration_since(started).as_nanos() as u64,
        latency_ns,
        cpu_ns: cpu_ns()?.saturating_sub(cpu),
        ok: true,
    };
    Ok((time, out))
}

/// The latency and CPU metrics shared by all workloads, over verified
/// requests. On the result line: the daemon CPU time of the primary
/// class's median request, `cpu_p50_ms`, and the second class's mean,
/// `second_cpu_ms` (README.md says why the gate is on CPU time, not on
/// the wall clock). Printed: both classes' wall-clock medians, the
/// primary class's mean CPU time, its tail (the nearest-rank `tail_q`
/// percentile, fixed per workload so that a baseline run has at least
/// ten samples beyond it), and p99 wherever a class supports it.
fn latency_metrics(report: &mut Report, primary: Vec<&Timed>, second: Vec<&Timed>, tail_q: f64) {
    let cpu = |class: &[&Timed]| -> Vec<f64> { class.iter().map(|t| t.cpu_ns as f64).collect() };
    let (primary_cpu, second_cpu) = (cpu(&primary), cpu(&second));
    report.metric(
        "cpu_p50_ms",
        ms(stats::percentile(&stats::sorted(primary_cpu.clone()), 0.5).unwrap_or(0.0)),
        "ms",
    );
    report.metric(
        "second_cpu_ms",
        ms(stats::mean(&second_cpu).unwrap_or(0.0)),
        "ms",
    );
    report.extra("cpu_ms", ms(stats::mean(&primary_cpu).unwrap_or(0.0)), "ms");
    let wall =
        |class: &[&Timed]| stats::sorted(class.iter().map(|t| t.latency_ns as f64).collect());
    let (primary, second) = (wall(&primary), wall(&second));
    let median = |class: &[f64]| ms(stats::percentile(class, 0.5).unwrap_or(0.0));
    report.extra("p50_ms", median(&primary), "ms");
    report.extra("second_p50_ms", median(&second), "ms");
    report.extra(
        "tail_ms",
        ms(stats::percentile(&primary, tail_q).unwrap_or(0.0)),
        "ms",
    );
    report.extra("tail_percentile", tail_q * 100.0, "%");
    report.extra("primary_samples", primary.len() as f64, "count");
    report.extra("second_samples", second.len() as f64, "count");
    if !stats::supports(primary.len(), tail_q) {
        report.extra("tail_unsupported_samples", primary.len() as f64, "count");
    }
    if let Some(p99) = stats::supported_percentile(&primary, 0.99) {
        report.extra("p99_ms", ms(p99), "ms");
    }
    if let Some(p99) = stats::supported_percentile(&second, 0.99) {
        report.extra("second_p99_ms", ms(p99), "ms");
    }
}

/// The generator's own time between a reply and its next request
/// (`loadgen.gap_us_mean`): the share of a closed loop's time the
/// daemon sits idle waiting for the benchmark.
fn generator_gap(report: &mut Report, timed: &[&Timed]) {
    let mut requests: Vec<(u64, u64)> = timed.iter().map(|t| (t.at_ns, t.latency_ns)).collect();
    requests.sort_unstable();
    report.metric(
        "loadgen.gap_us_mean",
        stats::mean_gap_ns(&requests) / 1e3,
        "us",
    );
}

/// What the daemon and the host spent in a window, read before it.
struct Spent {
    cpu_ns: u64,
    steal_ticks: u64,
    started: Instant,
}

impl Spent {
    fn start(daemon: &Daemon) -> Result<Spent, String> {
        Ok(Spent {
            cpu_ns: daemon.cpu_ns()?,
            steal_ticks: host_steal_ticks(),
            started: Instant::now(),
        })
    }

    /// Reports the window's throughput and the daemon's CPU time per
    /// request of the primary class (`primary` completed; the mix's
    /// other requests are charged to them), plus the host's steal share.
    fn finish(self, report: &mut Report, daemon: &Daemon, primary: usize) -> Result<(), String> {
        let elapsed = self.started.elapsed().as_secs_f64();
        let cpu_s = daemon.cpu_ns()?.saturating_sub(self.cpu_ns) as f64 / 1e9;
        report.metric("cpu_ms_per_req", ratio(cpu_s * 1e3, primary as f64), "ms");
        report.extra("throughput_rps", primary as f64 / elapsed, "1/s");
        report.extra("daemon_cpu_share", ratio(cpu_s, elapsed), "ratio");
        report.extra(
            "host_steal_share",
            steal_share(host_steal_ticks().saturating_sub(self.steal_ticks), elapsed),
            "ratio",
        );
        Ok(())
    }
}

/// Daemon-side per-layer metrics from `stats` registry deltas.
fn daemon_layers(
    report: &mut Report,
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    answers: u64,
) {
    let us = |name: &str| hist_delta(before, after, name).mean() / 1e3;
    let count = |name: &str| counter_delta(before, after, name) as f64;
    report.metric(
        "engine.extract_us_mean",
        us(names::RID_EXTRACT_STAGE_NS),
        "us",
    );
    report.metric("engine.query_us_mean", us(names::RID_QUERY_STAGE_NS), "us");
    report.metric("queue.wait_us_mean", us(names::SERVICE_QUEUE_WAIT_NS), "us");
    report.metric(
        "service.request_us_mean",
        us(names::SERVICE_REQUEST_NS),
        "us",
    );
    report.metric("watch.delta_us_mean", us(names::WATCH_DELTA_NS), "us");
    let shed = count(names::SERVICE_OVERLOADED);
    let admitted = count(names::SERVICE_RID_REQUESTS) + count(names::SERVICE_SIMULATE_REQUESTS);
    report.metric("queue.shed_ratio", ratio(shed, shed + admitted), "ratio");
    let hits = count(names::SERVICE_CACHE_HITS);
    let misses = count(names::SERVICE_CACHE_MISSES);
    report.metric(
        "cache.artifact_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    let hits = count(names::SERVICE_RESULT_CACHE_HITS);
    let misses = count(names::SERVICE_RESULT_CACHE_MISSES);
    report.metric(
        "cache.result_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    report.metric(
        "watch.dirty_components",
        ratio(count(names::WATCH_DIRTY_COMPONENTS), answers as f64),
        "count",
    );
    report.metric(
        "watch.fallback_ratio",
        ratio(count(names::WATCH_FULL_RECOMPUTE_FALLBACKS), answers as f64),
        "ratio",
    );
    let per_shard: Vec<f64> = (0..)
        .map_while(|i| after.counter(&names::shard_requests(i)).map(|_| i))
        .map(|i| count(&names::shard_requests(i)))
        .collect();
    let total: f64 = per_shard.iter().sum();
    let spread = per_shard.iter().cloned().fold(f64::MIN, f64::max)
        - per_shard.iter().cloned().fold(f64::MAX, f64::min);
    report.metric("shard.imbalance_pct", 100.0 * ratio(spread, total), "%");
}

/// Mean `rayon::join` cost of two empty closures at the process's
/// rayon thread count (the daemon's default as well).
fn rayon_join_us() -> f64 {
    const CALLS: u32 = 2_000;
    let started = Instant::now();
    for _ in 0..CALLS {
        rayon::join(|| std::hint::black_box(()), || std::hint::black_box(()));
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
}

/// Traced-replay summary for one workload.
struct Trace {
    tracer: Tracer,
    traced_s: f64,
}

/// Runs `replay` with span recording on.
fn traced_replay(
    mut replay: impl FnMut(&mut Tracer) -> Result<(), String>,
) -> Result<Trace, String> {
    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    replay(&mut tracer)?;
    Ok(Trace {
        tracer,
        traced_s: started.elapsed().as_secs_f64(),
    })
}

/// Cost of recording one span, measured on empty spans. Timing the
/// replay twice, with and without spans, would bury this sub-microsecond
/// cost in run-to-run noise.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    for _ in 0..SPANS {
        tracer.span("empty", |_| ());
    }
    started.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

/// Fills the span-derived per-layer metrics: each layer's self time per
/// request that ran it (only requests for which `counts(layer,
/// request)` holds), the reconciliation gap of the `primary` class
/// against its untraced end-to-end mean, and the tracing overhead.
fn span_layers(
    report: &mut Report,
    trace: &Trace,
    primary: impl Fn(u64) -> bool,
    counts: impl Fn(&str, u64) -> bool,
    e2e_mean_ns: f64,
) {
    let spans = trace.tracer.spans();
    let own = stats::self_times(spans);
    let mut per_layer: BTreeMap<&str, (u64, BTreeSet<u64>)> = BTreeMap::new();
    let mut per_request: BTreeMap<u64, u64> = BTreeMap::new();
    for (span, own) in spans.iter().zip(&own) {
        if counts(span.name, span.request) {
            let entry = per_layer.entry(span.name).or_default();
            entry.0 += own;
            entry.1.insert(span.request);
        }
        if primary(span.request) {
            *per_request.entry(span.request).or_default() += own;
        }
    }
    for (span_name, metric) in SPAN_METRICS {
        let value = per_layer.get(span_name).map_or(0.0, |(total, requests)| {
            *total as f64 / requests.len() as f64 / 1e3
        });
        let unit = PER_LAYER
            .iter()
            .find(|(name, _)| name == metric)
            .map_or("us", |(_, unit)| unit);
        report.metric(metric, value, unit);
    }
    let layer_sum = stats::mean(&per_request.values().map(|&v| v as f64).collect::<Vec<_>>());
    report.metric(
        "reconcile.gap_ratio",
        gap_ratio(e2e_mean_ns, layer_sum.unwrap_or(0.0)),
        "ratio",
    );
    let overhead_ns = spans.len() as f64 * span_cost_ns();
    report.metric(
        "trace.overhead_ratio",
        ratio(overhead_ns, trace.traced_s * 1e9 - overhead_ns),
        "ratio",
    );
    report.metric("rayon.join_us", rayon_join_us(), "us");
}

/// Parse throughput of the traced `json.parse` spans, split at 1 MB.
fn parse_throughput(report: &mut Report, trace: &Trace, line_bytes: impl Fn(u64) -> usize) {
    let mut small = (0usize, 0u64);
    let mut large = (0usize, 0u64);
    for span in trace
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "json.parse")
    {
        let bytes = line_bytes(span.request);
        let slot = if bytes >= 1 << 20 {
            &mut large
        } else {
            &mut small
        };
        slot.0 += bytes;
        slot.1 += span.duration();
    }
    let mbps = |(bytes, ns): (usize, u64)| ratio(bytes as f64 / 1e6, ns as f64 / 1e9);
    report.metric("json.parse_mb_per_s.small", mbps(small), "MB/s");
    report.metric("json.parse_mb_per_s.large", mbps(large), "MB/s");
}

/// Finishes a run: peak memory, set-up time, and (traced) the zeros for
/// layers this workload never touched.
fn finish(report: &mut Report, opts: &Opts, daemon: Daemon, setup_s: f64) -> Result<(), String> {
    let rss = daemon.peak_rss_mb()?;
    Daemon::stop(daemon)?;
    if opts.trace {
        report
            .metrics
            .retain(|name, _| PER_LAYER.iter().any(|(n, _)| n == name));
        for (name, unit) in PER_LAYER {
            report.metrics.entry(name).or_insert((0.0, unit));
        }
    } else {
        report.metric("setup_s", setup_s, "s");
        report
            .metrics
            .retain(|name, _| E2E.iter().any(|(n, _)| n == name));
        // Printed, not on the result line: the retained heap differs by
        // up to a third between seeds (allocator reuse, the same on every
        // run of one seed), more than any bound the result line allows.
        report.extra("peak_rss_mb", rss, "MB");
    }
    Ok(())
}

/// End-to-end metrics reported by every untraced run.
pub const E2E: &[(&str, &str)] = &[
    ("cpu_p50_ms", "ms"),
    ("second_cpu_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("setup_s", "s"),
];

// ---------------------------------------------------------------- cold_rid

/// Every `COLD_LARGE_EVERY`-th cold request ships a large snapshot; the
/// requests between ship each small base once, in order.
const COLD_LARGE_EVERY: usize = 8;
/// Small and large base snapshots in the cold pool.
const COLD_SMALL: usize = COLD_LARGE_EVERY - 1;
const COLD_LARGE: usize = 6;
/// Pre-encoded cold request tokens (the run fails if it needs more).
const COLD_TOKENS: usize = 200_000;
/// Requests the traced replay re-runs in-process.
const COLD_REPLAY: usize = 120;
/// Tail percentile of `cold_rid`: a cold run completes a few hundred
/// requests, too few for a p99 with ten samples beyond it.
const COLD_TAIL: f64 = 0.95;

struct ColdPool {
    small: Vec<RidBase>,
    large: Vec<RidBase>,
    tokens: Vec<Vec<u8>>,
}

impl ColdPool {
    fn base(&self, k: usize) -> &RidBase {
        if k % COLD_LARGE_EVERY == COLD_LARGE_EVERY - 1 {
            &self.large[(k / COLD_LARGE_EVERY) % self.large.len()]
        } else {
            &self.small[k % COLD_LARGE_EVERY]
        }
    }
}

/// Sends one request and verifies its reply; `Err` only on transport
/// failure.
fn round_trip(
    conn: &mut Conn,
    parts: &[&[u8]],
    id: &[u8],
    expected: &[u8],
) -> Result<bool, String> {
    conn.send(parts).map_err(setup_err)?;
    let line = conn.read_line().map_err(setup_err)?;
    Ok(is_ok_reply(line, id, expected))
}

/// `cold_rid`: closed loop on one connection, every request a
/// full-form `rid` on a snapshot the daemon has never seen.
pub fn cold_rid(opts: &Opts) -> Result<Report, String> {
    let rid = Rid::from_config(daemon_config()).map_err(setup_err)?;
    let (daemon, pool, setup_s) = repeated_setup(|| {
        let daemon = Daemon::start(&opts.serve_bin, mix(opts.seed, 1))?;
        let small = RidBase::pool(mix(opts.seed, 100), Size::Small, COLD_SMALL, &rid);
        let large = RidBase::pool(mix(opts.seed, 200), Size::Large, COLD_LARGE, &rid);
        let pool = ColdPool {
            small,
            large,
            tokens: tokens(0, COLD_TOKENS),
        };
        // Warm-up (untimed, tokens outside the timed range): one request
        // per size, which also checks the daemon's default config.
        let mut conn = Conn::connect(daemon.addr()).map_err(setup_err)?;
        for (i, base) in [&pool.small[0], &pool.large[0]].into_iter().enumerate() {
            let token = &tokens(COLD_TOKENS as u64 + i as u64, 1)[0];
            if !round_trip(&mut conn, &base.parts(token, token), token, &base.result)? {
                return Err("warm-up reply differs from the in-process answer".into());
            }
        }
        Ok((daemon, pool))
    })?;

    let mut report = Report::default();
    let before = telemetry(&daemon)?;
    let mut conn = Conn::connect(daemon.addr()).map_err(setup_err)?;
    let window = Duration::from_secs_f64(opts.seconds);
    let spent = Spent::start(&daemon)?;
    let end = spent.started + window;
    // (request index, timing)
    let mut all: Vec<(usize, Timed)> = Vec::new();
    let cpu_ns = || daemon.cpu_ns();
    for (k, token) in pool.tokens.iter().enumerate() {
        if Instant::now() >= end {
            break;
        }
        let base = pool.base(k);
        let (mut time, ok) = timed(&cpu_ns, spent.started, || {
            round_trip(&mut conn, &base.parts(token, token), token, &base.result)
        })?;
        time.ok = ok == Ok(true);
        all.push((k, time));
        if ok.is_err() {
            break;
        }
    }
    let ok: Vec<&(usize, Timed)> = all.iter().filter(|s| s.1.ok).collect();
    spent.finish(&mut report, &daemon, ok.len())?;
    generator_gap(&mut report, &all.iter().map(|s| &s.1).collect::<Vec<_>>());
    let after = telemetry(&daemon)?;
    if all.len() >= COLD_TOKENS {
        report.violation("pre-encoded cold tokens ran out");
    }

    report.attempted = all.len() as u64;
    report.failed = all.iter().filter(|s| !s.1.ok).count() as u64;
    let large = |k: usize| pool.base(k).size == Size::Large;
    latency_metrics(
        &mut report,
        ok.iter().filter(|s| !large(s.0)).map(|s| &s.1).collect(),
        ok.iter().filter(|s| large(s.0)).map(|s| &s.1).collect(),
        COLD_TAIL,
    );

    // Premise: no cache can help a cold request.
    let artifact_hits = counter_delta(&before, &after, names::SERVICE_CACHE_HITS);
    let result_hits = counter_delta(&before, &after, names::SERVICE_RESULT_CACHE_HITS);
    if artifact_hits + result_hits != 0 {
        report.violation(format!(
            "cold_rid saw {artifact_hits} artifact and {result_hits} result cache hits"
        ));
    }

    if opts.trace {
        daemon_layers(&mut report, &before, &after, 0);
        let mut order: Vec<usize> = all.iter().map(|s| s.0).collect();
        order.sort_unstable();
        order.truncate(COLD_REPLAY);
        let trace = traced_replay(|tracer| {
            for &k in &order {
                tracer.begin_request(k as u64);
                let token = &pool.tokens[k];
                replay::rid_full(tracer, &rid, pool.base(k), token, token, None)?;
            }
            Ok(())
        })?;
        let e2e = stats::mean(&ok.iter().map(|s| s.1.latency_ns as f64).collect::<Vec<_>>())
            .unwrap_or(0.0);
        span_layers(&mut report, &trace, |_| true, |_, _| true, e2e);
        parse_throughput(&mut report, &trace, |k| {
            pool.base(k as usize).line_len(&pool.tokens[k as usize])
        });
    }
    finish(&mut report, opts, daemon, setup_s)?;
    Ok(report)
}

// -------------------------------------------------------------- repeat_rid

/// Every `REPEAT_RESEND_EVERY`-th request resends a full snapshot.
const REPEAT_RESEND_EVERY: usize = 16;
/// Requests scheduled per timed second: sixteen times the ~2,500
/// requests/s the closed loop completed when this benchmark was defined
/// (the run fails if the daemon gets through all of them).
const REPEAT_PER_S: f64 = 40_000.0;
/// Base snapshots and relabelled copies of each: the resident working
/// set is their product (24 snapshots, 6 per shard at the default 4).
const REPEAT_BASES: usize = 4;
const REPEAT_COPIES: usize = 6;
/// Artifact-cache entries per shard at the daemon's defaults.
const ARTIFACT_CACHE_PER_SHARD: usize = 32;
/// Requests the traced replay re-runs in-process.
const REPEAT_REPLAY: usize = 4_000;

struct Resident {
    base: usize,
    relabel: Vec<u8>,
    hot_body: Vec<u8>,
    fingerprint: u64,
}

struct RepeatSet {
    bases: Vec<RidBase>,
    resident: Vec<Resident>,
    /// Resident snapshot of each request.
    schedule: Vec<u32>,
    /// The daemon's shard count.
    shards: usize,
}

impl RepeatSet {
    /// Request `i`: its resident snapshot and whether it is a full-form
    /// resend.
    fn request(&self, i: usize) -> (&Resident, bool) {
        let resident = &self.resident[self.schedule[i] as usize];
        (resident, i % REPEAT_RESEND_EVERY == REPEAT_RESEND_EVERY - 1)
    }
}

/// Request id `i` of the repeat loop (ten digits, as every token).
fn repeat_id(i: usize, out: &mut Vec<u8>) {
    use std::io::Write;
    out.clear();
    write!(out, "{}", TOKEN_BASE + i as u64).expect("writes to a Vec");
}

/// `repeat_rid`: closed loop on one connection, 15 by-fingerprint
/// requests to 1 full-form resend over a resident working set.
pub fn repeat_rid(opts: &Opts) -> Result<Report, String> {
    let rid = Rid::from_config(daemon_config()).map_err(setup_err)?;
    let cap = (opts.seconds * REPEAT_PER_S).ceil() as usize;
    let (daemon, set, setup_s) = repeated_setup(|| {
        let daemon = Daemon::start(&opts.serve_bin, mix(opts.seed, 1))?;
        let bases = RidBase::pool(mix(opts.seed, 300), Size::Resident, REPEAT_BASES, &rid);
        // The working set is spread evenly over the daemon's shards, so
        // every seed loads every shard's worker and caches alike.
        let shards = shard_count(&daemon)?;
        let wanted = REPEAT_BASES * REPEAT_COPIES;
        let per_shard = wanted.div_ceil(shards);
        if per_shard > ARTIFACT_CACHE_PER_SHARD {
            return Err(format!(
                "{per_shard} resident snapshots per shard overflow its artifact cache"
            ));
        }
        let mut placed = vec![0usize; shards];
        let mut resident: Vec<Resident> = Vec::with_capacity(wanted);
        for (i, relabel) in tokens(3_000_000_000, 100 * wanted).into_iter().enumerate() {
            if resident.len() == wanted {
                break;
            }
            let base = i % REPEAT_BASES;
            let fingerprint = bases[base].fingerprint(&relabel);
            let shard = isomit_service::server::shard_for_fingerprint(fingerprint, shards);
            if placed[shard] == per_shard {
                continue;
            }
            placed[shard] += 1;
            resident.push(Resident {
                base,
                hot_body: inputs::body_after_id(&RequestBody::RidByFingerprint {
                    fingerprint,
                    config: None,
                    detector: None,
                }),
                relabel,
                fingerprint,
            });
        }
        // Prime: one full-form request per resident snapshot.
        let mut conn = Conn::connect(daemon.addr()).map_err(setup_err)?;
        let prime = tokens(2_000_000_000, resident.len());
        for (r, id) in resident.iter().zip(&prime) {
            let base = &bases[r.base];
            if !round_trip(&mut conn, &base.parts(id, &r.relabel), id, &base.result)? {
                return Err("priming reply differs from the in-process answer".into());
            }
        }
        let mut rng = StdRng::seed_from_u64(mix(opts.seed, 400));
        let schedule = (0..cap)
            .map(|_| rng.gen_range(0..resident.len() as u32))
            .collect();
        Ok((
            daemon,
            RepeatSet {
                bases,
                resident,
                schedule,
                shards,
            },
        ))
    })?;

    let mut report = Report::default();
    let before = telemetry(&daemon)?;
    let mut conn = Conn::connect(daemon.addr()).map_err(setup_err)?;
    let window = Duration::from_secs_f64(opts.seconds);
    let spent = Spent::start(&daemon)?;
    let end = spent.started + window;
    let mut all: Vec<Timed> = Vec::new();
    let mut unknown = 0usize;
    let mut id = Vec::with_capacity(16);
    let cpu_ns = || daemon.cpu_ns();
    for i in 0..cap {
        if Instant::now() >= end {
            break;
        }
        repeat_id(i, &mut id);
        let (r, resend) = set.request(i);
        let base = &set.bases[r.base];
        // (verified, unknown_snapshot, transport error)
        let (mut time, (ok, missing, broken)) = timed(&cpu_ns, spent.started, || {
            let reply = if resend {
                conn.send(&base.parts(&id, &r.relabel))
            } else {
                conn.send(&[b"{\"id\":", &id, &r.hot_body])
            }
            .and_then(|()| conn.read_line());
            match reply {
                Ok(line) => (
                    is_ok_reply(line, &id, &base.result),
                    is_error_kind(line, "unknown_snapshot"),
                    false,
                ),
                Err(_) => (false, false, true),
            }
        })?;
        time.ok = ok;
        unknown += usize::from(missing);
        all.push(time);
        if broken {
            break;
        }
    }
    let verified = all.iter().filter(|t| t.ok).count();
    spent.finish(&mut report, &daemon, verified)?;
    generator_gap(&mut report, &all.iter().collect::<Vec<_>>());
    let after = telemetry(&daemon)?;
    if all.len() >= cap {
        report.violation("the repeat schedule ran out");
    }
    report.attempted = all.len() as u64;
    report.failed = (all.len() - verified) as u64;
    let full = |i: usize| set.request(i).1;
    let ok: Vec<(usize, &Timed)> = all.iter().enumerate().filter(|(_, t)| t.ok).collect();
    latency_metrics(
        &mut report,
        ok.iter().filter(|(i, _)| !full(*i)).map(|s| s.1).collect(),
        ok.iter().filter(|(i, _)| full(*i)).map(|s| s.1).collect(),
        0.99,
    );

    // Premise: every resend finds its artifacts, every hot request its
    // resident answer.
    let hits = counter_delta(&before, &after, names::SERVICE_CACHE_HITS);
    let misses = counter_delta(&before, &after, names::SERVICE_CACHE_MISSES);
    if unknown != 0 || misses != 0 || hits == 0 {
        report.violation(format!(
            "repeat_rid premise broken: {unknown} unknown_snapshot replies, \
             {hits} artifact hits, {misses} misses"
        ));
    }

    if opts.trace {
        daemon_layers(&mut report, &before, &after, 0);
        let replayed = all.len().min(REPEAT_REPLAY);
        let trace = traced_replay(|tracer| {
            // Resident state, rebuilt untraced like the daemon's priming:
            // one result cache per shard, keyed as the daemon keys it.
            let results: Vec<ResultCache> = (0..set.shards)
                .map(|_| Mutex::new(LruCache::new(set.resident.len())))
                .collect();
            let mut artifacts = LruCache::new(set.resident.len());
            for r in &set.resident {
                let base = &set.bases[r.base];
                let text = std::str::from_utf8(&base.result).map_err(setup_err)?;
                let shard =
                    isomit_service::server::shard_for_fingerprint(r.fingerprint, set.shards);
                results[shard]
                    .lock()
                    .map_err(setup_err)?
                    .insert((r.fingerprint, config_key(None, None)), Arc::from(text));
                let snapshot = inputs::decode_snapshot(&base.line(b"0", &r.relabel));
                artifacts.insert(
                    isomit_service::fingerprint::snapshot_fingerprint(&snapshot),
                    Arc::new(rid.extract_stage(&snapshot)),
                );
            }
            let mut id = Vec::new();
            for i in 0..replayed {
                tracer.begin_request(i as u64);
                repeat_id(i, &mut id);
                let (r, resend) = set.request(i);
                let base = &set.bases[r.base];
                if resend {
                    replay::rid_full(tracer, &rid, base, &id, &r.relabel, Some(&mut artifacts))?;
                } else {
                    let mut line = [b"{\"id\":".as_slice(), &id, &r.hot_body].concat();
                    line.pop();
                    let line = String::from_utf8(line).map_err(setup_err)?;
                    replay::rid_hot(tracer, &line, &results, &id, &base.result)?;
                }
            }
            Ok(())
        })?;
        let hot_mean = stats::mean(
            &ok.iter()
                .filter(|(i, _)| !full(*i))
                .map(|(_, t)| t.latency_ns as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0);
        let hot = |i: u64| !full(i as usize);
        // Framing and cache lookups are charged to hot requests, every
        // other layer to resends: only resends parse, fingerprint and
        // query, and their serialization is the one that moves
        // full-form latency.
        span_layers(
            &mut report,
            &trace,
            hot,
            |layer, i| matches!(layer, "framing.scan" | "cache.lookup") == hot(i),
            hot_mean,
        );
        parse_throughput(&mut report, &trace, |i| {
            let (r, _) = set.request(i as usize);
            set.bases[r.base].line_len(&r.relabel)
        });
    }
    finish(&mut report, opts, daemon, setup_s)?;
    Ok(report)
}

// ------------------------------------------------------------ watch_stream

/// Tail percentile of `watch_stream`: one delta in 256 carries a full
/// answer, so p99.9 sits inside the answers (p99 would straddle the
/// boundary between acks and answers).
const WATCH_TAIL: f64 = 0.999;
/// Distinct simulate requests cycled by the simulate connection.
const SIMULATE_CASES: usize = 12;
/// One simulate request follows every `SIMULATE_EVERY`-th streamed
/// delta.
const SIMULATE_EVERY: usize = 256;
/// Streamed deltas pre-encoded per timed second: ten times the ~3,000
/// deltas/s the daemon sustained when this benchmark was defined, so a
/// tenfold faster write path still fits (the run fails if the daemon
/// gets through all of them).
const WATCH_DELTAS_PER_S: f64 = 30_000.0;
/// Seeding deltas sent back to back before their replies are read.
const SEED_BATCH: usize = 512;
/// Lifetime of a watch session at the daemon's default request timeout.
const SESSION_LIFETIME: Duration = Duration::from_secs(30);
/// Simulate requests the traced replay re-runs in-process.
const SIMULATE_REPLAY: usize = 40;

struct WatchSet {
    graph: SignedDigraph,
    cases: Vec<SimulateCase>,
    seeding: Vec<RidDelta>,
    stream: Vec<RidDelta>,
    bodies: Vec<Vec<u8>>,
    tokens: Vec<Vec<u8>>,
    sim_tokens: Vec<Vec<u8>>,
    conn: Conn,
    opened: Instant,
    /// (length, FNV-1a) of every seeding reply.
    seed_replies: Vec<(usize, u64)>,
}

/// What the delta connection saw in the window.
#[derive(Debug, Default)]
struct DeltaRun {
    /// Per answered delta: (timing, reply length, reply FNV-1a). The
    /// replies are verified after the window.
    replies: Vec<(Timed, usize, u64)>,
    /// Deltas sent (or being sent) when the connection broke: 1 after a
    /// send or read error, else 0. They count as attempted and failed.
    lost: u64,
}

impl DeltaRun {
    /// Counts a lost delta as attempted and failed, and marks the run
    /// invalid: a session connection that breaks mid-window must not
    /// pass as a slower run.
    fn record_loss(&self, report: &mut Report) {
        report.attempted += self.lost;
        report.failed += self.lost;
        if self.lost != 0 {
            report.violation("the watch connection broke during the window");
        }
    }
}

/// Streams `lines` one at a time until `end`, keeping each reply's
/// timing (from `started`), length and hash, and calls `between` with
/// the number of replies so far after each one; stops when `between`
/// returns false, or at the first transport error, counting the delta
/// it was on as lost.
fn stream_deltas<'a>(
    conn: &mut Conn,
    lines: impl Iterator<Item = [&'a [u8]; 3]>,
    cpu_ns: &impl Fn() -> Result<u64, String>,
    started: Instant,
    end: Instant,
    mut between: impl FnMut(usize) -> bool,
) -> Result<DeltaRun, String> {
    let mut run = DeltaRun::default();
    for parts in lines {
        if Instant::now() >= end {
            break;
        }
        let (time, reply) = timed(cpu_ns, started, || {
            conn.send(&parts)?;
            conn.read_line()
                .map(|line| (line.len(), fingerprint_bytes(line)))
        })?;
        let Ok((len, hash)) = reply else {
            run.lost = 1;
            break;
        };
        run.replies.push((time, len, hash));
        if !between(run.replies.len()) {
            break;
        }
    }
    Ok(run)
}

/// `watch_stream`: one connection streams watch deltas into a seeded
/// session; after every [`SIMULATE_EVERY`]-th delta the other sends one
/// simulate request.
pub fn watch_stream(opts: &Opts) -> Result<Report, String> {
    let shape = WATCH_SHAPE;
    let cap = (opts.seconds * WATCH_DELTAS_PER_S).ceil() as usize;
    let (daemon, mut set, setup_s) = repeated_setup(|| {
        let network_seed = mix(opts.seed, 1);
        let daemon = Daemon::start(&opts.serve_bin, network_seed)?;
        // The daemon's first connection (number 0) carries the session;
        // sessions are pinned to the shard its number hashes to.
        let mut conn = Conn::connect(daemon.addr()).map_err(setup_err)?;
        let shards = shard_count(&daemon)?;
        let session_shard = isomit_service::server::shard_for_fingerprint(0, shards);
        // A fixed share of the simulate requests (one in `shards`) lands
        // on the session's shard worker, whatever the seed.
        let on_session = SIMULATE_CASES / shards;
        let quota = (0..shards)
            .map(|s| {
                if s == session_shard {
                    on_session
                } else {
                    (SIMULATE_CASES - on_session) / (shards - 1).max(1)
                }
            })
            .collect();
        let graph = inputs::served_network(network_seed);
        let cases = inputs::simulate_cases(opts.seed, &graph, shards, quota);
        let mut script = DeltaScript::new(opts.seed, shape);
        let seeding = script.seeding();
        let stream: Vec<RidDelta> = (0..cap).map(|_| script.next_delta()).collect();
        let bodies: Vec<Vec<u8>> = seeding
            .iter()
            .chain(&stream)
            .map(inputs::delta_body)
            .collect();
        let tokens = tokens(0, bodies.len());

        let open = RequestBody::WatchOpen {
            config: None,
            answer_every: Some(shape.answer_every),
        };
        let opened = Instant::now();
        let mut line = encode_request(1, &open).into_bytes();
        line.push(b'\n');
        conn.send(&[&line]).map_err(setup_err)?;
        let expected = ok_line(
            1,
            Value::Object(vec![
                ("opened".into(), Value::Bool(true)),
                (
                    "answer_every".into(),
                    Value::Number(shape.answer_every as f64),
                ),
            ]),
        );
        if conn.read_line().map_err(setup_err)? != expected.as_bytes() {
            return Err("watch_open reply differs from the expected bytes".into());
        }
        let mut seed_replies = Vec::with_capacity(seeding.len());
        for chunk in (0..seeding.len()).collect::<Vec<_>>().chunks(SEED_BATCH) {
            for &k in chunk {
                conn.send(&[b"{\"id\":", &tokens[k], &bodies[k]])
                    .map_err(setup_err)?;
            }
            for _ in chunk {
                let reply = conn.read_line().map_err(setup_err)?;
                seed_replies.push((reply.len(), fingerprint_bytes(reply)));
            }
        }
        Ok((
            daemon,
            WatchSet {
                graph,
                cases,
                seeding,
                stream,
                bodies,
                tokens,
                sim_tokens: inputs::tokens(8_500_000_000, 100_000),
                conn,
                opened,
                seed_replies,
            },
        ))
    })?;

    let mut report = Report::default();
    let window = Duration::from_secs_f64(opts.seconds);
    if set.opened.elapsed() + window + Duration::from_secs(2) >= SESSION_LIFETIME {
        report.violation("set-up left too little of the session lifetime for the window");
    }
    let before = telemetry(&daemon)?;
    let mut sim_conn = Conn::connect(daemon.addr()).map_err(setup_err)?;
    let seeded = set.seeding.len();
    let spent = Spent::start(&daemon)?;
    let started = spent.started;
    let cpu_ns = || daemon.cpu_ns();
    let mut sims: Vec<Timed> = Vec::new();
    let deltas = {
        let (bodies, tokens) = (&set.bodies, &set.tokens);
        let lines =
            (seeded..bodies.len()).map(|k| [b"{\"id\":".as_slice(), &tokens[k], &bodies[k]]);
        let (cases, sim_tokens) = (&set.cases, &set.sim_tokens);
        let mut sim_error = None;
        let run = stream_deltas(
            &mut set.conn,
            lines,
            &cpu_ns,
            started,
            started + window,
            |n| {
                if n % SIMULATE_EVERY != 0 {
                    return true;
                }
                let Some(token) = sim_tokens.get(sims.len()) else {
                    return true;
                };
                let case = &cases[sims.len() % cases.len()];
                let sim = timed(&cpu_ns, started, || {
                    round_trip(
                        &mut sim_conn,
                        &[b"{\"id\":", token, &case.body],
                        token,
                        &case.result,
                    )
                });
                match sim {
                    Ok((mut time, ok)) => {
                        time.ok = ok == Ok(true);
                        sims.push(time);
                        ok.is_ok()
                    }
                    Err(e) => {
                        sim_error = Some(e);
                        false
                    }
                }
            },
        )?;
        if let Some(e) = sim_error {
            return Err(e);
        }
        run
    };
    spent.finish(&mut report, &daemon, deltas.replies.len())?;
    generator_gap(
        &mut report,
        &deltas
            .replies
            .iter()
            .map(|d| &d.0)
            .chain(&sims)
            .collect::<Vec<_>>(),
    );
    let after = telemetry(&daemon)?;
    if set.opened.elapsed() >= SESSION_LIFETIME {
        report.violation("the watch session outlived its lifetime during the run");
    }
    deltas.record_loss(&mut report);
    if seeded + deltas.replies.len() >= set.bodies.len() {
        report.violation("pre-encoded delta script ran out");
    }
    let deltas = deltas.replies;

    // Verify every seeding and streamed reply against an in-process
    // replay of the same script (after the window, never inside it).
    let streamed = deltas.len();
    // With tracing on, the streamed deltas also go through the wire
    // layers (framing, parsing) under spans.
    // Returns the differing (seeding, streamed) reply counts.
    let verify = |tracer: &mut Tracer| -> Result<(u64, u64), String> {
        let wire = opts.trace;
        let mut session = WatchReplay::new(shape.answer_every)?;
        let mut off = (0u64, 0u64);
        let mut untraced = Tracer::new(false);
        for (k, delta) in set
            .seeding
            .iter()
            .chain(&set.stream)
            .take(seeded + streamed)
            .enumerate()
        {
            let streamed_step = k >= seeded;
            let id = TOKEN_BASE + k as u64;
            let line = (wire && streamed_step).then(|| {
                let mut line = [b"{\"id\":".as_slice(), &set.tokens[k], &set.bodies[k]].concat();
                line.pop();
                String::from_utf8(line).expect("encoded deltas are UTF-8")
            });
            let t = if streamed_step {
                &mut *tracer
            } else {
                &mut untraced
            };
            t.begin_request(k as u64);
            let reply = session.step(t, id, delta, line.as_deref())?;
            let got = if streamed_step {
                let d = &deltas[k - seeded];
                (d.1, d.2)
            } else {
                set.seed_replies[k]
            };
            if got != (reply.len(), fingerprint_bytes(reply.as_bytes())) {
                if streamed_step {
                    off.1 += 1;
                } else {
                    off.0 += 1;
                }
            }
        }
        Ok(off)
    };
    let mut tracer = Tracer::new(opts.trace);
    let replay_started = Instant::now();
    let (seed_off, off) = verify(&mut tracer)?;
    let trace = Trace {
        tracer,
        traced_s: replay_started.elapsed().as_secs_f64(),
    };
    let answers_in_window = (seeded + 1..=seeded + streamed)
        .filter(|d| (*d as u64).is_multiple_of(shape.answer_every))
        .count() as u64;
    report.attempted += (streamed + sims.len()) as u64;
    report.failed += off + sims.iter().filter(|s| !s.ok).count() as u64;
    if seed_off != 0 {
        report.violation(format!("{seed_off} seeding replies differ from the replay"));
    }

    let answered = |k: usize| ((seeded + k + 1) as u64).is_multiple_of(shape.answer_every);
    latency_metrics(
        &mut report,
        deltas.iter().map(|d| &d.0).collect(),
        sims.iter().filter(|s| s.ok).collect(),
        WATCH_TAIL,
    );
    let answer_ns = stats::sorted(
        deltas
            .iter()
            .enumerate()
            .filter(|(k, _)| answered(*k))
            .map(|(_, d)| d.0.latency_ns as f64)
            .collect(),
    );
    report.extra(
        "answer_p50_ms",
        ms(stats::percentile(&answer_ns, 0.5).unwrap_or(0.0)),
        "ms",
    );
    report.extra("simulate_requests", sims.len() as f64, "count");

    if opts.trace {
        daemon_layers(&mut report, &before, &after, answers_in_window);
        let e2e = stats::mean(
            &deltas
                .iter()
                .map(|d| d.0.latency_ns as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0);
        let first_streamed = seeded as u64;
        span_layers(
            &mut report,
            &trace,
            |k| k >= first_streamed,
            |_, _| true,
            e2e,
        );
        parse_throughput(&mut report, &trace, |k| {
            set.tokens[k as usize].len() + set.bodies[k as usize].len() + 5
        });
        // Simulate replay, traced separately (its spans are not deltas).
        let mut sim_tracer = Tracer::new(true);
        for (n, token) in set
            .sim_tokens
            .iter()
            .take(sims.len().min(SIMULATE_REPLAY))
            .enumerate()
        {
            let case = &set.cases[n % set.cases.len()];
            let mut line = [b"{\"id\":".as_slice(), token, &case.body].concat();
            line.pop();
            let line = String::from_utf8(line).map_err(setup_err)?;
            sim_tracer.begin_request(n as u64);
            replay::simulate(&mut sim_tracer, &set.graph, &line, token, &case.result)?;
        }
        let mc = sim_tracer
            .self_time_by_layer()
            .get("simulate.mc")
            .copied()
            .unwrap_or((0, 0));
        let mc_us = ratio(mc.0 as f64, mc.1 as f64) / 1e3;
        report.metric("simulate.mc_us", mc_us, "us");
        report.metric(
            "simulate.lane_runs_per_s",
            ratio(inputs::SIMULATE_RUNS as f64, mc_us / 1e6),
            "1/s",
        );
    }
    finish(&mut report, opts, daemon, setup_s)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    #[test]
    fn a_broken_watch_connection_fails_the_run() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        // Answers the first delta, then closes on the second.
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("first delta");
            (&stream)
                .write_all(b"{\"id\":1,\"ok\":true,\"result\":{}}\n")
                .expect("reply");
            line.clear();
            reader.read_line(&mut line).expect("second delta");
        });
        let mut conn = Conn::connect(addr).expect("connect");
        let lines = (1..=3u8).map(|_| [b"{\"id\":".as_slice(), b"1", b"}\n"]);
        let now = Instant::now();
        let clock = || Ok(0);
        let run = stream_deltas(
            &mut conn,
            lines,
            &clock,
            now,
            now + Duration::from_secs(10),
            |_| true,
        )
        .expect("the CPU clock reads");
        peer.join().expect("peer thread");
        assert_eq!(run.replies.len(), 1);
        assert_eq!(run.lost, 1);

        let mut report = Report {
            attempted: run.replies.len() as u64,
            ..Report::default()
        };
        assert!(report.correct());
        run.record_loss(&mut report);
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert!(!report.correct());
    }
}
