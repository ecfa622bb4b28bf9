//! The serving stage: an in-process `Server` driven by the open-loop
//! generator at fixed rates, every reply checked against the engine-direct
//! answer, and (traced) the same request sequence replayed through each
//! serving layer in-process.

use crate::loadgen::{fnv1a, poisson_schedule, run_window, Kind, Mix, Req, Window, BLOCK, KINDS};
use crate::reference;
use crate::report::Report;
use crate::stats::{percentile, summarize, SplitMix};
use dtucker::query::{Range, SharedQueryEngine};
use dtucker::serve::http::{parse_request, write_response, ConnReader};
use dtucker::serve::json::{render_aggregate, render_result, write_result};
use dtucker::serve::{handle, App, JsonWriter, Limits, ServeConfig, ServedArtifact, Server};
use dtucker::TuckerDecomp;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The fixed open-loop rates (requests/s) for one artifact: `low`, `mid`
/// and `high`, then the rungs above `high` tried for `serve.max_rps`, and
/// the p99 limit a rung must keep.
pub struct Rates {
    /// Rates reported as `low`, `mid` and `high`.
    pub named: [f64; 3],
    /// Ascending rungs above `high`.
    pub ladder: [f64; 4],
    /// Tail-latency limit on p99, in milliseconds.
    pub p99_limit_ms: f64,
    /// A rate well past capacity, offered last to measure the throughput
    /// the server sustains when saturated.
    pub overload: f64,
}

/// Rates for the video artifact, from the seed commit's capacity on a
/// 2-core host: p99 stays under 2 ms up to about 12k requests/s, so `high`
/// is half of that and the ladder ends past it.
pub const VIDEO_RATES: Rates = Rates {
    named: [2000.0, 4000.0, 6000.0],
    ladder: [8000.0, 10000.0, 12500.0, 15000.0],
    p99_limit_ms: 2.0,
    overload: 30000.0,
};

/// Rates for the order-4 climate artifact, whose aggregates cost about
/// ten times the video's: its p99 already sits near 2 ms at light load, so
/// the limit is 5 ms, which holds up to about 5k requests/s.
pub const CLIMATE_RATES: Rates = Rates {
    named: [1250.0, 2000.0, 2750.0],
    ladder: [4000.0, 5000.0, 6000.0, 7000.0],
    p99_limit_ms: 5.0,
    overload: 12000.0,
};

const LABELS: [&str; 3] = ["low", "mid", "high"];
/// Share of the serving budget spent in the overload window.
const OVERLOAD_SHARE: f64 = 0.25;
/// Fewest latency blocks behind a rung's p99.
const MIN_BLOCKS: usize = 4;
/// Server worker threads.
pub const THREADS: usize = 2;
/// Most requests the traced replay runs, taken from the start of the
/// served sequence, so the traced run's length does not grow with the
/// serving time.
const REPLAY_MAX: usize = 100_000;

/// The server configuration every workload serves with: default limits
/// and cache, `THREADS` workers, an ephemeral local port.
pub fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: THREADS,
        ..ServeConfig::default()
    }
}

/// Binds the server over one artifact.
pub fn bind(name: &str, decomp: TuckerDecomp) -> std::io::Result<Server> {
    Server::bind(config(), vec![(name.to_string(), decomp)]).map_err(std::io::Error::other)
}

/// A rung passes when p99 meets the limit and the backlog at its end is
/// no more than the arrivals of one limit's worth of time (plus slack).
fn passes(w: &Window, p99_ms: f64, limit_ms: f64) -> bool {
    p99_ms <= limit_ms && (w.backlog() as f64) <= 4.0 + w.rate * limit_ms / 1e3
}

/// Runs the serving stage for about `budget` of wall time: the three named
/// rates, one overload window, then ladder rungs while the server keeps
/// up. Adds `serve_capacity_ref_ratio`, `serve_capacity_rps`,
/// `host.loopback_s`, `serve.max_rps`, the latency
/// percentiles per named rate and, traced, the `query.*`, `serve.*` and
/// `loadgen.*` layers to `rep`.
pub fn serve_stage(
    server: Server,
    name: &str,
    seed: u64,
    budget: Duration,
    rates: &Rates,
    trace: bool,
    rep: &mut Report,
) -> std::io::Result<()> {
    let addr = server.local_addr().map_err(std::io::Error::other)?;
    let app = server.app();
    let decomp = app
        .artifact(name)
        .ok_or_else(|| std::io::Error::other(format!("artifact '{name}' is not served")))?
        .engine
        .decomp()
        .clone();
    let shape = decomp.full_shape();
    let per_conn = config().max_requests_per_conn;
    let runner = std::thread::spawn(move || server.run());

    let overload_secs = budget.as_secs_f64() * OVERLOAD_SHARE;
    let window =
        (budget.as_secs_f64() - overload_secs) / (rates.named.len() + rates.ladder.len()) as f64;
    // Each rung runs for its share of the budget, but never for fewer than
    // MIN_BLOCKS latency blocks.
    let secs_at = |rate: f64| window.max((MIN_BLOCKS * BLOCK) as f64 / rate);
    let mut mix = Mix::new(name, &shape, seed);
    let mut sched_rng = SplitMix::new(seed ^ 0x0A11_11FE);
    let mut reqs: Vec<Req> = Vec::new();
    let mut run = |rate: f64, secs: f64, reqs: &mut Vec<Req>| -> std::io::Result<Window> {
        let count = (rate * secs).ceil() as usize;
        let due = poisson_schedule(&mut sched_rng, rate, count);
        let first = reqs.len();
        reqs.extend((0..count).map(|_| mix.draw()));
        run_window(
            addr,
            reqs,
            rate,
            due,
            (first..first + count).collect(),
            per_conn,
        )
    };

    // Warm-up: let caches fill and connections settle before timing.
    let mut windows = vec![run(rates.named[0], 0.25, &mut reqs)?];
    let mut late = Vec::new();
    let mut backlog = 0usize;
    let limit = rates.p99_limit_ms;
    // (offered, achieved, p99, passed) per rung, in ladder order.
    let mut rungs: Vec<(f64, f64, f64, bool)> = Vec::new();
    for (i, rate) in rates.named.into_iter().chain(rates.ladder).enumerate() {
        if i == LABELS.len() {
            // Saturation: replies per second while more is offered than the
            // server can take. Unlike the p99-limited rate, this does not
            // hinge on the few-millisecond host stalls that set the tail on
            // a shared machine. It runs before the ladder so that the cache
            // state it starts from does not depend on how far the ladder
            // climbs. The loopback reference around it tracks how fast the
            // host moves small messages between threads at the moment; the
            // capacity per reference round trip cancels that.
            let before = reference::loopback_time()?;
            let w = run(rates.overload, overload_secs, &mut reqs)?;
            let loopback = 0.5 * (before + reference::loopback_time()?);
            let capacity = w.achieved_rps();
            eprintln!("perfbench: saturated at {capacity:.0} replies/s, loopback {loopback:.3}s");
            rep.put("serve_capacity_rps", capacity, "1/s");
            rep.put("host.loopback_s", loopback, "s");
            rep.put(
                "serve_capacity_ref_ratio",
                capacity * loopback / reference::ROUND_TRIPS as f64,
                "ratio",
            );
            windows.push(w);
        }
        // Above the named rates, climb until the server falls behind or
        // two ladder rungs in a row miss the limit: one miss may be a host
        // stall.
        if i >= LABELS.len() {
            let overloaded = rungs.last().is_some_and(|r| r.1 < 0.9 * r.0);
            let misses = rungs[LABELS.len()..].iter().rev().take(2).filter(|r| !r.3);
            if overloaded || misses.count() == 2 {
                break;
            }
        }
        let w = run(rate, secs_at(rate), &mut reqs)?;
        let p99 = w.block_p99_ms();
        if let Some(label) = LABELS.get(i) {
            let p50 = summarize(&w.latencies_ms()).map_or(f64::NAN, |s| s.p50);
            rep.put(&format!("serve.p50_ms.{label}"), p50, "ms");
            rep.put(&format!("serve.p99_ms.{label}"), p99, "ms");
            late.extend(w.late_ms());
            backlog = backlog.max(w.backlog());
        }
        rungs.push((rate, w.achieved_rps(), p99, passes(&w, p99, limit)));
        windows.push(w);
    }
    // The highest passing rung, refined toward the rung above it by linear
    // interpolation of p99 to the limit, so the figure moves smoothly
    // instead of jumping a whole rung. When no rung meets the limit, the
    // lowest rate is scaled down by limit / p99.
    let max_rps = match rungs.iter().rposition(|r| r.3) {
        Some(k) => {
            let (_, r0, p0, _) = rungs[k];
            match rungs.get(k + 1) {
                Some(&(r1, _, p1, _)) if p1.is_finite() && p1 > p0 && r1 > r0 => {
                    r0 + (r1 - r0) * ((limit - p0) / (p1 - p0)).clamp(0.0, 1.0)
                }
                _ => r0,
            }
        }
        None => rungs
            .first()
            .map_or(f64::NAN, |&(r, _, p, _)| r * (limit / p).min(1.0)),
    };
    rep.put("serve.max_rps", max_rps, "1/s");

    let shed = scrape_shed(addr).unwrap_or(-1.0);
    app.begin_drain();
    runner
        .join()
        .map_err(|_| std::io::Error::other("server thread panicked"))?
        .map_err(std::io::Error::other)?;

    let checking = Instant::now();
    check_replies(&decomp, name, &reqs, &windows, rep).map_err(std::io::Error::other)?;
    eprintln!(
        "perfbench: served {} requests, checked in {:.1}s",
        reqs.len(),
        checking.elapsed().as_secs_f64()
    );
    if trace {
        replay_layers(&decomp, name, &reqs, &windows, rep).map_err(std::io::Error::other)?;
        rep.put(
            "loadgen.late_p99_ms",
            percentile(&late, 99.0).unwrap_or(0.0),
            "ms",
        );
        rep.put("loadgen.backlog", backlog as f64, "count");
        rep.put("serve.shed", shed, "count");
    }
    Ok(())
}

/// Reads `dtucker_shed_total` from `GET /metrics`.
fn scrape_shed(addr: SocketAddr) -> Option<f64> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .ok()?;
    let mut text = String::new();
    s.read_to_string(&mut text).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("dtucker_shed_total "))
        .and_then(|v| v.trim().parse().ok())
}

/// The engine-direct answer to `req`, rendered as the server renders it,
/// and the time spent in the engine call itself.
fn expected_body(engine: &SharedQueryEngine, req: &Req) -> Result<(String, Duration), String> {
    let shape = engine.shape();
    let range = |spec: &str| Range::parse(spec, shape).map_err(|e| e.to_string());
    let spec = &req.specs[0];
    Ok(match req.kind {
        Kind::Element | Kind::Fiber | Kind::Frame => {
            let r = range(spec)?;
            let t0 = Instant::now();
            let t = engine.query_on(0, &r).map_err(|e| e.to_string())?;
            let took = t0.elapsed();
            (render_result(spec, &t), took)
        }
        Kind::Agg => {
            let r = range(spec)?;
            let t0 = Instant::now();
            let v = engine.mean_on(0, &r).map_err(|e| e.to_string())?;
            let took = t0.elapsed();
            (render_aggregate(spec, "mean", v), took)
        }
        Kind::Batch => {
            let ranges = req
                .specs
                .iter()
                .map(|s| range(s))
                .collect::<Result<Vec<_>, _>>()?;
            let t0 = Instant::now();
            let ts = engine
                .query_batch_on(0, &ranges)
                .map_err(|e| e.to_string())?;
            let took = t0.elapsed();
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("results");
            w.begin_array();
            for (s, t) in req.specs.iter().zip(&ts) {
                write_result(&mut w, s, t);
            }
            w.end_array();
            w.end_object();
            (w.finish(), took)
        }
    })
}

/// Checks every reply against the engine-direct answer, rendered as the
/// server renders it. Answers are bit-identical with the cache cold, warm
/// or off, so the check splits the replies over two threads, each with its
/// own engine and a server shard's cache budget (uncached, order-4 queries
/// make the check several times slower).
fn check_replies(
    decomp: &TuckerDecomp,
    name: &str,
    reqs: &[Req],
    windows: &[Window],
    rep: &mut Report,
) -> dtucker::query::Result<()> {
    let slots: Vec<(usize, &crate::loadgen::Reply)> = windows
        .iter()
        .flat_map(|w| w.req.iter().copied().zip(&w.replies))
        .collect();
    let half = slots.len().div_ceil(2);
    let verdicts: Vec<dtucker::query::Result<Vec<bool>>> = std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .chunks(half.max(1))
            .map(|part| {
                s.spawn(move || {
                    let engine =
                        SharedQueryEngine::new(decomp.clone(), 1, config().cache_bytes / THREADS)?;
                    Ok(part
                        .iter()
                        .map(|&(i, reply)| {
                            let want = expected_body(&engine, &reqs[i])
                                .map(|(b, _)| (fnv1a(b.as_bytes()), b.len()));
                            reply.status == 200
                                && want.ok() == Some((reply.body_hash, reply.body_len))
                        })
                        .collect())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(dtucker::query::QueryError::Internal(
                        "checker panicked".into(),
                    ))
                })
            })
            .collect()
    });
    let mut verdict = Vec::with_capacity(slots.len());
    for v in verdicts {
        verdict.extend(v?);
    }
    for (&(i, reply), ok) in slots.iter().zip(verdict) {
        rep.attempt(ok, || {
            format!(
                "{name} request {i} ({:?}): status {}, body differs from the engine's answer or is missing",
                reqs[i].kind, reply.status
            )
        });
    }
    Ok(())
}

/// Traced only: replays the served sequence (its first [`REPLAY_MAX`]
/// requests) through one cached engine shard (as a worker runs it) and
/// through the server's own parse, handle and write functions, timing each
/// layer.
fn replay_layers(
    decomp: &TuckerDecomp,
    name: &str,
    reqs: &[Req],
    windows: &[Window],
    rep: &mut Report,
) -> dtucker::query::Result<()> {
    let cache = config().cache_bytes / THREADS;
    let engine = SharedQueryEngine::new(decomp.clone(), 1, cache)?;
    let sequence: Vec<usize> = windows
        .iter()
        .flat_map(|w| w.req.iter().copied())
        .take(REPLAY_MAX)
        .collect();
    let mut engine_ns = [0u128; 5];
    let mut engine_n = [0u64; 5];
    // Everything in the engine-direct answer but the engine call: range
    // parsing and rendering the JSON body.
    let mut encode_ns = 0u128;
    for &i in &sequence {
        let kind = KINDS.iter().position(|&x| x == reqs[i].kind).unwrap_or(0);
        let t0 = Instant::now();
        let (_, took) =
            expected_body(&engine, &reqs[i]).map_err(dtucker::query::QueryError::Internal)?;
        encode_ns += t0.elapsed().saturating_sub(took).as_nanos();
        engine_ns[kind] += took.as_nanos();
        engine_n[kind] += 1;
    }
    let per = |k: Kind| {
        let i = KINDS.iter().position(|&x| x == k).unwrap_or(0);
        engine_ns[i] as f64 / 1e3 / engine_n[i].max(1) as f64
    };
    rep.put("query.element_us", per(Kind::Element), "us");
    rep.put("query.agg_us", per(Kind::Agg), "us");
    rep.put(
        "query.fiber_us",
        (engine_ns[2] + engine_ns[3]) as f64 / 1e3 / (engine_n[2] + engine_n[3]).max(1) as f64,
        "us",
    );
    rep.put("query.batch_us", per(Kind::Batch), "us");
    let stats = engine.cache_stats();
    rep.put(
        "query.cache_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    let profile = engine.profile();
    for phase in ["plan", "cache", "contract"] {
        rep.put(
            &format!("query.{phase}_s"),
            profile.get(phase).unwrap_or_default().as_secs_f64(),
            "s",
        );
    }

    // The same sequence through the server's own layers, in-process.
    let app = App::new(vec![ServedArtifact {
        name: name.to_string(),
        engine: SharedQueryEngine::new(decomp.clone(), 1, cache)?,
    }]);
    let limits = Limits::default();
    let (mut parse_ns, mut handle_ns, mut write_ns, mut bytes) = (0u128, 0u128, 0u128, 0usize);
    for &i in &sequence {
        let mut conn = Loopback::new(&reqs[i].wire);
        let t0 = Instant::now();
        let parsed = parse_request(&mut ConnReader::new(), &mut conn, &limits);
        let t1 = Instant::now();
        let Ok(req) = parsed else {
            rep.attempt(false, || format!("replayed request {i} does not parse"));
            continue;
        };
        let (_, resp) = handle(&app, 0, &req);
        let t2 = Instant::now();
        let mut out = Vec::with_capacity(resp.body.len() + 128);
        let _ = write_response(&mut out, &resp, true);
        let t3 = Instant::now();
        parse_ns += (t1 - t0).as_nanos();
        handle_ns += (t2 - t1).as_nanos();
        write_ns += (t3 - t2).as_nanos();
        bytes += out.len();
    }
    let n = sequence.len().max(1) as f64;
    rep.put("serve.parse_us", parse_ns as f64 / 1e3 / n, "us");
    rep.put("serve.handle_us", handle_ns as f64 / 1e3 / n, "us");
    rep.put("serve.encode_us", encode_ns as f64 / 1e3 / n, "us");
    rep.put("serve.write_us", write_ns as f64 / 1e3 / n, "us");
    rep.put("serve.response_kb", bytes as f64 / 1024.0 / n, "KiB");
    Ok(())
}

/// An in-memory connection: reads come from a fixed request, writes (an
/// interim `100 Continue`) are discarded.
struct Loopback<'a> {
    input: &'a [u8],
}

impl<'a> Loopback<'a> {
    fn new(input: &'a [u8]) -> Self {
        Loopback { input }
    }
}

impl Read for Loopback<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Loopback<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
