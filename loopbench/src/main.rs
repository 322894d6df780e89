//! `loopbench` — the loopback benchmark of `cqchase serve`.
//!
//! Starts the release server as a child process on `127.0.0.1:0`,
//! drives it through `cqchase_service::Client` from this one process
//! (at most two load threads and connections), checks every answer
//! against the library, and prints one JSON result line. With
//! `--trace 1` it instead measures the per-layer breakdown: the same
//! traffic with per-request spans, `stats` read before and after, and
//! in-process replays of each layer's public functions on the
//! workload's inputs.
//!
//! Normally started by `run.py`, which builds the server and this
//! program first:
//!
//! ```text
//! loopbench --workload check_cold --seed 1 --seconds 20 --trace 0 \
//!     --server-bin target/release/cqchase --spec loopbench/spec.json \
//!     --out-dir target/loopbench
//! ```

mod child;
mod gen;
mod layers;
mod load;
mod stats;
mod trace;
mod verify;

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cqchase_service::Client;
use serde_json::Value;

use child::{ScratchDir, ServerProc};
use gen::{CheckWorkload, EvalWorkload, Pair};
use load::{check_conn, same_answer, ConnRun, EvalUpdateRun, Expect, Pacer};
use stats::{median, percentile};
use trace::Tracer;

/// Load threads and connections (the benchmark machine's core count).
const CONNS: usize = 2;
/// Fewest samples a p99 is reported from.
const MIN_P99_SAMPLES: usize = 1_000;
/// Unmeasured warm-up before the timed phase.
const WARMUP: Duration = Duration::from_millis(500);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    spec: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_owned(), v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed needs an integer")?,
        seconds: get("seconds")?
            .parse()
            .map_err(|_| "--seconds needs a number")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        server_bin: get("server-bin")?.into(),
        spec: get("spec")?.into(),
        out_dir: get("out-dir")?.into(),
    })
}

/// Set-ups per run; `setup_s` is their mean without the
/// [`SETUP_TRIM`] fastest and the [`SETUP_TRIM`] slowest. A median would
/// not do: the time one server process takes to register is bimodal
/// (on `eval_update`, about 19 or about 30 ms, the mode fixed per
/// process), so a median jumps between the modes from run to run, while
/// a mean moves smoothly with their mix.
const SETUP_REPEATS: usize = 15;
const SETUP_TRIM: usize = 2;
/// `check_hot`: the arrival rate of the latency phase, requests/s.
const HOT_FIXED_RATE: f64 = 2_000.0;
/// `check_hot`: the shares of `--seconds` given to the fixed-rate phase
/// and to the closed-loop phase; the ladder walk gets the rest.
const HOT_FIXED_SHARE: f64 = 0.6;
const HOT_CLOSED_SHARE: f64 = 0.2;
/// `check_hot`: the coarse ladder walk visits every this-many-th rung.
const LADDER_COARSE_STRIDE: usize = 4;
/// `check_hot`: how long each ladder rung runs, s.
const LADDER_STEP_S: f64 = 0.5;

/// `check_hot`'s SLO ladder, recorded in the spec file: the arrival
/// rates walked and the p99 limit each must meet.
struct Ladder {
    rates: Vec<f64>,
    limit_us: f64,
}

fn read_ladder(path: &Path) -> Result<Ladder, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let hot = &v["check_hot"];
    Ok(Ladder {
        rates: hot["ladder_rps"]
            .as_array()
            .ok_or("spec: missing check_hot.ladder_rps")?
            .iter()
            .map(|x| x.as_f64().ok_or("spec: ladder rates are numbers"))
            .collect::<Result<_, _>>()?,
        limit_us: hot["p99_limit_us"]
            .as_f64()
            .ok_or("spec: missing check_hot.p99_limit_us")?,
    })
}

/// A metric value with its unit.
pub struct Metric {
    value: f64,
    unit: &'static str,
}

/// Metrics in output order.
pub type Metrics = BTreeMap<&'static str, Metric>;

/// Adds a metric.
pub fn put(m: &mut Metrics, name: &'static str, value: f64, unit: &'static str) {
    m.insert(name, Metric { value, unit });
}

/// Everything a run reports besides its metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Metrics,
}

fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn print_result(o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                fmt_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.mismatches.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
}

/// Prints the latency percentiles of one verb with their sample counts
/// and returns the median. The p90 and p99 are block percentiles (see
/// [`stats::block_percentile`]; each block holds at least
/// [`MIN_P99_SAMPLES`]); a p99 is reported only from that many samples.
fn report_latency(verb: &str, run: &ConnRun) -> Result<f64, String> {
    let n = run.lat_us.len();
    if n == 0 {
        return Err(format!("{verb}: no request completed"));
    }
    let p50 = median(&run.lat_us);
    let tail = |p: f64| stats::block_percentile(&run.lat_us, &run.done, MIN_P99_SAMPLES, p);
    match (tail(90.0), tail(99.0)) {
        (Some((p90, blocks)), Some((p99, _))) => eprintln!(
            "  {verb}_p50_us = {p50:.1} us (n = {n}); {verb}_p90_us = {p90:.1} us, {verb}_p99_us = {p99:.1} us (medians over {blocks} blocks of >= {MIN_P99_SAMPLES})"
        ),
        _ => eprintln!("  {verb}_p50_us = {p50:.1} us (n = {n}); no p99 from under {MIN_P99_SAMPLES} samples"),
    }
    Ok(p50)
}

/// The block p99 of a run and its block count.
pub fn block_p99(run: &ConnRun) -> Option<(f64, usize)> {
    stats::block_percentile(&run.lat_us, &run.done, MIN_P99_SAMPLES, 99.0)
}

fn stats_of(addr: SocketAddr) -> Result<Value, String> {
    Client::connect(addr)
        .map_err(|e| format!("stats connect: {e}"))?
        .stats()
        .map_err(|e| format!("stats: {e}"))
}

/// Starts a server and registers `programs`; returns it with the set-up
/// time and, of that, the time until the server printed its address,
/// in seconds.
fn set_up(
    args: &Args,
    programs: &[(&str, &str)],
    data_dir: Option<&Path>,
) -> Result<(ServerProc, f64, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(&args.server_bin, data_dir)?;
    let listening = t0.elapsed().as_secs_f64();
    let mut c = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    for (name, src) in programs {
        c.register(name, src)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    Ok((server, t0.elapsed().as_secs_f64(), listening))
}

/// Repeats the set-up and keeps the last server; the set-up time is the
/// trimmed mean over the repeats.
fn set_up_repeated(
    args: &Args,
    programs: &[(&str, &str)],
    durable: bool,
) -> Result<(ServerProc, f64, Option<ScratchDir>), String> {
    let (mut times, mut starts) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let dir = if durable {
            Some(ScratchDir::new(
                &args.out_dir,
                &format!("data-{}-{}-{i}", std::process::id(), args.seed),
            )?)
        } else {
            None
        };
        let (server, secs, start) = set_up(args, programs, dir.as_ref().map(|d| d.0.as_path()))?;
        times.push(secs);
        starts.push(start);
        if let Some((prev, _dir)) = last.replace((server, dir)) {
            prev.stop();
        }
    }
    let (server, dir) = last.expect("at least one set-up");
    let regs: Vec<f64> = times.iter().zip(&starts).map(|(t, s)| t - s).collect();
    eprintln!(
        "  set-up, trimmed means of {SETUP_REPEATS}: {:.1} ms from spawn to the listening line, {:.1} ms registering",
        stats::trimmed_mean(&starts, SETUP_TRIM) * 1e3,
        stats::trimmed_mean(&regs, SETUP_TRIM) * 1e3
    );
    Ok((server, stats::trimmed_mean(&times, SETUP_TRIM), dir))
}

/// Checks from [`CONNS`] connections for `secs`: a closed loop when
/// `rate` is `None`, else an open loop at `rate` requests/s whose
/// requests are timed from when they were due.
fn checks(
    addr: SocketAddr,
    wl: &CheckWorkload,
    expected: &HashMap<Pair, Expect>,
    cursors: &mut [usize; CONNS],
    rate: Option<f64>,
    secs: f64,
    tracer: Option<&Tracer>,
) -> Result<ConnRun, String> {
    let start = Instant::now() + Duration::from_millis(2);
    let stop = start + Duration::from_secs_f64(secs);
    let runs: Vec<Result<ConnRun, String>> = std::thread::scope(|sc| {
        let hs: Vec<_> = cursors
            .iter_mut()
            .enumerate()
            .map(|(c, cur)| {
                // Connections interleave evenly within each period.
                let pacer = rate.map(|r| {
                    let period = Duration::from_secs_f64(CONNS as f64 / r);
                    Pacer::new(start + period * c as u32 / CONNS as u32, period)
                });
                sc.spawn(move || check_conn(addr, wl, expected, cur, CONNS, pacer, stop, tracer))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut all = ConnRun::default();
    for r in runs {
        all.merge(r?);
    }
    Ok(all)
}

/// The highest ladder rate whose p99 from due stays under the limit
/// with every request answered. The walk is coarse first (every
/// `coarse`-th rung, up to the first miss), then fine (the rungs between
/// the last coarse pass and that miss, up to the first fine miss); it
/// stops early when `budget_s` runs out.
#[allow(clippy::too_many_arguments)]
fn walk_ladder(
    addr: SocketAddr,
    wl: &CheckWorkload,
    expected: &HashMap<Pair, Expect>,
    cursors: &mut [usize; CONNS],
    ladder: &Ladder,
    budget_s: f64,
    all: &mut ConnRun,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut rung = |rate: f64, all: &mut ConnRun| -> Result<Option<bool>, String> {
        if t0.elapsed().as_secs_f64() + LADDER_STEP_S > budget_s {
            return Ok(None);
        }
        let run = checks(addr, wl, expected, cursors, Some(rate), LADDER_STEP_S, None)?;
        let p99 = block_p99(&run).map_or(f64::INFINITY, |b| b.0);
        let pass = run.failed == 0 && p99 <= ladder.limit_us;
        eprintln!(
            "  ladder {rate:>8.0} rps: p99 {p99:>10.1} us over {} samples -> {}",
            run.lat_us.len(),
            if pass { "meets" } else { "misses" }
        );
        all.attempted += run.attempted;
        all.failed += run.failed;
        all.mismatches.extend(run.mismatches);
        Ok(Some(pass))
    };
    let n = ladder.rates.len();
    // Coarse pass: the index of the last passing coarse rung.
    let mut last_pass: Option<usize> = None;
    let mut miss = n;
    let mut i = 0;
    while i < n {
        match rung(ladder.rates[i], all)? {
            Some(true) => last_pass = Some(i),
            Some(false) => {
                miss = i;
                break;
            }
            None => return Ok(last_pass.map_or(0.0, |k| ladder.rates[k])),
        }
        i += LADDER_COARSE_STRIDE;
    }
    let Some(mut best) = last_pass else {
        return Ok(0.0);
    };
    // Fine pass between the last coarse pass and the coarse miss.
    for j in best + 1..miss.min(n) {
        match rung(ladder.rates[j], all)? {
            Some(true) => best = j,
            _ => break,
        }
    }
    Ok(ladder.rates[best])
}

/// Sets the end-to-end metrics of the result line and prints them.
/// Only these are gated: the tails and throughputs printed above swing
/// with the shared machine's stalls from one run to the next by more
/// than any bound a comparison could use.
fn report_common(metrics: &mut Metrics, setup_s: f64, p50: f64, rss: f64) {
    eprintln!("  setup_s = {setup_s:.4} s; server_rss_mb = {rss:.2} MB");
    put(metrics, "setup_s", setup_s, "s");
    put(metrics, "p50_us", p50, "us");
    put(metrics, "server_rss_mb", rss, "MB");
}

fn run_checks(args: &Args, hot: bool) -> Result<Outcome, String> {
    let ladder = if hot {
        Some(read_ladder(&args.spec)?)
    } else {
        None
    };
    let t_gen = Instant::now();
    let wl = if hot {
        gen::check_hot(args.seed)
    } else {
        gen::check_cold(args.seed)
    };
    let expected = verify::expected_checks(&wl, CONNS)?;
    let positives = expected.values().filter(|e| e.contained).count();
    eprintln!(
        "[{}] {} sessions, {} queries, {} distinct pairs ({} contained), answers computed in {:.2}s",
        args.workload,
        wl.sessions.len(),
        wl.sessions.iter().map(|s| s.program.queries.len()).sum::<usize>(),
        expected.len(),
        positives,
        t_gen.elapsed().as_secs_f64()
    );
    for (s, sess) in wl.sessions.iter().enumerate() {
        let costs: Vec<f64> = wl
            .seq
            .iter()
            .filter(|p| p.0 == s)
            .map(|p| expected[p].cost_us)
            .collect();
        eprintln!(
            "  library cost per check in session {}: p50 {:.0} us, p90 {:.0} us, p99 {:.0} us, max {:.0} us, mean {:.0} us",
            sess.name,
            median(&costs),
            percentile(&costs, 90.0),
            percentile(&costs, 99.0),
            percentile(&costs, 100.0),
            stats::mean(&costs)
        );
    }
    let programs: Vec<(&str, &str)> = wl
        .sessions
        .iter()
        .map(|s| (s.name.as_str(), s.src.as_str()))
        .collect();
    let (server, setup_s, _dir) = set_up_repeated(args, &programs, false)?;
    let addr = server.addr;
    let mut cursors = [0usize, 1];
    let mut mismatches = Vec::new();

    // Warm-up: hot — every distinct pair once first; then both a short
    // stretch of their timed load.
    if hot {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for (&(s, q, qp), want) in &expected {
            let p = &wl.sessions[s].program;
            let v = c
                .check(
                    &wl.sessions[s].name,
                    &p.queries[q].name,
                    &p.queries[qp].name,
                )
                .map_err(|e| format!("warm-up check: {e}"))?;
            if !same_answer(&v, want) {
                mismatches.push(format!(
                    "warm-up check {q} ⊆ {qp}: server {v}, library {want:?}"
                ));
            }
        }
    }
    // The load of the timed phases: check_hot at its fixed rate, check_cold
    // as a closed loop.
    let rate = hot.then_some(HOT_FIXED_RATE);
    let warm = checks(
        addr,
        &wl,
        &expected,
        &mut cursors,
        rate,
        WARMUP.as_secs_f64(),
        None,
    )?;
    mismatches.extend(warm.mismatches);

    let tracer = Tracer::new();
    let mut metrics = Metrics::new();
    let (mut attempted, mut failed) = (0, 0);
    if !args.trace {
        let before = stats_of(addr)?;
        let t0 = Instant::now();
        let secs = if hot {
            args.seconds * HOT_FIXED_SHARE
        } else {
            args.seconds
        };
        let mut main = checks(addr, &wl, &expected, &mut cursors, rate, secs, None)?;
        let elapsed = t0.elapsed().as_secs_f64();
        let p50 = report_latency("check", &main)?;
        if hot {
            eprintln!(
                "  generator lateness p50 {:.1} us, p99 {:.1} us",
                median(&main.late_us),
                percentile(&main.late_us, 99.0)
            );
        }
        let lat = std::mem::take(&mut main.lat_us);
        let ops = if let Some(ladder) = &ladder {
            let t1 = Instant::now();
            let closed_s = args.seconds * HOT_CLOSED_SHARE;
            let closed = checks(addr, &wl, &expected, &mut cursors, None, closed_s, None)?;
            let closed_ops = closed.lat_us.len() as f64 / t1.elapsed().as_secs_f64();
            main.attempted += closed.attempted;
            main.failed += closed.failed;
            main.mismatches.extend(closed.mismatches);
            let budget = args.seconds * (1.0 - HOT_FIXED_SHARE - HOT_CLOSED_SHARE);
            let slo = walk_ladder(
                addr,
                &wl,
                &expected,
                &mut cursors,
                ladder,
                budget,
                &mut main,
            )?;
            eprintln!(
                "  slo_rps = {slo} 1/s (p99 limit {} us); closed-loop ops_per_s = {closed_ops:.0} 1/s (n = {})",
                ladder.limit_us,
                closed.lat_us.len()
            );
            closed_ops
        } else {
            lat.len() as f64 / elapsed
        };
        eprintln!("  ops_per_s = {ops:.1} 1/s");
        let after = stats_of(addr)?;
        let rss = server
            .peak_rss_mb()
            .ok_or("cannot read the server's VmHWM")?;
        let (hits, misses) = (
            stats::delta(&before, &after, "semantic_cache.hits"),
            stats::delta(&before, &after, "semantic_cache.misses"),
        );
        eprintln!(
            "  semantic-cache hit rate {:.3} ({hits} of {} probes)",
            stats::ratio(hits, hits + misses),
            hits + misses
        );
        report_common(&mut metrics, setup_s, p50, rss);
        attempted += main.attempted;
        failed += main.failed;
        mismatches.extend(main.mismatches);
    } else {
        let half = args.seconds / 2.0;
        let phase = |cursors: &mut [usize; CONNS], tr: Option<&Tracer>| {
            checks(addr, &wl, &expected, cursors, rate, half, tr)
        };
        let plain = phase(&mut cursors, None)?;
        let before = stats_of(addr)?;
        let traced = phase(&mut cursors, Some(&tracer))?;
        let after = stats_of(addr)?;
        server.stop();
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
        mismatches.extend(plain.mismatches.iter().cloned());
        mismatches.extend(traced.mismatches.iter().cloned());
        let ctx = layers::CheckCtx {
            wl: &wl,
            expected: &expected,
            plain: &plain,
            traced: &traced,
            before: &before,
            after: &after,
            hot,
        };
        layers::check_layers(
            &ctx,
            &tracer,
            &args.out_dir,
            &args.workload,
            args.seed,
            &mut metrics,
        )?;
        return Ok(Outcome {
            attempted,
            failed,
            mismatches,
            metrics,
        });
    }
    server.stop();
    Ok(Outcome {
        attempted,
        failed,
        mismatches,
        metrics,
    })
}

/// The eval latency `eval_update` gates: each read query's median
/// client-observed latency, averaged over the read pool. The pool's
/// queries cost from about 1 to about 8 ms each, in clusters, and the
/// median of all evals falls in a gap between two clusters, where it
/// jumps by a third as the share of reads of either cluster shifts;
/// each query's own median moves only with the machine's speed.
/// `recs` and `lat_us` are the answered evals of one phase, aligned.
/// Returns the average and the fewest samples any query had.
fn pool_p50(
    wl: &EvalWorkload,
    recs: &[load::EvalRec],
    lat_us: &[f64],
) -> Result<(f64, usize), String> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); wl.reads.len()];
    for (r, &lat) in recs.iter().zip(lat_us) {
        per[r.query].push(lat);
    }
    let fewest = per.iter().map(Vec::len).min().unwrap_or(0);
    if fewest == 0 {
        return Err("eval: a read query was never answered".into());
    }
    let p50 = per.iter().map(|v| median(v)).sum::<f64>() / per.len() as f64;
    Ok((p50, fewest))
}

fn run_eval_update(args: &Args) -> Result<Outcome, String> {
    let wl: EvalWorkload = gen::eval_update(args.seed);
    eprintln!(
        "[{}] {} facts, {} read queries, register line {} bytes",
        args.workload,
        gen::EDGES,
        wl.reads.len(),
        wl.src.len()
    );
    let (server, setup_s, _dir) = set_up_repeated(args, &[("live", wl.src.as_str())], true)?;
    let addr = server.addr;
    // Rounds that each read every query once, in a seeded order, so
    // every query is read equally often.
    let read_order: Vec<usize> = {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed ^ 0x7265_6164);
        let mut order = Vec::new();
        for _ in 0..4096 / wl.reads.len() {
            let mut round: Vec<usize> = (0..wl.reads.len()).collect();
            round.shuffle(&mut rng);
            order.extend(round);
        }
        order
    };
    let (mut next_update, mut next_read) = (0usize, 0usize);
    let mut applied: Vec<bool> = Vec::new();
    let mut recs = Vec::new();
    let mut mismatches = Vec::new();
    let mut absorb =
        |run: EvalUpdateRun, applied: &mut Vec<bool>, recs: &mut Vec<load::EvalRec>| {
            applied.extend(run.applied);
            recs.extend(run.recs);
            mismatches.extend(run.reads.mismatches.iter().cloned());
            (run.reads, run.writes)
        };
    let warm = load::eval_update_phase(
        addr,
        &wl,
        &read_order,
        &mut next_update,
        &mut next_read,
        Instant::now() + WARMUP,
        None,
    )?;
    absorb(warm, &mut applied, &mut recs);

    let tracer = Tracer::new();
    let mut metrics = Metrics::new();
    let (attempted, failed);
    if !args.trace {
        let before = stats_of(addr)?;
        let run = load::eval_update_phase(
            addr,
            &wl,
            &read_order,
            &mut next_update,
            &mut next_read,
            Instant::now() + Duration::from_secs_f64(args.seconds),
            None,
        )?;
        let per_query = pool_p50(&wl, &run.recs, &run.reads.lat_us)?;
        let (reads, writes) = absorb(run, &mut applied, &mut recs);
        let after = stats_of(addr)?;
        let rss = server
            .peak_rss_mb()
            .ok_or("cannot read the server's VmHWM")?;
        server.stop();
        report_latency("eval", &reads)?;
        let (p50, fewest) = per_query;
        eprintln!(
            "  eval p50 per query, averaged over {} queries = {p50:.1} us (>= {fewest} samples per query); this is p50_us",
            wl.reads.len()
        );
        report_latency("update", &writes)?;
        eprintln!(
            "  generator lateness of the evals p50 {:.1} us, p99 {:.1} us",
            median(&reads.late_us),
            percentile(&reads.late_us, 99.0)
        );
        eprintln!(
            "  {} evals, {} updates acknowledged; eval-cache hits {}; fsyncs {}",
            reads.lat_us.len(),
            writes.lat_us.len(),
            reads.cached,
            stats::delta(&before, &after, "durability.fsyncs")
        );
        report_common(&mut metrics, setup_s, p50, rss);
        attempted = reads.attempted + writes.attempted;
        failed = reads.failed + writes.failed;
    } else {
        let half = args.seconds / 2.0;
        let plain = load::eval_update_phase(
            addr,
            &wl,
            &read_order,
            &mut next_update,
            &mut next_read,
            Instant::now() + Duration::from_secs_f64(half),
            None,
        )?;
        let before = stats_of(addr)?;
        let traced = load::eval_update_phase(
            addr,
            &wl,
            &read_order,
            &mut next_update,
            &mut next_read,
            Instant::now() + Duration::from_secs_f64(half),
            Some(&tracer),
        )?;
        let after = stats_of(addr)?;
        server.stop();
        let plain_p50 = pool_p50(&wl, &plain.recs, &plain.reads.lat_us)?.0;
        let traced_p50 = pool_p50(&wl, &traced.recs, &traced.reads.lat_us)?.0;
        let (p_reads, p_writes) = absorb(plain, &mut applied, &mut recs);
        let (t_reads, t_writes) = absorb(traced, &mut applied, &mut recs);
        attempted = p_reads.attempted + p_writes.attempted + t_reads.attempted + t_writes.attempted;
        failed = p_reads.failed + p_writes.failed + t_reads.failed + t_writes.failed;
        let all_writes = ConnRun {
            lat_us: [p_writes.lat_us.as_slice(), t_writes.lat_us.as_slice()].concat(),
            done: [p_writes.done.as_slice(), t_writes.done.as_slice()].concat(),
            ..ConnRun::default()
        };
        let ctx = layers::EvalCtx {
            wl: &wl,
            overhead_frac: traced_p50 / plain_p50 - 1.0,
            reads: &t_reads,
            writes: &t_writes,
            all_writes: &all_writes,
            before: &before,
            after: &after,
        };
        layers::eval_layers(
            &ctx,
            &tracer,
            &args.out_dir,
            &args.workload,
            args.seed,
            &mut metrics,
        )?;
    }
    let t_ver = Instant::now();
    mismatches.extend(verify::check_evals(&wl, &applied, &recs, args.seed, CONNS));
    eprintln!(
        "  {} evals verified against the replica in {:.2}s",
        recs.len(),
        t_ver.elapsed().as_secs_f64()
    );
    Ok(Outcome {
        attempted,
        failed,
        mismatches,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "check_cold" => run_checks(&args, false),
        "check_hot" => run_checks(&args, true),
        "eval_update" => run_eval_update(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(o) => {
            eprintln!(
                "  failed_frac = {} ({} of {} requests failed, were refused or timed out)",
                o.failed as f64 / o.attempted.max(1) as f64,
                o.failed,
                o.attempted
            );
            print_result(&o);
            if !o.mismatches.is_empty() {
                for m in o.mismatches.iter().take(20) {
                    eprintln!("MISMATCH: {m}");
                }
                eprintln!(
                    "loopbench: {} answers differ from the library",
                    o.mismatches.len()
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("loopbench: {e}");
            std::process::exit(1);
        }
    }
}
