//! The per-layer breakdown of a traced run. Each layer is timed by
//! calling its public functions from here, on the workload's own inputs;
//! the server's `stats` verb, read before and after the traced phase,
//! gives its counters. Spans nest as the request path does: a replayed
//! request is a `replay.*` span whose children are the layer calls.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use cqchase_core::chase::Chase;
use cqchase_core::{
    classify, contained, iso_key, ChaseHomFinder, ContainmentOptions, ContainmentPair,
};
use cqchase_index::{compile, JoinScratch, PlanCache};
use cqchase_ir::{parse_program, Constant};
use cqchase_par::BatchOptions;
use cqchase_service::batch::rows_to_value;
use cqchase_service::cache::sigma_fingerprint;
use cqchase_service::{CheckSummary, Request, SemanticCache, Session};
use cqchase_storage::{evaluate_indexed_with, DbIndex, Value as DbValue};
use serde_json::Value;

use crate::gen::{CheckWorkload, Edge, EvalWorkload, Pair};
use crate::load::{ConnRun, Expect};
use crate::stats::{delta, hist_percentile, mean, median, percentile, ratio};
use crate::trace::{summarize, write_jsonl, SpanLog, SpanStat, Tracer};
use crate::{put, Metrics};

/// Every per-layer metric with its unit. A layer a workload does not
/// exercise reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_p99_us", "us"),
    ("service.wire_us", "us"),
    ("service.proto.decode_us", "us"),
    ("service.proto.register_decode_s", "s"),
    ("service.proto.encode_us", "us"),
    ("ir.parse_s", "s"),
    ("service.session.build_s", "s"),
    ("replay.register.self_s", "s"),
    ("core.iso_key_us", "us"),
    ("service.cache.lookup_us", "us"),
    ("service.cache.hit_rate", "frac"),
    ("service.batch.queue_wait_p50_us", "us"),
    ("service.batch.queue_wait_p99_us", "us"),
    ("service.batch.items_per_batch", "count"),
    ("service.batch.coalesced_frac", "frac"),
    ("service.batch.barrier_flushes", "count"),
    ("core.contained_us", "us"),
    ("core.chase.expand_us", "us"),
    ("core.chase.conjuncts", "count"),
    ("core.chase.steps", "count"),
    ("core.hom.find_us", "us"),
    ("core.levels_explored_frac", "frac"),
    ("core.positive_frac", "frac"),
    ("replay.check.self_us", "us"),
    ("par.check_batch_pairs_per_s", "1/s"),
    ("par.speedup", "x"),
    ("index.compile_us", "us"),
    ("service.plan_cache.hit_rate", "frac"),
    ("storage.eval_us", "us"),
    ("index.candidates_per_row", "count"),
    ("service.eval_cache.hit_rate", "frac"),
    ("replay.eval.self_us", "us"),
    ("storage.index_update_us", "us"),
    ("replay.update.self_us", "us"),
    ("service.mutation.compactions", "count"),
    ("durability.fsync_us", "us"),
    ("durability.wal_bytes_per_update", "B"),
    ("service.update_p50_us", "us"),
    ("service.update_p99_us", "us"),
    ("trace.overhead_frac", "frac"),
];

/// Pairs replayed in-process per traced run (at most).
const REPLAY_PAIRS: usize = 300;
/// Updates replayed through the index (at most).
const REPLAY_UPDATES: usize = 500;
/// Repeats of the register-path replay (the median is kept).
const REGISTER_REPEATS: usize = 3;

fn set(m: &mut Metrics, name: &'static str, value: f64) {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    put(m, name, value, unit);
}

fn zeroed() -> Metrics {
    let mut m = Metrics::new();
    for (n, u) in PER_LAYER {
        put(&mut m, n, 0.0, u);
    }
    m
}

/// Per-name mean of the spans named `name` (µs), 0 when there are none.
fn mean_of(s: &std::collections::BTreeMap<&'static str, SpanStat>, name: &str) -> f64 {
    s.get(name).map_or(0.0, |x| x.mean_us)
}

fn self_of(s: &std::collections::BTreeMap<&'static str, SpanStat>, name: &str) -> f64 {
    s.get(name).map_or(0.0, |x| x.self_us)
}

/// Counters every traced run reads from `stats`.
fn stats_layers(m: &mut Metrics, before: &Value, after: &Value) {
    let d = |p: &str| delta(before, after, p);
    set(
        m,
        "service.cache.hit_rate",
        ratio(
            d("semantic_cache.hits"),
            d("semantic_cache.hits") + d("semantic_cache.misses"),
        ),
    );
    set(
        m,
        "service.batch.queue_wait_p50_us",
        hist_percentile(before, after, "queue_wait.histogram_us_pow2", 50.0),
    );
    set(
        m,
        "service.batch.queue_wait_p99_us",
        hist_percentile(before, after, "queue_wait.histogram_us_pow2", 99.0),
    );
    set(
        m,
        "service.batch.items_per_batch",
        ratio(d("batching.batched_items"), d("batching.batches")),
    );
    set(
        m,
        "service.batch.coalesced_frac",
        ratio(d("batching.coalesced_items"), d("batching.batched_items")),
    );
    set(
        m,
        "service.batch.barrier_flushes",
        d("batching.barrier_flushes"),
    );
    set(
        m,
        "service.plan_cache.hit_rate",
        ratio(
            d("plan_cache.hits"),
            d("plan_cache.hits") + d("plan_cache.misses"),
        ),
    );
    set(m, "service.mutation.compactions", d("mutation.compactions"));
    set(
        m,
        "durability.fsync_us",
        ratio(d("durability.fsync_total_us"), d("durability.fsyncs")),
    );
}

/// Client latency (send to answer) minus the server's own endpoint
/// time for `verb`, both means over the traced phase.
fn wire_us(run: &ConnRun, verb: &str, before: &Value, after: &Value) -> f64 {
    let client = mean(&run.spans.iter().map(|s| s.dur_us()).collect::<Vec<_>>());
    let server = ratio(
        delta(before, after, &format!("endpoints.{verb}.total_us")),
        delta(before, after, &format!("endpoints.{verb}.count")),
    );
    client - server
}

/// The register path in-process: decode the line, parse the program,
/// build the session — summed over the workload's sessions, median of a
/// few repeats, as spans under `replay.register`.
fn replay_register(log: &mut SpanLog, programs: &[(&str, &str)]) -> Result<(), String> {
    let lines: Vec<String> = programs
        .iter()
        .map(|(name, src)| {
            Request::Register {
                session: (*name).to_owned(),
                program: (*src).to_owned(),
            }
            .to_value()
            .to_string()
        })
        .collect();
    for rep in 0..REGISTER_REPEATS {
        let root = log.open("replay.register", None, rep as u64);
        for line in &lines {
            let req = log.time(
                "service.proto.register_decode",
                Some(root),
                rep as u64,
                || Request::from_line(line),
            )?;
            let Request::Register { session, program } = req else {
                return Err("register line decoded to another verb".into());
            };
            let parsed = log
                .time("ir.parse", Some(root), rep as u64, || {
                    parse_program(&program)
                })
                .map_err(|e| e.to_string())?;
            let s = log.time("service.session.build", Some(root), rep as u64, || {
                Session::from_program(&session, parsed, 1024, 256)
            })?;
            std::hint::black_box(s);
        }
        log.close(root);
    }
    Ok(())
}

/// Sets the register metrics (seconds, per register of all sessions).
fn register_metrics(m: &mut Metrics, log: &SpanLog) {
    let per_rep = |name: &str| -> f64 {
        let xs: Vec<f64> = (0..REGISTER_REPEATS as u64)
            .map(|rep| {
                log.spans
                    .iter()
                    .filter(|s| s.name == name && s.req == rep)
                    .map(|s| s.dur_us())
                    .sum::<f64>()
                    / 1e6
            })
            .collect();
        median(&xs)
    };
    set(
        m,
        "service.proto.register_decode_s",
        per_rep("service.proto.register_decode"),
    );
    set(m, "ir.parse_s", per_rep("ir.parse"));
    set(
        m,
        "service.session.build_s",
        per_rep("service.session.build"),
    );
}

/// Times the encoding of response objects the server sent.
fn time_encode(log: &mut SpanLog, kept: &[Value], parent: Option<usize>) {
    for (i, v) in kept.iter().enumerate() {
        let s = log.time("service.proto.encode", parent, i as u64, || v.to_string());
        std::hint::black_box(s);
    }
}

fn finish(
    log: &SpanLog,
    out_dir: &Path,
    workload: &str,
    seed: u64,
    loads: &[&ConnRun],
) -> Result<(), String> {
    // Load spans are roots, so appending them keeps the replay spans'
    // parent indices valid.
    let mut spans: Vec<_> = log.spans.clone();
    for r in loads {
        spans.extend(r.spans.iter().cloned());
    }
    let path = out_dir.join(format!("spans-{workload}-{seed}.jsonl"));
    write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("  {} spans written to {}", spans.len(), path.display());
    eprintln!(
        "  {:<34} {:>8} {:>12} {:>12}",
        "span", "count", "mean_us", "self_us"
    );
    for (name, st) in summarize(&spans) {
        eprintln!(
            "  {name:<34} {:>8} {:>12.2} {:>12.2}",
            st.count, st.mean_us, st.self_us
        );
    }
    Ok(())
}

/// Inputs of a traced check run.
pub struct CheckCtx<'a> {
    /// The workload.
    pub wl: &'a CheckWorkload,
    /// The library's answers.
    pub expected: &'a HashMap<Pair, Expect>,
    /// The untraced half of the traffic.
    pub plain: &'a ConnRun,
    /// The traced half of the traffic.
    pub traced: &'a ConnRun,
    /// `stats` before the traced half.
    pub before: &'a Value,
    /// `stats` after the traced half.
    pub after: &'a Value,
    /// Whether this is the open-loop hot workload.
    pub hot: bool,
}

/// The per-layer metrics of `check_cold` / `check_hot`.
pub fn check_layers(
    ctx: &CheckCtx,
    tracer: &Tracer,
    out_dir: &Path,
    workload: &str,
    seed: u64,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut m = zeroed();
    let wl = ctx.wl;
    stats_layers(&mut m, ctx.before, ctx.after);
    if ctx.hot {
        set(
            &mut m,
            "loadgen.late_p99_us",
            percentile(&ctx.traced.late_us, 99.0),
        );
    }
    set(
        &mut m,
        "service.wire_us",
        wire_us(ctx.traced, "check", ctx.before, ctx.after),
    );
    set(
        &mut m,
        "trace.overhead_frac",
        median(&ctx.traced.lat_us) / median(&ctx.plain.lat_us) - 1.0,
    );
    set(
        &mut m,
        "core.positive_frac",
        ratio(ctx.traced.positives as f64, ctx.traced.lat_us.len() as f64),
    );

    let mut log = SpanLog::new(tracer);
    let programs: Vec<(&str, &str)> = wl
        .sessions
        .iter()
        .map(|s| (s.name.as_str(), s.src.as_str()))
        .collect();
    replay_register(&mut log, &programs)?;
    register_metrics(&mut m, &log);

    // The pairs replayed: the sequence's first distinct pairs.
    let mut seen = std::collections::HashSet::new();
    let pairs: Vec<Pair> = wl
        .seq
        .iter()
        .copied()
        .filter(|p| seen.insert(*p))
        .take(REPLAY_PAIRS)
        .collect();
    // A semantic cache per session, filled like the server's: hot — with
    // every pair, so every probe hits; cold — with 4 096 other pairs of
    // the sequence, so probes mostly miss as they do on the server.
    let mut caches: Vec<SemanticCache> = wl
        .sessions
        .iter()
        .map(|_| SemanticCache::new(1024))
        .collect();
    let fps: Vec<u64> = wl
        .sessions
        .iter()
        .map(|s| sigma_fingerprint(&s.program.deps, &s.program.catalog))
        .collect();
    let classes: Vec<String> = wl
        .sessions
        .iter()
        .map(|s| {
            cqchase_service::session::class_name(&classify(&s.program.deps, &s.program.catalog))
        })
        .collect();
    let summary = |s: usize, e: Expect| CheckSummary {
        contained: e.contained,
        exact: e.exact,
        empty_chase: false,
        class: classes[s].clone(),
        bound: 0,
    };
    let fill: Vec<Pair> = if ctx.hot {
        ctx.expected.keys().copied().collect()
    } else {
        wl.seq[REPLAY_PAIRS * 4..]
            .iter()
            .copied()
            .take(4096)
            .collect()
    };
    for (s, q, qp) in fill {
        let p = &wl.sessions[s].program;
        caches[s].insert(
            fps[s],
            &p.queries[q],
            &p.queries[qp],
            summary(s, ctx.expected[&(s, q, qp)]),
        );
    }

    // `contained` on one pair, in a `core.contained` span.
    let decide = |log: &mut SpanLog, parent: Option<usize>, req: u64, (s, q, qp): Pair| {
        let p = &wl.sessions[s].program;
        log.time("core.contained", parent, req, || {
            contained(
                &p.queries[q],
                &p.queries[qp],
                &p.deps,
                &p.catalog,
                &ContainmentOptions::default(),
            )
        })
        .map_err(|e| e.to_string())
    };
    // replay.check: decode → iso keys → cache probe → (miss) contained
    // → encode, per pair.
    let mut decided = Vec::new();
    for (i, &(s, q, qp)) in pairs.iter().enumerate() {
        let req = i as u64;
        let sess = &wl.sessions[s];
        let p = &sess.program;
        let line = Request::Check {
            session: sess.name.clone(),
            q: p.queries[q].name.clone(),
            q_prime: p.queries[qp].name.clone(),
            deadline_ms: None,
        }
        .to_value()
        .to_string();
        let root = log.open("replay.check", None, req);
        let decoded = log.time("service.proto.decode", Some(root), req, || {
            Request::from_line(&line)
        })?;
        std::hint::black_box(decoded);
        log.time("core.iso_key", Some(root), req, || {
            std::hint::black_box(iso_key(&p.queries[q]))
        });
        log.time("core.iso_key", Some(root), req, || {
            std::hint::black_box(iso_key(&p.queries[qp]))
        });
        let hit = log.time("service.cache.lookup", Some(root), req, || {
            caches[s].lookup(fps[s], &p.queries[q], &p.queries[qp])
        });
        let answer = match hit {
            Some(a) => a,
            None => {
                let a = decide(&mut log, Some(root), req, (s, q, qp))?;
                let e = Expect {
                    contained: a.contained,
                    exact: a.exact,
                    cost_us: 0.0,
                };
                decided.push(((s, q, qp), a));
                summary(s, e)
            }
        };
        let mut resp = cqchase_service::proto::ok_response(cqchase_service::Op::Check);
        answer.write_into(&mut resp);
        let resp = Value::Object(resp);
        log.time("service.proto.encode", Some(root), req, || {
            std::hint::black_box(resp.to_string())
        });
        log.close(root);
    }
    // Encoding of the responses the server actually sent.
    time_encode(&mut log, &ctx.traced.kept, None);
    // Every probe hit (check_hot): decide the replayed pairs directly.
    if decided.is_empty() {
        for (i, &pair) in pairs.iter().enumerate() {
            decided.push((pair, decide(&mut log, None, i as u64, pair)?));
        }
    }
    // The chase and the hom search of each decided pair, separately:
    // expand to the depth its check explored, then one search of that
    // chase.
    for (i, ((s, q, qp), a)) in decided.iter().enumerate() {
        let p = &wl.sessions[*s].program;
        let class = classify(&p.deps, &p.catalog);
        let chase = log.time("core.chase.expand", None, i as u64, || {
            let mut c = Chase::new(&p.queries[*q], &p.deps, &p.catalog, class.preferred_mode());
            c.expand_to_level(a.levels_explored, ContainmentOptions::default().budget.0);
            c
        });
        let found = log.time("core.hom.find", None, i as u64, || {
            ChaseHomFinder::new(&p.queries[*qp])
                .find(chase.state(), a.levels_explored)
                .is_some()
        });
        std::hint::black_box(found);
    }
    let answers: Vec<_> = decided.iter().map(|(_, a)| a).collect();
    let levels_frac: Vec<f64> = answers
        .iter()
        .filter(|a| a.bound > 0)
        .map(|a| f64::from(a.levels_explored) / f64::from(a.bound))
        .collect();
    let conj: Vec<f64> = answers.iter().map(|a| a.chase_conjuncts as f64).collect();
    let steps: Vec<f64> = answers.iter().map(|a| a.chase_steps as f64).collect();

    // par: the replayed pairs as one batch per session, at CONNS threads
    // and at 1.
    let mut t_par = 0.0;
    let mut t_seq = 0.0;
    let mut n_pairs = 0usize;
    for (s, sess) in wl.sessions.iter().enumerate() {
        let batch: Vec<ContainmentPair> = pairs
            .iter()
            .filter(|p| p.0 == s)
            .map(|&(_, q, q_prime)| ContainmentPair { q, q_prime })
            .collect();
        if batch.is_empty() {
            continue;
        }
        let p = &sess.program;
        let run = |threads: usize| {
            let t0 = Instant::now();
            let r = cqchase_par::check_batch(
                &p.queries,
                &batch,
                &p.deps,
                &p.catalog,
                &ContainmentOptions::default(),
                BatchOptions {
                    threads,
                    chunk: None,
                },
            );
            std::hint::black_box(r);
            t0.elapsed().as_secs_f64()
        };
        t_seq += run(1);
        t_par += run(crate::CONNS);
        n_pairs += batch.len();
    }
    set(
        &mut m,
        "par.check_batch_pairs_per_s",
        ratio(n_pairs as f64, t_par),
    );
    set(&mut m, "par.speedup", ratio(t_seq, t_par));

    let sum = summarize(&log.spans);
    set(
        &mut m,
        "service.proto.decode_us",
        mean_of(&sum, "service.proto.decode"),
    );
    set(
        &mut m,
        "service.proto.encode_us",
        mean_of(&sum, "service.proto.encode"),
    );
    set(&mut m, "core.iso_key_us", mean_of(&sum, "core.iso_key"));
    set(
        &mut m,
        "service.cache.lookup_us",
        mean_of(&sum, "service.cache.lookup"),
    );
    set(&mut m, "core.contained_us", mean_of(&sum, "core.contained"));
    set(
        &mut m,
        "core.chase.expand_us",
        mean_of(&sum, "core.chase.expand"),
    );
    set(&mut m, "core.hom.find_us", mean_of(&sum, "core.hom.find"));
    set(&mut m, "core.chase.conjuncts", mean(&conj));
    set(&mut m, "core.chase.steps", mean(&steps));
    set(&mut m, "core.levels_explored_frac", mean(&levels_frac));
    set(
        &mut m,
        "replay.check.self_us",
        self_of(&sum, "replay.check"),
    );
    set(
        &mut m,
        "replay.register.self_s",
        self_of(&sum, "replay.register") / 1e6,
    );
    finish(&log, out_dir, workload, seed, &[ctx.traced])?;
    out.extend(m);
    Ok(())
}

/// Inputs of a traced `eval_update` run.
pub struct EvalCtx<'a> {
    /// The workload.
    pub wl: &'a EvalWorkload,
    /// `trace.overhead_frac`: the traced half's eval p50 over the
    /// untraced half's, less one (both per query, averaged over the pool).
    pub overhead_frac: f64,
    /// The reader's traced half.
    pub reads: &'a ConnRun,
    /// The writer's traced half.
    pub writes: &'a ConnRun,
    /// The writer over both halves (update latency needs the samples).
    pub all_writes: &'a ConnRun,
    /// `stats` before the traced half.
    pub before: &'a Value,
    /// `stats` after the traced half.
    pub after: &'a Value,
}

/// The per-layer metrics of `eval_update`.
pub fn eval_layers(
    ctx: &EvalCtx,
    tracer: &Tracer,
    out_dir: &Path,
    workload: &str,
    seed: u64,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut m = zeroed();
    let wl = ctx.wl;
    stats_layers(&mut m, ctx.before, ctx.after);
    set(
        &mut m,
        "loadgen.late_p99_us",
        percentile(&ctx.reads.late_us, 99.0),
    );
    set(
        &mut m,
        "service.wire_us",
        wire_us(ctx.reads, "eval", ctx.before, ctx.after),
    );
    set(&mut m, "trace.overhead_frac", ctx.overhead_frac);
    set(
        &mut m,
        "service.eval_cache.hit_rate",
        ratio(ctx.reads.cached as f64, ctx.reads.lat_us.len() as f64),
    );
    set(
        &mut m,
        "service.update_p50_us",
        median(&ctx.all_writes.lat_us),
    );
    set(
        &mut m,
        "service.update_p99_us",
        crate::block_p99(ctx.all_writes).map_or(0.0, |b| b.0),
    );
    set(
        &mut m,
        "durability.wal_bytes_per_update",
        ratio(
            delta(ctx.before, ctx.after, "durability.wal_bytes"),
            ctx.writes.lat_us.len() as f64,
        ),
    );

    let mut log = SpanLog::new(tracer);
    replay_register(&mut log, &[("live", wl.src.as_str())])?;
    register_metrics(&mut m, &log);

    let db = cqchase_storage::Database::from_facts(&wl.program.catalog, &wl.program.facts)
        .map_err(|e| e.to_string())?;
    let mut idx = DbIndex::build(&db);

    // Plan compilation, cold, per read query.
    for (i, q) in wl.program.queries.iter().enumerate() {
        let c = log.time("index.compile", None, i as u64, || compile(q, &idx));
        std::hint::black_box(c);
    }
    // replay.eval: decode → evaluate with a warm plan cache → encode.
    let mut cache = PlanCache::new();
    let mut scratch = JoinScratch::new();
    let (mut cands, mut rows_out) = (0u64, 0u64);
    for (i, q) in wl
        .program
        .queries
        .iter()
        .cycle()
        .take(wl.program.queries.len() * 4)
        .enumerate()
    {
        let req = i as u64;
        let line = Request::Eval {
            session: "live".into(),
            query: q.name.clone(),
            deadline_ms: None,
        }
        .to_value()
        .to_string();
        let root = log.open("replay.eval", None, req);
        let d = log.time("service.proto.decode", Some(root), req, || {
            Request::from_line(&line)
        })?;
        std::hint::black_box(d);
        let before = scratch.exec().candidates_scanned;
        let rows = log.time("storage.eval", Some(root), req, || {
            evaluate_indexed_with(q, &idx, &mut cache, &mut scratch)
        });
        cands += scratch.exec().candidates_scanned - before;
        rows_out += rows.len() as u64;
        let resp = rows_to_value(&rows);
        log.time("service.proto.encode", Some(root), req, || {
            std::hint::black_box(resp.to_string())
        });
        log.close(root);
    }
    set(
        &mut m,
        "index.candidates_per_row",
        ratio(cands as f64, rows_out as f64),
    );

    // replay.update: decode → index maintenance per delta.
    let rel = wl.program.catalog.resolve("E").expect("schema has E");
    let tuple = |(a, b): Edge| -> Vec<DbValue> { vec![DbValue::int(a), DbValue::int(b)] };
    for k in 0..REPLAY_UPDATES {
        let req = k as u64;
        let (ins, del) = wl.update(k);
        let spec = |es: &[Edge]| -> Vec<(String, Vec<Constant>)> {
            es.iter()
                .map(|&(a, b)| ("E".to_owned(), vec![Constant::Int(a), Constant::Int(b)]))
                .collect()
        };
        let line = Request::Update {
            session: "live".into(),
            insert: spec(ins),
            delete: spec(del),
            deadline_ms: None,
        }
        .to_value()
        .to_string();
        let root = log.open("replay.update", None, req);
        let d = log.time("service.proto.decode", Some(root), req, || {
            Request::from_line(&line)
        })?;
        std::hint::black_box(d);
        for &e in del {
            let t = tuple(e);
            log.time("storage.index_update", Some(root), req, || {
                idx.note_remove(rel, &t)
            });
        }
        for &e in ins {
            let t = tuple(e);
            log.time("storage.index_update", Some(root), req, || {
                idx.note_insert(rel, &t)
            });
        }
        log.close(root);
    }
    time_encode(&mut log, &ctx.reads.kept, None);
    time_encode(&mut log, &ctx.writes.kept, None);

    let sum = summarize(&log.spans);
    set(
        &mut m,
        "service.proto.decode_us",
        mean_of(&sum, "service.proto.decode"),
    );
    set(
        &mut m,
        "service.proto.encode_us",
        mean_of(&sum, "service.proto.encode"),
    );
    set(&mut m, "index.compile_us", mean_of(&sum, "index.compile"));
    set(&mut m, "storage.eval_us", mean_of(&sum, "storage.eval"));
    set(
        &mut m,
        "storage.index_update_us",
        mean_of(&sum, "storage.index_update"),
    );
    set(&mut m, "replay.eval.self_us", self_of(&sum, "replay.eval"));
    set(
        &mut m,
        "replay.update.self_us",
        self_of(&sum, "replay.update"),
    );
    set(
        &mut m,
        "replay.register.self_s",
        self_of(&sum, "replay.register") / 1e6,
    );
    finish(&log, out_dir, workload, seed, &[ctx.reads, ctx.writes])?;
    out.extend(m);
    Ok(())
}
