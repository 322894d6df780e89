//! The load generator: closed and open loops over the public
//! `cqchase_service::Client`, one thread and one connection each.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cqchase_ir::Constant;
use cqchase_service::{Client, ClientError, FactSpec};
use serde_json::Value;

use crate::gen::{CheckWorkload, Edge, EvalWorkload, Pair};
use crate::trace::{Span, Tracer};

/// Responses kept per connection for the encode-cost replay.
const KEEP_RESPONSES: usize = 512;

/// The library's answer for one pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    /// `Σ ⊨ Q ⊆∞ Q′`.
    pub contained: bool,
    /// Whether the answer is certified.
    pub exact: bool,
    /// How long the library took to decide it, µs.
    pub cost_us: f64,
}

/// What one connection observed in one phase.
#[derive(Default)]
pub struct ConnRun {
    /// Client-observed latency per completed request, µs.
    pub lat_us: Vec<f64>,
    /// When each of those requests completed (aligned with `lat_us`).
    pub done: Vec<Instant>,
    /// How late each open-loop request left, µs.
    pub late_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were refused or hit a transport error.
    pub failed: u64,
    /// Answers that differ from the library's.
    pub mismatches: Vec<String>,
    /// Responses answered from the server's cache.
    pub cached: u64,
    /// Positive containment answers.
    pub positives: u64,
    /// A few received response objects.
    pub kept: Vec<Value>,
    /// Per-request spans (traced runs only).
    pub spans: Vec<Span>,
}

impl ConnRun {
    /// Folds another connection's observations into this one.
    pub fn merge(&mut self, o: ConnRun) {
        self.lat_us.extend(o.lat_us);
        self.done.extend(o.done);
        self.late_us.extend(o.late_us);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches.extend(o.mismatches);
        self.cached += o.cached;
        self.positives += o.positives;
        self.kept.extend(o.kept);
        self.spans.extend(o.spans);
    }
}

/// The open-loop schedule of one connection: request `i` is due at
/// `start + i·period` and is timed from then, whatever delayed it: an
/// earlier answer still awaited, or the load generator waking late. The
/// schedule never moves, so requests that fell due during a stall leave
/// back to back. How late each request left is kept apart, as
/// `late_us` (reported as `loadgen.late_p99_us`).
pub struct Pacer {
    start: Instant,
    period: Duration,
    i: u32,
}

impl Pacer {
    /// A schedule starting at `start`.
    pub fn new(start: Instant, period: Duration) -> Pacer {
        Pacer {
            start,
            period,
            i: 0,
        }
    }

    /// Waits for the next request and returns its due time, or `None`
    /// once the next one is due at or after `stop`.
    pub fn next(&mut self, stop: Instant) -> Option<Instant> {
        let due = self.start + self.period * self.i;
        if due >= stop {
            return None;
        }
        self.i += 1;
        let now = Instant::now();
        if due > now {
            // Sleep: spinning would take the cores the server needs.
            std::thread::sleep(due - now);
        }
        Some(due)
    }
}

fn is_transport(e: &ClientError) -> bool {
    !matches!(e, ClientError::Server(_))
}

/// Whether a `check` response carries the library's answer.
pub fn same_answer(v: &Value, want: &Expect) -> bool {
    (v["contained"].as_bool(), v["exact"].as_bool()) == (Some(want.contained), Some(want.exact))
}

/// Drives `check` requests from one connection until `stop`, walking
/// the pair sequence from `*cursor` in steps of `stride`: on `pacer`'s
/// schedule (open loop), or each as soon as the previous answer arrived
/// and timed from its send (closed loop, `None`).
#[allow(clippy::too_many_arguments)]
pub fn check_conn(
    addr: SocketAddr,
    wl: &CheckWorkload,
    expected: &HashMap<Pair, Expect>,
    cursor: &mut usize,
    stride: usize,
    mut pacer: Option<Pacer>,
    stop: Instant,
    tracer: Option<&Tracer>,
) -> Result<ConnRun, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut run = ConnRun::default();
    loop {
        let due = match pacer.as_mut() {
            None if Instant::now() >= stop => break,
            None => None,
            Some(p) => match p.next(stop) {
                None => break,
                due => due,
            },
        };
        let (s, q, qp) = wl.seq[*cursor % wl.seq.len()];
        *cursor += stride;
        let sess = &wl.sessions[s];
        let t0 = Instant::now();
        let res = client.check(
            &sess.name,
            &sess.program.queries[q].name,
            &sess.program.queries[qp].name,
        );
        let t1 = Instant::now();
        run.attempted += 1;
        let origin = due.unwrap_or(t0);
        if let Some(d) = due {
            run.late_us
                .push(t0.saturating_duration_since(d).as_secs_f64() * 1e6);
        }
        if let Some(t) = tracer {
            run.spans
                .push(t.span("loadgen.check", t0, t1, None, run.attempted));
        }
        match res {
            Ok(v) => {
                run.lat_us.push((t1 - origin).as_secs_f64() * 1e6);
                run.done.push(t1);
                let want = expected[&(s, q, qp)];
                if !same_answer(&v, &want) {
                    run.mismatches.push(format!(
                        "check {}:{q} ⊆ {qp}: server {v}, library {want:?}",
                        sess.name
                    ));
                }
                run.positives += u64::from(want.contained);
                run.cached += u64::from(v["cached"] == true);
                if run.kept.len() < KEEP_RESPONSES {
                    run.kept.push(v);
                }
            }
            Err(e) => {
                run.failed += 1;
                if is_transport(&e) {
                    client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                }
            }
        }
    }
    Ok(run)
}

/// One acknowledged-window record of an `eval` response.
pub struct EvalRec {
    /// Index into the read pool.
    pub query: usize,
    /// Updates acknowledged before the request left.
    pub lo: usize,
    /// Updates sent before the answer arrived.
    pub hi: usize,
    /// Fingerprint of the returned rows.
    pub rows: u64,
}

/// What the `eval_update` phase observed.
#[derive(Default)]
pub struct EvalUpdateRun {
    /// The reader's eval latencies and counters.
    pub reads: ConnRun,
    /// The writer's update latencies and counters.
    pub writes: ConnRun,
    /// One record per successful eval.
    pub recs: Vec<EvalRec>,
    /// Whether update `k` was acknowledged (applied).
    pub applied: Vec<bool>,
}

/// Fingerprint of an eval answer: its rows in order, each value as the
/// server renders it.
pub fn rows_fingerprint<'a>(rows: impl Iterator<Item = Vec<&'a str>>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut n = 0usize;
    for row in rows {
        row.hash(&mut h);
        n += 1;
    }
    n.hash(&mut h);
    h.finish()
}

fn specs(edges: &[Edge]) -> Vec<FactSpec> {
    edges
        .iter()
        .map(|&(a, b)| ("E".to_owned(), vec![Constant::Int(a), Constant::Int(b)]))
        .collect()
}

/// Runs the writer (updates over the sliding window, from update
/// `*next_update`, one every [`crate::gen::UPDATE_PERIOD`]) and the
/// reader (evals over the pool, from `*next_read`, one every
/// [`crate::gen::READ_PERIOD`]) side by side until `stop`, each on an
/// open-loop schedule and timed from when each request was due.
#[allow(clippy::too_many_arguments)]
pub fn eval_update_phase(
    addr: SocketAddr,
    wl: &EvalWorkload,
    read_order: &[usize],
    next_update: &mut usize,
    next_read: &mut usize,
    stop: Instant,
    tracer: Option<&Tracer>,
) -> Result<EvalUpdateRun, String> {
    let sent = AtomicUsize::new(*next_update);
    let acked = AtomicUsize::new(*next_update);
    let first_update = *next_update;
    let first_read = *next_read;
    let (writer, reader) = std::thread::scope(|sc| {
        let sent = &sent;
        let acked = &acked;
        let w = sc.spawn(move || -> Result<(ConnRun, Vec<bool>), String> {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut run = ConnRun::default();
            let mut applied = Vec::new();
            let mut k = first_update;
            let mut pacer = Pacer::new(Instant::now(), crate::gen::UPDATE_PERIOD);
            while let Some(due) = pacer.next(stop) {
                if k >= crate::gen::MAX_UPDATES {
                    return Err("edge stream exhausted: raise MAX_UPDATES".into());
                }
                let (ins, del) = wl.update(k);
                let (ins, del) = (specs(ins), specs(del));
                sent.store(k + 1, Ordering::SeqCst);
                let t0 = Instant::now();
                let res = client.update("live", &ins, &del);
                let t1 = Instant::now();
                run.attempted += 1;
                run.late_us
                    .push(t0.saturating_duration_since(due).as_secs_f64() * 1e6);
                if let Some(t) = tracer {
                    run.spans
                        .push(t.span("loadgen.update", t0, t1, None, run.attempted));
                }
                match res {
                    Ok(v) => {
                        run.lat_us.push((t1 - due).as_secs_f64() * 1e6);
                        run.done.push(t1);
                        applied.push(true);
                        acked.store(k + 1, Ordering::SeqCst);
                        if run.kept.len() < KEEP_RESPONSES {
                            run.kept.push(v);
                        }
                    }
                    Err(e) => {
                        // An update is all-or-nothing: a refused one is
                        // not applied. A transport error leaves it
                        // unknown, which the reader cannot verify past.
                        run.failed += 1;
                        applied.push(false);
                        if is_transport(&e) {
                            return Err(format!("update transport error: {e}"));
                        }
                        acked.store(k + 1, Ordering::SeqCst);
                    }
                }
                k += 1;
            }
            Ok((run, applied))
        });
        let r = sc.spawn(move || -> Result<(ConnRun, Vec<EvalRec>, usize), String> {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut run = ConnRun::default();
            let mut recs = Vec::new();
            let mut i = first_read;
            let mut pacer = Pacer::new(Instant::now(), crate::gen::READ_PERIOD);
            while let Some(due) = pacer.next(stop) {
                let query = read_order[i % read_order.len()];
                i += 1;
                let lo = acked.load(Ordering::SeqCst);
                let t0 = Instant::now();
                let res = client.eval("live", &wl.reads[query]);
                let t1 = Instant::now();
                let hi = sent.load(Ordering::SeqCst);
                run.attempted += 1;
                run.late_us
                    .push(t0.saturating_duration_since(due).as_secs_f64() * 1e6);
                if let Some(t) = tracer {
                    run.spans
                        .push(t.span("loadgen.eval", t0, t1, None, run.attempted));
                }
                match res {
                    Ok(v) => {
                        run.lat_us.push((t1 - due).as_secs_f64() * 1e6);
                        run.done.push(t1);
                        run.cached += u64::from(v["cached"] == true);
                        let rows = v["rows"].as_array().cloned().unwrap_or_default();
                        let fp = rows_fingerprint(rows.iter().map(|r| {
                            r.as_array()
                                .map(|a| a.iter().map(|x| x.as_str().unwrap_or("")).collect())
                                .unwrap_or_default()
                        }));
                        if v["count"].as_u64() != Some(rows.len() as u64) {
                            run.mismatches.push(format!(
                                "eval {}: count disagrees with rows",
                                wl.reads[query]
                            ));
                        }
                        recs.push(EvalRec {
                            query,
                            lo,
                            hi,
                            rows: fp,
                        });
                        if run.kept.len() < KEEP_RESPONSES {
                            run.kept.push(v);
                        }
                    }
                    Err(e) => {
                        run.failed += 1;
                        if is_transport(&e) {
                            client =
                                Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                        }
                    }
                }
            }
            Ok((run, recs, i))
        });
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    });
    let (writes, applied) = writer?;
    let (reads, recs, read_end) = reader?;
    *next_update += applied.len();
    *next_read = read_end;
    Ok(EvalUpdateRun {
        reads,
        writes,
        recs,
        applied,
    })
}
