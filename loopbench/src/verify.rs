//! The library's answers, computed in-process, that every server answer
//! is checked against.

use std::collections::{BTreeMap, HashMap, HashSet};

use cqchase_core::{contained, ContainmentOptions};
use cqchase_storage::eval::naive;
use cqchase_storage::{evaluate_indexed, Database, DbIndex, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{CheckWorkload, Edge, EvalWorkload, Pair};
use crate::load::{rows_fingerprint, EvalRec, Expect};

/// `cqchase_core::contained` for every distinct pair of the sequence,
/// on `threads` threads. A pair the library cannot decide is an error:
/// the workload must consist of decidable checks.
pub fn expected_checks(
    wl: &CheckWorkload,
    threads: usize,
) -> Result<HashMap<Pair, Expect>, String> {
    let pairs = wl.distinct_pairs();
    let chunk = pairs.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Result<Vec<(Pair, Expect)>, String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                sc.spawn(move || {
                    part.iter()
                        .map(|&(s, q, qp)| {
                            let p = &wl.sessions[s].program;
                            let t0 = std::time::Instant::now();
                            let a = contained(
                                &p.queries[q],
                                &p.queries[qp],
                                &p.deps,
                                &p.catalog,
                                &ContainmentOptions::default(),
                            )
                            .map_err(|e| {
                                format!(
                                    "library cannot decide {}:{q} ⊆ {qp}: {e}",
                                    wl.sessions[s].name
                                )
                            })?;
                            Ok((
                                (s, q, qp),
                                Expect {
                                    contained: a.contained,
                                    exact: a.exact,
                                    cost_us: t0.elapsed().as_secs_f64() * 1e6,
                                },
                            ))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("answer thread"))
            .collect()
    });
    let mut out = HashMap::with_capacity(pairs.len());
    for p in parts {
        out.extend(p?);
    }
    Ok(out)
}

/// The fingerprint of locally evaluated rows, rendered as the server
/// renders them.
fn fingerprint(rows: &[Vec<Value>]) -> u64 {
    let strs: Vec<Vec<String>> = rows
        .iter()
        .map(|t| t.iter().map(|v| v.to_string()).collect())
        .collect();
    rows_fingerprint(
        strs.iter()
            .map(|row| row.iter().map(String::as_str).collect()),
    )
}

/// Whether a state after `r.lo` and up to `r.hi` gives `r`'s rows (an
/// eval that ran after an update it overlapped).
fn later_state_matches(
    wl: &EvalWorkload,
    at_lo: &Database,
    r: &EvalRec,
    apply: &impl Fn(&mut Database, usize),
) -> bool {
    let mut db = at_lo.clone();
    for k in r.lo..r.hi {
        apply(&mut db, k);
        let rows = evaluate_indexed(&wl.program.queries[r.query], &DbIndex::build(&db));
        if fingerprint(&rows) == r.rows {
            return true;
        }
    }
    false
}

fn tuple_of(edge: Edge) -> Vec<Value> {
    vec![Value::int(edge.0), Value::int(edge.1)]
}

/// Records per run also checked with the scan-based evaluator.
const NAIVE_SAMPLE: usize = 16;

/// Checks every eval record against `cqchase_storage`'s evaluation on a
/// local replica that applies the same acknowledged updates: a record
/// is correct when it equals the answer at some state between the
/// updates acknowledged before it was sent and those sent before its
/// answer arrived. Each state's index is built from scratch from the
/// replica (the reference path, independent of the server's
/// incremental maintenance). That reference shares its planner and join
/// engine with the server, so a sample of [`NAIVE_SAMPLE`] records,
/// drawn with `seed` from those no update overlapped, must also equal
/// the scan-based `cqchase_storage::eval::naive::evaluate` of their
/// state. Returns the mismatches.
pub fn check_evals(
    wl: &EvalWorkload,
    applied: &[bool],
    recs: &[EvalRec],
    seed: u64,
    threads: usize,
) -> Vec<String> {
    let rel = wl.program.catalog.resolve("E").expect("schema has E");
    // Records by the first state they may match.
    let mut by_lo: BTreeMap<usize, Vec<(usize, &EvalRec)>> = BTreeMap::new();
    for (i, r) in recs.iter().enumerate() {
        by_lo.entry(r.lo).or_default().push((i, r));
    }
    let sample: HashSet<usize> = {
        let single: Vec<usize> = (0..recs.len())
            .filter(|&i| recs[i].lo == recs[i].hi)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e61_6976);
        let mut pick = HashSet::new();
        while pick.len() < NAIVE_SAMPLE.min(single.len()) {
            pick.insert(single[rng.gen_range(0..single.len())]);
        }
        pick
    };
    eprintln!(
        "  {} sampled evals also checked with the scan-based evaluator",
        sample.len()
    );
    let los: Vec<usize> = by_lo.keys().copied().collect();
    let chunk = los.len().div_ceil(threads.max(1)).max(1);
    let apply = |db: &mut Database, k: usize| {
        if applied.get(k) == Some(&true) {
            let (ins, del) = wl.update(k);
            for &e in del {
                db.remove(rel, &tuple_of(e)).expect("arity matches");
            }
            for &e in ins {
                db.insert(rel, tuple_of(e)).expect("arity matches");
            }
        }
    };
    std::thread::scope(|sc| {
        let handles: Vec<_> = los
            .chunks(chunk)
            .map(|part| {
                let by_lo = &by_lo;
                let apply = &apply;
                let sample = &sample;
                sc.spawn(move || {
                    let mut bad = Vec::new();
                    let mut db = Database::from_facts(&wl.program.catalog, &wl.program.facts).expect("facts load");
                    let mut state = 0usize;
                    for &lo in part {
                        while state < lo {
                            apply(&mut db, state);
                            state += 1;
                        }
                        let idx = DbIndex::build(&db);
                        let mut memo: HashMap<usize, u64> = HashMap::new();
                        for &(i, r) in &by_lo[&lo] {
                            let q = &wl.program.queries[r.query];
                            if sample.contains(&i) && fingerprint(&naive::evaluate(q, &db)) != r.rows {
                                bad.push(format!(
                                    "eval {} after update {}: the scan-based evaluator disagrees with the server",
                                    wl.reads[r.query], r.lo
                                ));
                                continue;
                            }
                            let fp = *memo
                                .entry(r.query)
                                .or_insert_with(|| fingerprint(&evaluate_indexed(q, &idx)));
                            if fp == r.rows || later_state_matches(wl, &db, r, &apply) {
                                continue;
                            }
                            bad.push(format!(
                                "eval {} between updates {}..={}: no replica state gives the server's rows",
                                wl.reads[r.query], r.lo, r.hi
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread"))
            .collect()
    })
}
