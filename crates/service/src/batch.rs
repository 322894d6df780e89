//! The admission/batching queue: concurrent requests coalesce into
//! batches that run through `cqchase-par`'s batch engines.
//!
//! Connection threads do not run containment or evaluation themselves.
//! They [`submit`](Batcher::submit) work and block on a result channel;
//! a submitter that finds no batch in flight becomes the **leader**,
//! drains everything queued, runs it as one batch, and answers every
//! waiter (admission windows form naturally under load: requests
//! arriving while a batch runs ride the next one). A leader leads one
//! round — the one that answers its own item — and then **hands off**:
//! if work queued meanwhile, the submitter of the oldest queued item is
//! woken on its own result channel and leads the next batch on its own
//! thread, so no client waits on other clients' rounds before its
//! reply. Every queued item thus has a running leader or a promoted
//! waiter, and waiters simply block; a leader that panics disconnects
//! its waiters instead of wedging the queue ([`LeaderGuard`]). This
//! shape gives three things a thread-per-request design cannot:
//!
//! * **chase sharing** — checks with the same left query in one batch
//!   reuse one chase (the batch engines' contract);
//! * **coalescing** — identical in-flight requests (same session, same
//!   query indices) run once and fan the answer out;
//! * **bounded compute concurrency** — one batch runs at a time, on
//!   [`check_batch`](cqchase_par::check_batch)'s worker threads, no
//!   matter how many connections are open.
//!
//! The semantic cache is consulted *before* enqueueing (a hit never
//! touches the queue) and filled by the leader after computing, so
//! every isomorphism class is computed at most once per cache
//! residency.
//!
//! Updates are **per-session barriers** ([`BarrierMode::PerSession`]):
//! a drained batch is partitioned into per-session lanes, an update
//! only fences work on its own session, and adjacent same-session
//! updates coalesce into one write-lock acquisition — see
//! [`Work::Update`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cqchase_core::{ContainmentEngineError, ContainmentPair};
use cqchase_index::{CancelToken, FxHashMap};
use cqchase_obs::{SpanKind, Tracer};
use cqchase_par::BatchOptions;
use cqchase_storage::Tuple;
use serde_json::Value;

use crate::durable::Durability;
use crate::metrics::Metrics;
use crate::proto::CheckSummary;
use crate::session::Session;

/// Per-request join annotations parked by the batch layer for the
/// slow-query logger, keyed by trace id. The connection handler removes
/// its request's entry after every traced request (slow or not), so
/// residency is bounded by in-flight traced requests.
pub type TraceAnnotations = Mutex<FxHashMap<u64, Value>>;

/// One unit of submitted work.
#[derive(Debug, Clone)]
pub enum Work {
    /// `Σ ⊨ queries[q] ⊆∞ queries[q_prime]` in `session`.
    Check {
        /// The session the queries are registered in.
        session: Arc<Session>,
        /// Contained-side query index.
        q: usize,
        /// Containing-side query index.
        q_prime: usize,
    },
    /// Evaluate `queries[q]` over `session`'s facts.
    Eval {
        /// The session the query is registered in.
        session: Arc<Session>,
        /// Query index.
        q: usize,
    },
    /// Apply fact deltas to `session`'s live facts.
    ///
    /// Updates are **per-session epoch barriers** in the queue: within
    /// one drained batch, same-session work submitted before the update
    /// runs (and answers) against the old facts, then the update
    /// applies under the facts write lock, then the same-session
    /// remainder runs against the new facts. Work on *other* sessions
    /// (distinct `Arc<Session>` identities) is unaffected — cross-
    /// session ordering is unobservable, so an update to session A
    /// never splits session B's segment. Adjacent same-session updates
    /// in one drained batch **coalesce** into a single write-lock
    /// acquisition and one epoch bump
    /// ([`Session::apply_updates`]), each waiter still receiving its
    /// own per-delta summary. An update never executes concurrently
    /// with batch compute.
    Update {
        /// The session whose facts change.
        session: Arc<Session>,
        /// Facts to insert.
        insert: Vec<crate::proto::FactSpec>,
        /// Facts to delete (applied before the inserts).
        delete: Vec<crate::proto::FactSpec>,
    },
}

/// The answer to one unit of work.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A containment answer (or a per-pair engine error).
    Check {
        /// The decision fields, or the engine error message.
        summary: Result<CheckSummary, String>,
        /// Answered from the semantic cache without computing.
        cached: bool,
        /// Answered by riding an identical in-flight request.
        coalesced: bool,
    },
    /// Evaluation rows (sorted, deterministic).
    Eval {
        /// The result tuples.
        rows: Vec<Tuple>,
        /// Served from the session's epoch-tagged result cache.
        cached: bool,
        /// Answered by riding an identical in-flight request.
        coalesced: bool,
    },
    /// What an update did (or the validation error message).
    Update(Result<crate::session::UpdateSummary, String>),
    /// The work was cancelled instead of answered: refused already
    /// expired at leader pickup, cancelled mid-run by deadline expiry,
    /// or abandoned because its client disconnected. Updates are only
    /// ever cancelled *before* their commit point (validation +
    /// WAL fsync), so a cancelled update left the session bit-identical
    /// to never having submitted it.
    Cancelled {
        /// `true` when the client disconnected; `false` for deadline
        /// expiry.
        disconnect: bool,
        /// Human-readable partial-progress detail (e.g. the chase level
        /// a cancelled check had explored).
        detail: String,
    },
}

/// What a waiter receives on its result channel: its answer or, while
/// its item is still queued, the hand-off that makes it the leader. The
/// hand-off never leaves this module.
enum Signal {
    Answer(Outcome),
    Lead,
}

/// The leader's end of one waiter's result channel.
struct Reply(Sender<Signal>);

impl Reply {
    /// Delivers the waiter's answer. A waiter that hung up (its
    /// connection died) is not an error worth surfacing.
    fn send(&self, outcome: Outcome) {
        let _ = self.0.send(Signal::Answer(outcome));
    }

    /// Wakes the waiter as the next leader; `false` when it is gone.
    fn promote(&self) -> bool {
        self.0.send(Signal::Lead).is_ok()
    }
}

struct Pending {
    work: Work,
    tx: Reply,
    /// The submitting request's trace id (0 = untraced).
    trace_id: u64,
    /// Enqueue instant, for the always-on queue-wait metric.
    enqueued: Instant,
    /// Enqueue time on the tracer's clock (0 when untraced).
    enqueued_us: u64,
    /// The request's cancellation token (unlimited when the request
    /// carried no deadline and no disconnect watcher). Armed *before*
    /// admission, so queue wait counts against the deadline; a token
    /// found fired at leader pickup refuses the work without running
    /// it.
    cancel: CancelToken,
}

#[derive(Default)]
struct QueueState {
    pending: Vec<Pending>,
    /// Some thread leads: one running a batch, or a waiter the previous
    /// leader promoted, which takes the next batch once it wakes.
    leader_running: bool,
}

impl QueueState {
    /// A submitter's bid for leadership, made in the critical section
    /// that queued its work: taken when work is pending and no leader is
    /// running.
    fn try_lead(&mut self) -> bool {
        let lead = !self.leader_running && !self.pending.is_empty();
        self.leader_running |= lead;
        lead
    }

    /// Ends a leader's turn after the round that answered its own item.
    /// Leadership passes to the submitter of the oldest queued item that
    /// is still waiting; on an empty queue it is released in the same
    /// critical section that saw the queue empty, so work enqueued
    /// afterwards always finds `leader_running == false` and its
    /// submitter leads.
    fn hand_off(&mut self) {
        self.leader_running = self.pending.iter().any(|p| p.tx.promote());
    }
}

/// Unwinding safety for the leader: if `run_batch` panics (an engine
/// invariant violated), the armed guard releases leadership and drops
/// every still-queued sender, so waiters observe a disconnect and fail
/// their one request instead of hanging forever — the queue stays
/// usable for every subsequent request.
struct LeaderGuard<'a> {
    state: &'a Mutex<QueueState>,
    metrics: &'a Metrics,
    lane: usize,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Never panic in a Drop that can run during unwinding: recover
        // the state even from a poisoned lock.
        let orphans = {
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.leader_running = false;
            self.metrics
                .lane(self.lane)
                .queue_depth
                .store(0, Ordering::Relaxed);
            std::mem::take(&mut state.pending)
        };
        // Dropping the orphans' senders disconnects their waiters.
        drop(orphans);
    }
}

/// How update barriers scope within one drained batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierMode {
    /// Updates are barriers only for work on the **same session**
    /// (`Arc::ptr_eq` identity); other sessions' work batches through
    /// unsplit, and adjacent same-session updates coalesce into one
    /// write-lock acquisition and one epoch bump. The production mode.
    #[default]
    PerSession,
    /// Updates are barriers for **everything** in flight, applied one
    /// at a time (the pre-relaxation semantics). Kept as the reference
    /// side of the differential proptests and the churn benchmark —
    /// observably equivalent to [`BarrierMode::PerSession`] except for
    /// raw epoch counters, just slower.
    Global,
}

/// The admission queue. One per lane (a single-lane server has exactly
/// one); see the module docs and [`crate::lanes`].
pub struct Batcher {
    state: Mutex<QueueState>,
    threads: usize,
    metrics: Arc<Metrics>,
    /// Which metrics lane shard this queue feeds (0 for a standalone
    /// queue). Batching counters are recorded twice: once in the
    /// global aggregates, once in this lane's shard.
    lane: usize,
    barrier_mode: BarrierMode,
    /// When set, update batches route through the durability layer —
    /// logged and fsync'd before applying, so no summary is reported
    /// for a change a restart would forget.
    durability: Option<Arc<Durability>>,
    /// The span recorder; disabled by default (a private one-slot
    /// tracer), replaced by the server's via [`Batcher::with_tracing`].
    tracer: Arc<Tracer>,
    /// Join annotations parked for the slow-query logger.
    annotations: Arc<TraceAnnotations>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("threads", &self.threads)
            .field("lane", &self.lane)
            .field("barrier_mode", &self.barrier_mode)
            .field("durable", &self.durability.is_some())
            .finish()
    }
}

impl Batcher {
    /// A queue whose batches run on `threads` worker threads, with
    /// per-session update barriers.
    pub fn new(threads: usize, metrics: Arc<Metrics>) -> Batcher {
        Batcher::with_barrier_mode(threads, metrics, BarrierMode::PerSession)
    }

    /// A queue with an explicit [`BarrierMode`] (differential tests and
    /// the churn benchmark compare the two modes).
    pub fn with_barrier_mode(
        threads: usize,
        metrics: Arc<Metrics>,
        barrier_mode: BarrierMode,
    ) -> Batcher {
        Batcher {
            state: Mutex::new(QueueState::default()),
            threads: threads.max(1),
            metrics,
            lane: 0,
            barrier_mode,
            durability: None,
            tracer: Arc::new(Tracer::new(1)),
            annotations: Arc::new(Mutex::new(FxHashMap::default())),
        }
    }

    /// Assigns this queue to metrics lane shard `lane` (lane-sharded
    /// servers build one `Batcher` per lane). Builder-style.
    pub fn with_lane(mut self, lane: usize) -> Batcher {
        self.lane = lane;
        self
    }

    /// Routes update batches through `durability` (write-ahead logged
    /// and fsync'd before applying). Builder-style, used at server boot.
    pub fn with_durability(mut self, durability: Arc<Durability>) -> Batcher {
        self.durability = Some(durability);
        self
    }

    /// Shares the server's tracer and annotation map with the queue, so
    /// traced requests get admission-wait / batch-drain / cache / join /
    /// fsync spans and join annotations. Builder-style, used at boot.
    pub fn with_tracing(
        mut self,
        tracer: Arc<Tracer>,
        annotations: Arc<TraceAnnotations>,
    ) -> Batcher {
        self.tracer = tracer;
        self.annotations = annotations;
        self
    }

    /// `Some((tracer, ids))` when tracing is on and at least one id in
    /// `ids` is a real trace — the shape the observed downstream calls
    /// take.
    fn trace_ctx<'a>(&'a self, ids: &'a [u64]) -> Option<(&'a Tracer, &'a [u64])> {
        if self.tracer.is_enabled() && ids.iter().any(|&id| id != 0) {
            Some((&self.tracer, ids))
        } else {
            None
        }
    }

    /// The single mutation choke point for both barrier modes: a run of
    /// update deltas applies through the durability layer when one is
    /// configured (log + fsync, *then* apply) and directly otherwise.
    /// `trace_ids` carries the waiters' trace ids (aligned with
    /// `deltas`) so the WAL fsync is recorded as a span on each.
    fn apply_deltas(
        &self,
        session: &Session,
        deltas: &[(Vec<crate::proto::FactSpec>, Vec<crate::proto::FactSpec>)],
        trace_ids: &[u64],
    ) -> Vec<Result<crate::session::UpdateSummary, String>> {
        match &self.durability {
            Some(d) => d.apply_updates_traced(session, deltas, self.trace_ctx(trace_ids)),
            None => session.apply_updates(deltas),
        }
    }

    /// Submits one unit of work and blocks until its outcome is ready.
    ///
    /// Checks are first tried against the session's semantic cache; a
    /// hit returns immediately. Otherwise the work is enqueued, and the
    /// calling thread either leads (no leader was running) or waits
    /// until a leader answers it or hands leadership to it. A leader
    /// runs one batch and then hands off, so its client is never held
    /// back by other clients' requests. Returns `Err` only if a leader
    /// panicked while holding this item (the engine's invariants were
    /// violated); the queue itself recovers — see [`LeaderGuard`].
    pub fn submit(&self, work: Work) -> Result<Outcome, String> {
        self.submit_cancellable(work, 0, CancelToken::unlimited())
    }

    /// [`Batcher::submit`] carrying the request's trace id, so the
    /// semantic-cache probe, admission wait, batch drain, and downstream
    /// eval/fsync sections are recorded as spans when tracing is on.
    pub fn submit_traced(&self, work: Work, trace_id: u64) -> Result<Outcome, String> {
        self.submit_cancellable(work, trace_id, CancelToken::unlimited())
    }

    /// Turns a fired token into the [`Outcome::Cancelled`] it is
    /// answered with, counting it on the resilience metrics (disconnect
    /// vs deadline attribution comes from the token itself).
    fn cancelled_outcome(&self, cancel: &CancelToken, detail: &str) -> Outcome {
        let disconnect = cancel.is_cancelled();
        if disconnect {
            self.metrics
                .cancelled_disconnect
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
        }
        Outcome::Cancelled {
            disconnect,
            detail: detail.into(),
        }
    }

    /// [`Batcher::submit_traced`] under a [`CancelToken`]: the token is
    /// consulted at admission (a fired token is refused before the
    /// cache probe or the queue), at leader pickup (expired work is
    /// never executed), and — for checks and evals — at coalesced
    /// intervals inside the engines. The full request lifecycle path.
    pub fn submit_cancellable(
        &self,
        work: Work,
        trace_id: u64,
        cancel: CancelToken,
    ) -> Result<Outcome, String> {
        // The per-request hot path: same protocol as `submit_many`
        // (probe, enqueue, await) without its per-script vectors.
        if cancel.should_stop() {
            return Ok(self.cancelled_outcome(&cancel, "refused at admission"));
        }
        let tracing = trace_id != 0 && self.tracer.is_enabled();
        let probe_start =
            (tracing && matches!(work, Work::Check { .. })).then(|| self.tracer.now_us());
        let hit = Batcher::try_cache_hit(&work);
        if let Some(start) = probe_start {
            self.tracer.record(
                trace_id,
                SpanKind::SemCacheLookup,
                start,
                self.tracer.now_us(),
            );
        }
        if let Some(outcome) = hit {
            return Ok(outcome);
        }
        let (tx, rx) = channel();
        let enqueued_us = if tracing { self.tracer.now_us() } else { 0 };
        let lead = self.enqueue([Pending {
            work,
            tx: Reply(tx),
            trace_id,
            enqueued: Instant::now(),
            enqueued_us,
            cancel,
        }]);
        self.await_outcome(&rx, lead)
    }

    /// The lane's queue-depth gauge (shedding and `stats` read it).
    fn depth_gauge(&self) -> &AtomicU64 {
        &self.metrics.lane(self.lane).queue_depth
    }

    /// Queues `items` and bids for leadership. The push, the depth gauge
    /// and the bid share one critical section, so the gauge always
    /// equals the queue's length and never counts an item a leader has
    /// already picked up. Returns whether the caller must lead.
    fn enqueue(&self, items: impl IntoIterator<Item = Pending>) -> bool {
        let mut state = self.state.lock().expect("queue lock");
        state.pending.extend(items);
        self.depth_gauge()
            .store(state.pending.len() as u64, Ordering::Relaxed);
        state.try_lead()
    }

    /// Blocks until `rx` delivers the answer, leading one batch first
    /// when `lead` is set and again whenever a leader hands off to this
    /// waiter. The wait half of `submit`/`submit_many`.
    fn await_outcome(&self, rx: &Receiver<Signal>, mut lead: bool) -> Result<Outcome, String> {
        loop {
            if lead {
                self.lead();
            }
            match rx.recv() {
                Ok(Signal::Answer(outcome)) => return Ok(outcome),
                Ok(Signal::Lead) => lead = true,
                Err(_) => {
                    return Err(
                        "internal error: the batch leader failed while holding this \
                         request; please retry"
                            .into(),
                    )
                }
            }
        }
    }

    /// The pre-enqueue semantic-cache probe shared by [`Batcher::submit`]
    /// and [`Batcher::submit_many`]: a check whose isomorphism class is
    /// cached is answered without ever touching the queue.
    fn try_cache_hit(work: &Work) -> Option<Outcome> {
        let Work::Check {
            session,
            q,
            q_prime,
        } = work
        else {
            return None;
        };
        let hit = {
            let mut cache = session.sem_cache.lock().expect("semantic cache lock");
            cache.lookup(
                session.sigma_fp(),
                session.query(*q),
                session.query(*q_prime),
            )
        };
        hit.map(|summary| Outcome::Check {
            summary: Ok(summary),
            cached: true,
            coalesced: false,
        })
    }

    /// Submits a whole script of work as **one enqueued batch** and
    /// blocks until every outcome is ready, returned in submission
    /// order.
    ///
    /// All items land in the queue under a single lock acquisition, so
    /// a quiescent queue drains them as one batch — the deterministic
    /// way to exercise segment splitting, update-run coalescing, and
    /// in-batch coalescing that concurrent `submit` calls only produce
    /// probabilistically. Semantic-cache hits short-circuit exactly as
    /// in [`Batcher::submit`]. Used by the differential proptests and
    /// the churn benchmark; servers use `submit`.
    pub fn submit_many(&self, works: Vec<Work>) -> Vec<Result<Outcome, String>> {
        let works = works
            .into_iter()
            .map(|w| (w, CancelToken::unlimited()))
            .collect();
        self.submit_many_cancellable(works)
    }

    /// [`Batcher::submit_many`] with one [`CancelToken`] per item — the
    /// differential cancellation proptest's entry point. An item whose
    /// token is already fired at submission is answered
    /// [`Outcome::Cancelled`] without probing the cache or touching the
    /// queue; the rest land in the queue as one batch exactly as in
    /// `submit_many`.
    pub fn submit_many_cancellable(
        &self,
        works: Vec<(Work, CancelToken)>,
    ) -> Vec<Result<Outcome, String>> {
        enum Slot {
            Ready(Outcome),
            Wait(Receiver<Signal>),
        }
        // Cache probes run BEFORE the queue lock (they take per-session
        // mutexes and do isomorphism lookups — too slow for the global
        // critical section, which must stay at plain Vec pushes).
        let mut slots = Vec::with_capacity(works.len());
        let mut queued = Vec::new();
        for (work, cancel) in works {
            if cancel.should_stop() {
                slots.push(Slot::Ready(
                    self.cancelled_outcome(&cancel, "refused at admission"),
                ));
            } else if let Some(outcome) = Batcher::try_cache_hit(&work) {
                slots.push(Slot::Ready(outcome));
            } else {
                let (tx, rx) = channel();
                queued.push(Pending {
                    work,
                    tx: Reply(tx),
                    trace_id: 0,
                    enqueued: Instant::now(),
                    enqueued_us: 0,
                    cancel,
                });
                slots.push(Slot::Wait(rx));
            }
        }
        // Only the first wait can lead from the bid: a leader's batch
        // holds every item of the script, so it answers them all.
        let mut lead = self.enqueue(queued);
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(outcome) => Ok(outcome),
                Slot::Wait(rx) => self.await_outcome(&rx, std::mem::take(&mut lead)),
            })
            .collect()
    }

    /// Leads one round: takes everything queued (the leader's own item
    /// included), runs it as one batch, then hands off to the oldest
    /// still-queued submitter or releases leadership on an empty queue.
    fn lead(&self) {
        let mut guard = LeaderGuard {
            state: &self.state,
            metrics: &self.metrics,
            lane: self.lane,
            armed: true,
        };
        let batch = {
            let mut state = self.state.lock().expect("queue lock");
            self.depth_gauge().store(0, Ordering::Relaxed);
            std::mem::take(&mut state.pending)
        };
        // Queue-wait accounting happens at leader pickup: the
        // always-on metric uses the wall clock carried by each item;
        // traced items additionally get an admission-wait span and,
        // after the batch runs, a batch-drain span.
        let pickup_us = if self.tracer.is_enabled() {
            self.tracer.now_us()
        } else {
            0
        };
        let mut traced: Vec<u64> = Vec::new();
        for p in &batch {
            self.metrics
                .record_lane_queue_wait(self.lane, p.enqueued.elapsed());
            if p.trace_id != 0 && p.enqueued_us != 0 {
                self.tracer.record(
                    p.trace_id,
                    SpanKind::AdmissionWait,
                    p.enqueued_us,
                    pickup_us,
                );
                traced.push(p.trace_id);
            }
        }
        // Work whose token fired while it queued (deadline expired,
        // or its client disconnected) is refused here — never
        // executed. Queue wait counts against the deadline by
        // construction: the token was armed before admission.
        let batch: Vec<Pending> = batch
            .into_iter()
            .filter_map(|p| {
                if p.cancel.should_stop() {
                    let outcome =
                        self.cancelled_outcome(&p.cancel, "expired in the admission queue");
                    p.tx.send(outcome);
                    None
                } else {
                    Some(p)
                }
            })
            .collect();
        self.run_batch(batch);
        if !traced.is_empty() {
            let end_us = self.tracer.now_us();
            for id in traced {
                self.tracer
                    .record(id, SpanKind::BatchDrain, pickup_us, end_us);
            }
        }
        self.state.lock().expect("queue lock").hand_off();
        guard.armed = false;
    }

    /// Runs one drained batch, honoring update barriers at the scope
    /// the [`BarrierMode`] sets.
    ///
    /// **Per-session** (default): the batch is partitioned into
    /// per-session lanes (`Arc::ptr_eq` identity, arrival order
    /// preserved within each lane); inside a lane, updates are barriers
    /// — same-session work before the update answers against the old
    /// facts — and *adjacent* updates coalesce into one
    /// [`Session::apply_updates`] call (one write-lock acquisition, one
    /// epoch bump, per-delta summaries). Lanes never split each other.
    ///
    /// **Global**: the pre-relaxation semantics — items run in arrival
    /// order as maximal update-free segments; every update flushes the
    /// whole segment before it and applies alone.
    fn run_batch(&self, batch: Vec<Pending>) {
        let shard = self.metrics.lane(self.lane);
        self.metrics.batches.fetch_add(1, Ordering::Relaxed);
        shard.batches.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .batched_items
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shard
            .batched_items
            .fetch_add(batch.len() as u64, Ordering::Relaxed);

        match self.barrier_mode {
            BarrierMode::Global => {
                let mut segment: Vec<Pending> = Vec::new();
                for p in batch {
                    let trace_id = p.trace_id;
                    if let Work::Update {
                        session,
                        insert,
                        delete,
                    } = p.work
                    {
                        if !segment.is_empty() {
                            self.metrics.barrier_flushes.fetch_add(1, Ordering::Relaxed);
                            shard.barrier_flushes.fetch_add(1, Ordering::Relaxed);
                        }
                        self.run_segment(std::mem::take(&mut segment));
                        if p.cancel.should_stop() {
                            let outcome = self.cancelled_outcome(
                                &p.cancel,
                                "update refused before its commit point",
                            );
                            p.tx.send(outcome);
                            continue;
                        }
                        let result = self
                            .apply_deltas(&session, &[(insert, delete)], &[trace_id])
                            .pop()
                            .expect("one delta in, one summary out");
                        p.tx.send(Outcome::Update(result));
                    } else {
                        segment.push(p);
                    }
                }
                self.run_segment(segment);
            }
            BarrierMode::PerSession => {
                let mut lanes: Vec<(Arc<Session>, Vec<Pending>)> = Vec::new();
                for p in batch {
                    let session = match &p.work {
                        Work::Check { session, .. }
                        | Work::Eval { session, .. }
                        | Work::Update { session, .. } => Arc::clone(session),
                    };
                    match lanes.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &session)) {
                        Some((_, lane)) => lane.push(p),
                        None => lanes.push((session, vec![p])),
                    }
                }
                for (session, lane) in lanes {
                    self.run_lane(&session, lane);
                }
            }
        }
    }

    /// Runs one session's lane of a drained batch: maximal update-free
    /// segments alternate with **runs of adjacent updates**; each run
    /// applies through one [`Session::apply_updates`] call.
    fn run_lane(&self, session: &Arc<Session>, lane: Vec<Pending>) {
        let shard = self.metrics.lane(self.lane);
        let mut segment: Vec<Pending> = Vec::new();
        let mut updates: Vec<(Vec<crate::proto::FactSpec>, Vec<crate::proto::FactSpec>)> =
            Vec::new();
        let mut update_txs: Vec<Reply> = Vec::new();
        let mut update_ids: Vec<u64> = Vec::new();
        let mut update_cancels: Vec<CancelToken> = Vec::new();
        type Deltas = Vec<(Vec<crate::proto::FactSpec>, Vec<crate::proto::FactSpec>)>;
        let flush_updates = |updates: &mut Deltas,
                             update_txs: &mut Vec<Reply>,
                             update_ids: &mut Vec<u64>,
                             update_cancels: &mut Vec<CancelToken>| {
            if updates.is_empty() {
                return;
            }
            // Last pre-commit token check: a delta whose token fired
            // between pickup and here is excluded before anything is
            // WAL-logged or applied, so a cancelled update is
            // indistinguishable from one never submitted. Past this
            // point the run is committed — cancellation never bisects
            // an update.
            let mut deltas: Deltas = Vec::with_capacity(updates.len());
            let mut txs: Vec<Reply> = Vec::with_capacity(update_txs.len());
            let mut ids: Vec<u64> = Vec::with_capacity(update_ids.len());
            for ((delta, tx), (id, cancel)) in updates
                .drain(..)
                .zip(update_txs.drain(..))
                .zip(update_ids.drain(..).zip(update_cancels.drain(..)))
            {
                if cancel.should_stop() {
                    let outcome =
                        self.cancelled_outcome(&cancel, "update refused before its commit point");
                    tx.send(outcome);
                } else {
                    deltas.push(delta);
                    txs.push(tx);
                    ids.push(id);
                }
            }
            if deltas.is_empty() {
                return;
            }
            if deltas.len() > 1 {
                self.metrics
                    .updates_coalesced
                    .fetch_add(deltas.len() as u64 - 1, Ordering::Relaxed);
                shard
                    .updates_coalesced
                    .fetch_add(deltas.len() as u64 - 1, Ordering::Relaxed);
            }
            let results = self.apply_deltas(session, &deltas, &ids);
            for (result, tx) in results.into_iter().zip(txs) {
                tx.send(Outcome::Update(result));
            }
        };
        for p in lane {
            match p.work {
                Work::Update { insert, delete, .. } => {
                    if !segment.is_empty() {
                        self.metrics.barrier_flushes.fetch_add(1, Ordering::Relaxed);
                        shard.barrier_flushes.fetch_add(1, Ordering::Relaxed);
                    }
                    self.run_segment(std::mem::take(&mut segment));
                    updates.push((insert, delete));
                    update_txs.push(p.tx);
                    update_ids.push(p.trace_id);
                    update_cancels.push(p.cancel);
                }
                _ => {
                    flush_updates(
                        &mut updates,
                        &mut update_txs,
                        &mut update_ids,
                        &mut update_cancels,
                    );
                    segment.push(p);
                }
            }
        }
        flush_updates(
            &mut updates,
            &mut update_txs,
            &mut update_ids,
            &mut update_cancels,
        );
        self.run_segment(segment);
    }

    /// Runs one update-free segment: group per session, coalesce
    /// identical items, run the batch engines, fan answers out.
    fn run_segment(&self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        // Group by (session identity, kind), preserving arrival order.
        struct Group {
            session: Arc<Session>,
            checks: Vec<(usize, usize, Reply, CancelToken)>,
            evals: Vec<(usize, u64, Reply, CancelToken)>,
        }
        let mut groups: Vec<Group> = Vec::new();
        for p in batch {
            let session = match &p.work {
                Work::Check { session, .. } | Work::Eval { session, .. } => Arc::clone(session),
                Work::Update { .. } => unreachable!("updates are barriers, not segment items"),
            };
            let slot = match groups
                .iter_mut()
                .find(|g| Arc::ptr_eq(&g.session, &session))
            {
                Some(g) => g,
                None => {
                    groups.push(Group {
                        session,
                        checks: Vec::new(),
                        evals: Vec::new(),
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            match p.work {
                Work::Check { q, q_prime, .. } => slot.checks.push((q, q_prime, p.tx, p.cancel)),
                Work::Eval { q, .. } => slot.evals.push((q, p.trace_id, p.tx, p.cancel)),
                Work::Update { .. } => unreachable!("updates are barriers, not segment items"),
            }
        }

        for group in groups {
            self.run_checks(&group.session, group.checks);
            self.run_evals(&group.session, group.evals);
        }
    }

    fn run_checks(&self, session: &Session, checks: Vec<(usize, usize, Reply, CancelToken)>) {
        if checks.is_empty() {
            return;
        }
        // Coalesce identical pairs: one computation, many answers. The
        // computation runs under the FIRST waiter's token; coalesced
        // riders share its fate (documented trade — a rider with a
        // longer deadline may see the representative's cancellation,
        // but the shared chase stays live for every other pair).
        let mut unique: Vec<ContainmentPair> = Vec::new();
        let mut tokens: Vec<CancelToken> = Vec::new();
        let mut waiters: FxHashMap<(usize, usize), Vec<Reply>> = FxHashMap::default();
        for (q, q_prime, tx, cancel) in checks {
            let entry = waiters.entry((q, q_prime)).or_default();
            if entry.is_empty() {
                unique.push(ContainmentPair { q, q_prime });
                tokens.push(cancel);
            } else {
                self.metrics.coalesced_items.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .lane(self.lane)
                    .coalesced_items
                    .fetch_add(1, Ordering::Relaxed);
            }
            entry.push(tx);
        }

        let program = session.program();
        let answers = cqchase_par::check_batch_cancellable(
            &program.queries,
            &unique,
            &program.deps,
            &program.catalog,
            &session.opts,
            BatchOptions::with_threads(self.threads),
            Some(&tokens),
        );

        for ((pair, cancel), answer) in unique.iter().zip(&tokens).zip(answers) {
            let txs = waiters
                .remove(&(pair.q, pair.q_prime))
                .expect("every unique pair has waiters");
            if let Err(e @ ContainmentEngineError::Cancelled { .. }) = &answer {
                // A cancelled check never certifies anything and never
                // enters the semantic cache; every waiter of the pair
                // is told, with the partial-progress detail.
                let detail = e.to_string();
                for tx in txs {
                    tx.send(self.cancelled_outcome(cancel, &detail));
                }
                continue;
            }
            let summary = match answer {
                Ok(a) => {
                    let s = CheckSummary {
                        contained: a.contained,
                        exact: a.exact,
                        empty_chase: a.empty_chase,
                        class: session.class_name().to_owned(),
                        bound: a.bound,
                    };
                    let mut cache = session.sem_cache.lock().expect("semantic cache lock");
                    cache.insert(
                        session.sigma_fp(),
                        session.query(pair.q),
                        session.query(pair.q_prime),
                        s.clone(),
                    );
                    Ok(s)
                }
                Err(e) => Err(e.to_string()),
            };
            for (i, tx) in txs.into_iter().enumerate() {
                tx.send(Outcome::Check {
                    summary: summary.clone(),
                    cached: false,
                    coalesced: i > 0,
                });
            }
        }
    }

    fn run_evals(&self, session: &Session, evals: Vec<(usize, u64, Reply, CancelToken)>) {
        if evals.is_empty() {
            return;
        }
        // As in `run_checks`: the computation runs under the first
        // waiter's token, coalesced riders share its fate.
        let mut waiters: FxHashMap<usize, Vec<(u64, Reply)>> = FxHashMap::default();
        let mut unique: Vec<(usize, CancelToken)> = Vec::new();
        for (q, trace_id, tx, cancel) in evals {
            let entry = waiters.entry(q).or_default();
            if entry.is_empty() {
                unique.push((q, cancel));
            } else {
                self.metrics.coalesced_items.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .lane(self.lane)
                    .coalesced_items
                    .fetch_add(1, Ordering::Relaxed);
            }
            entry.push((trace_id, tx));
        }
        for (q, cancel) in unique {
            let ids: Vec<u64> = waiters
                .get(&q)
                .expect("every unique query has waiters")
                .iter()
                .map(|(id, _)| *id)
                .collect();
            let answer = session.eval_observed_cancellable(q, self.trace_ctx(&ids), Some(&cancel));
            let txs = waiters.remove(&q).expect("every unique query has waiters");
            let Some((rows, cached, annotation)) = answer else {
                // Cancelled mid-join: the partial rows were discarded
                // inside the session, nothing was cached.
                for (_, tx) in txs {
                    tx.send(self.cancelled_outcome(&cancel, "eval cancelled mid-join"));
                }
                continue;
            };
            if let Some(ann) = annotation {
                let mut map = self.annotations.lock().expect("annotations lock");
                for &id in ids.iter().filter(|id| **id != 0) {
                    map.insert(id, ann.clone());
                }
            }
            for (i, (_, tx)) in txs.into_iter().enumerate() {
                tx.send(Outcome::Eval {
                    rows: rows.clone(),
                    cached,
                    coalesced: i > 0,
                });
            }
        }
    }
}

/// Renders evaluation rows for the wire: each row an array of rendered
/// values (constants print as themselves, labelled nulls as `⊥n`).
pub fn rows_to_value(rows: &[Tuple]) -> Value {
    Value::Array(
        rows.iter()
            .map(|row| Value::Array(row.iter().map(|v| Value::from(v.to_string())).collect()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_session() -> Arc<Session> {
        Arc::new(
            Session::new(
                "t",
                "relation R(a, b).
                 ind R[2] <= R[1].
                 A(x) :- R(x, y).
                 B(x) :- R(x, y), R(y, z).
                 Biso(u) :- R(u, w), R(w, v).
                 C(x) :- R(y, x).
                 R(1, 2). R(2, 3).",
                64,
                64,
            )
            .unwrap(),
        )
    }

    #[test]
    fn single_submit_matches_direct_engine() {
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let out = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1,
            })
            .unwrap();
        let direct = cqchase_core::contained(
            s.query(0),
            s.query(1),
            &s.program().deps,
            &s.program().catalog,
            &s.opts,
        )
        .unwrap();
        match out {
            Outcome::Check {
                summary: Ok(sum),
                cached,
                coalesced,
            } => {
                assert_eq!(sum.contained, direct.contained);
                assert_eq!(sum.exact, direct.exact);
                assert_eq!(sum.bound, direct.bound);
                assert!(!cached && !coalesced);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn semantic_cache_answers_isomorphic_repeat() {
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let first = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1, // A ⊆ B
            })
            .unwrap();
        // Biso (index 2) is isomorphic to B: must be a cache hit.
        let second = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 2,
            })
            .unwrap();
        let (
            Outcome::Check {
                summary: Ok(a),
                cached: c1,
                ..
            },
            Outcome::Check {
                summary: Ok(b),
                cached: c2,
                ..
            },
        ) = (first, second)
        else {
            panic!("expected check outcomes");
        };
        assert!(!c1);
        assert!(c2, "isomorphic repeat must hit the semantic cache");
        assert_eq!(a, b);
        assert_eq!(s.sem_cache.lock().unwrap().stats().hits, 1);
    }

    #[test]
    fn eval_and_rendering() {
        let s = test_session();
        let batcher = Batcher::new(1, Arc::new(Metrics::new()));
        let out = batcher
            .submit(Work::Eval {
                session: Arc::clone(&s),
                q: 0,
            })
            .unwrap();
        let Outcome::Eval {
            rows, coalesced, ..
        } = out
        else {
            panic!("expected eval outcome");
        };
        assert!(!coalesced);
        let direct = {
            let facts = s.facts.read().unwrap();
            cqchase_storage::evaluate(s.query(0), facts.db())
        };
        assert_eq!(rows, direct);
        let rendered = rows_to_value(&rows);
        assert_eq!(rendered[0][0], "1");
    }

    #[test]
    fn update_is_an_epoch_barrier_and_invalidates_eval_rows() {
        use cqchase_ir::Constant;
        let s = test_session();
        let batcher = Batcher::new(1, Arc::new(Metrics::new()));
        let eval = |batcher: &Batcher| match batcher
            .submit(Work::Eval {
                session: Arc::clone(&s),
                q: 0,
            })
            .unwrap()
        {
            Outcome::Eval { rows, cached, .. } => (rows.len(), cached),
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(eval(&batcher), (2, false));
        assert_eq!(eval(&batcher), (2, true), "second eval rides the row cache");
        let out = batcher
            .submit(Work::Update {
                session: Arc::clone(&s),
                insert: vec![("R".into(), vec![Constant::Int(8), Constant::Int(9)])],
                delete: vec![("R".into(), vec![Constant::Int(1), Constant::Int(2)])],
            })
            .unwrap();
        let Outcome::Update(Ok(sum)) = out else {
            panic!("expected update outcome, got {out:?}");
        };
        assert_eq!((sum.inserted, sum.deleted, sum.epoch), (1, 1, 1));
        // Post-barrier eval sees the new facts, uncached.
        assert_eq!(eval(&batcher), (2, false));
        let rows = match batcher
            .submit(Work::Eval {
                session: Arc::clone(&s),
                q: 0,
            })
            .unwrap()
        {
            Outcome::Eval { rows, .. } => rows,
            other => panic!("unexpected outcome {other:?}"),
        };
        let direct = {
            let facts = s.facts.read().unwrap();
            cqchase_storage::evaluate(s.query(0), facts.db())
        };
        assert_eq!(rows, direct);
        // A bad update reports its error without wedging the queue.
        let out = batcher
            .submit(Work::Update {
                session: Arc::clone(&s),
                insert: vec![("NOPE".into(), vec![Constant::Int(1)])],
                delete: vec![],
            })
            .unwrap();
        assert!(matches!(out, Outcome::Update(Err(_))));
        assert_eq!(eval(&batcher), (2, true));
    }

    #[test]
    fn per_session_barrier_never_splits_other_sessions() {
        use cqchase_ir::Constant;
        let a = test_session();
        let b = test_session();
        let upd = |s: &Arc<Session>, k: i64| Work::Update {
            session: Arc::clone(s),
            insert: vec![("R".into(), vec![Constant::Int(100 + k), Constant::Int(k)])],
            delete: vec![],
        };
        let eval_b = || Work::Eval {
            session: Arc::clone(&b),
            q: 0,
        };
        // One batch interleaving B-evals with two adjacent A-updates.
        let script = |s: &Arc<Session>| vec![eval_b(), upd(s, 1), upd(s, 2), eval_b(), eval_b()];

        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let outs: Vec<Outcome> = batcher
            .submit_many(script(&a))
            .into_iter()
            .map(Result::unwrap)
            .collect();
        // All three B evals ran in ONE segment: the identical repeats
        // coalesced instead of being split apart by A's barrier.
        let coalesced: Vec<bool> = outs
            .iter()
            .filter_map(|o| match o {
                Outcome::Eval { coalesced, .. } => Some(*coalesced),
                _ => None,
            })
            .collect();
        assert_eq!(coalesced, [false, true, true]);
        // A's barrier flushed no B segment (B work all ran together),
        // and the adjacent A updates merged: one run of 2 counts 1.
        assert_eq!(metrics.barrier_flushes.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.updates_coalesced.load(Ordering::Relaxed), 1);
        // Merged updates: per-delta summaries, one shared epoch bump.
        let sums: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                Outcome::Update(Ok(s)) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!((sums[0].inserted, sums[1].inserted), (1, 1));
        assert_eq!((sums[0].epoch, sums[1].epoch), (1, 1));
        assert_eq!(a.facts_epoch(), 1, "two merged updates, one epoch");

        // The same script under global barriers: B's repeats land in
        // separate segments (no coalescing across the A barrier) and
        // each A update mints its own epoch.
        let a2 = test_session();
        let b2 = test_session();
        let metrics2 = Arc::new(Metrics::new());
        let global = Batcher::with_barrier_mode(1, Arc::clone(&metrics2), BarrierMode::Global);
        let script2 = vec![
            Work::Eval {
                session: Arc::clone(&b2),
                q: 0,
            },
            upd(&a2, 1),
            upd(&a2, 2),
            Work::Eval {
                session: Arc::clone(&b2),
                q: 0,
            },
            Work::Eval {
                session: Arc::clone(&b2),
                q: 0,
            },
        ];
        let outs2: Vec<Outcome> = global
            .submit_many(script2)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(metrics2.barrier_flushes.load(Ordering::Relaxed), 1);
        assert_eq!(metrics2.updates_coalesced.load(Ordering::Relaxed), 0);
        assert_eq!(a2.facts_epoch(), 2, "global barriers bump per update");
        // The observable answers agree between the modes.
        for (x, y) in outs.iter().zip(outs2.iter()) {
            match (x, y) {
                (Outcome::Eval { rows: r1, .. }, Outcome::Eval { rows: r2, .. }) => {
                    assert_eq!(r1, r2)
                }
                (Outcome::Update(Ok(s1)), Outcome::Update(Ok(s2))) => {
                    assert_eq!(
                        (s1.inserted, s1.deleted, s1.facts),
                        (s2.inserted, s2.deleted, s2.facts)
                    )
                }
                other => panic!("outcome kinds diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn submit_many_drains_one_batch_in_order() {
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let outs = batcher.submit_many(vec![
            Work::Eval {
                session: Arc::clone(&s),
                q: 0,
            },
            Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1,
            },
        ]);
        assert_eq!(outs.len(), 2);
        assert!(matches!(outs[0], Ok(Outcome::Eval { .. })));
        assert!(matches!(outs[1], Ok(Outcome::Check { .. })));
        assert_eq!(metrics.batches.load(Ordering::Relaxed), 1);
        // A semantic-cache hit short-circuits without enqueueing.
        let outs = batcher.submit_many(vec![Work::Check {
            session: Arc::clone(&s),
            q: 0,
            q_prime: 1,
        }]);
        assert!(
            matches!(&outs[0], Ok(Outcome::Check { cached: true, .. })),
            "{outs:?}"
        );
        assert_eq!(metrics.batches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_submits_coalesce_and_agree() {
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Arc::new(Batcher::new(2, Arc::clone(&metrics)));
        let mut handles = Vec::new();
        for i in 0..8usize {
            let batcher = Arc::clone(&batcher);
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                // Everyone asks (A ⊆ B) or (B ⊆ A) — at most 2 unique
                // computations regardless of thread count.
                let (q, qp) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
                batcher
                    .submit(Work::Check {
                        session: s,
                        q,
                        q_prime: qp,
                    })
                    .unwrap()
            }));
        }
        let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, o) in outcomes.iter().enumerate() {
            let Outcome::Check {
                summary: Ok(sum), ..
            } = o
            else {
                panic!("outcome {i} errored: {o:?}");
            };
            // A ⊆ B and B ⊆ A both hold under the cyclic IND.
            assert!(sum.contained, "outcome {i}");
        }
        let computed = 8
            - metrics.coalesced_items.load(Ordering::Relaxed)
            - s.sem_cache.lock().unwrap().stats().hits;
        assert!(
            computed >= 2,
            "both distinct questions must actually compute"
        );
    }

    #[test]
    fn fired_tokens_refuse_work_without_running_it() {
        use cqchase_ir::Constant;
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let fired = CancelToken::unlimited();
        fired.cancel();
        let expired = CancelToken::with_deadline_ms(0);
        // A disconnected check, an expired eval, an expired update, and
        // a live eval, submitted as one batch.
        let outs: Vec<Outcome> = batcher
            .submit_many_cancellable(vec![
                (
                    Work::Check {
                        session: Arc::clone(&s),
                        q: 0,
                        q_prime: 1,
                    },
                    fired,
                ),
                (
                    Work::Eval {
                        session: Arc::clone(&s),
                        q: 0,
                    },
                    expired.clone(),
                ),
                (
                    Work::Update {
                        session: Arc::clone(&s),
                        insert: vec![("R".into(), vec![Constant::Int(7), Constant::Int(8)])],
                        delete: vec![],
                    },
                    expired,
                ),
                (
                    Work::Eval {
                        session: Arc::clone(&s),
                        q: 0,
                    },
                    CancelToken::unlimited(),
                ),
            ])
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert!(
            matches!(
                &outs[0],
                Outcome::Cancelled {
                    disconnect: true,
                    ..
                }
            ),
            "{outs:?}"
        );
        assert!(
            matches!(
                &outs[1],
                Outcome::Cancelled {
                    disconnect: false,
                    ..
                }
            ),
            "{outs:?}"
        );
        assert!(
            matches!(
                &outs[2],
                Outcome::Cancelled {
                    disconnect: false,
                    ..
                }
            ),
            "{outs:?}"
        );
        assert!(matches!(&outs[3], Outcome::Eval { .. }), "{outs:?}");
        // The refused update applied nothing: epoch and facts untouched.
        assert_eq!(s.facts_epoch(), 0);
        assert_eq!(s.facts_len(), 2);
        assert_eq!(metrics.cancelled_disconnect.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.deadline_exceeded.load(Ordering::Relaxed), 2);
        // The session still answers normally afterwards.
        let out = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1,
            })
            .unwrap();
        assert!(matches!(out, Outcome::Check { summary: Ok(_), .. }));
    }

    /// A queued eval on `s` and the receiving end of its result channel.
    fn queued(s: &Arc<Session>) -> (Pending, Receiver<Signal>) {
        let (tx, rx) = channel();
        let p = Pending {
            work: Work::Eval {
                session: Arc::clone(s),
                q: 0,
            },
            tx: Reply(tx),
            trace_id: 0,
            enqueued: Instant::now(),
            enqueued_us: 0,
            cancel: CancelToken::unlimited(),
        };
        (p, rx)
    }

    #[test]
    fn leader_releases_leadership_where_it_sees_the_queue_empty() {
        let s = test_session();
        let mut state = QueueState::default();
        let (own, _own_rx) = queued(&s);
        state.pending.push(own);
        assert!(state.try_lead(), "first submitter leads an idle queue");
        assert!(!state.try_lead(), "one leader at a time");
        assert_eq!(std::mem::take(&mut state.pending).len(), 1);
        assert!(state.leader_running, "a leader with work keeps leading");
        // The leader's round ends on an empty queue. The next submitter,
        // arriving right after, must find no leader running and lead its
        // own work; a leader that quit in a later critical section would
        // leave it waiting for a wake-up that never comes.
        state.hand_off();
        assert!(!state.leader_running);
        let (next, _next_rx) = queued(&s);
        state.pending.push(next);
        assert!(
            state.try_lead(),
            "work enqueued after the leader quit is led"
        );
    }

    #[test]
    fn leader_hands_off_to_the_oldest_queued_submitter() {
        let s = test_session();
        let mut state = QueueState::default();
        let (own, _own_rx) = queued(&s);
        state.pending.push(own);
        assert!(state.try_lead());
        let _batch = std::mem::take(&mut state.pending);
        // Two submitters queue while the leader's round runs; the first
        // of them has since gone away.
        let (gone, gone_rx) = queued(&s);
        let (second, second_rx) = queued(&s);
        let (third, third_rx) = queued(&s);
        drop(gone_rx);
        state.pending.extend([gone, second, third]);
        state.hand_off();
        // Leadership passed, not released: a fresh submitter may not
        // lead beside the promoted one, and the queue is left intact
        // for the promoted leader's batch.
        assert!(state.leader_running);
        assert!(!state.try_lead(), "one leader at a time");
        assert_eq!(state.pending.len(), 3);
        assert!(matches!(second_rx.try_recv(), Ok(Signal::Lead)));
        assert!(third_rx.try_recv().is_err(), "only one waiter is promoted");
        // With no waiter left to take over, leadership is released.
        drop((second_rx, third_rx));
        state.hand_off();
        assert!(!state.leader_running);
    }

    #[test]
    fn leader_answers_then_hands_off_to_a_queued_submitter() {
        use std::sync::mpsc::RecvTimeoutError;
        use std::time::Duration;
        const WAIT: Duration = Duration::from_secs(20);
        let (s1, s2) = (test_session(), test_session());
        let batcher = Arc::new(Batcher::new(1, Arc::new(Metrics::new())));
        let state = |f: fn(&QueueState) -> bool| f(&batcher.state.lock().unwrap());
        let wait_until = |what: &str, f: fn(&QueueState) -> bool| {
            let start = Instant::now();
            while !state(f) {
                assert!(start.elapsed() < WAIT, "timed out waiting until {what}");
                std::thread::yield_now();
            }
        };
        let (done_tx, done) = channel();
        let submitter = |s: &Arc<Session>, who: &'static str| {
            let (batcher, s, done_tx) = (Arc::clone(&batcher), Arc::clone(s), done_tx.clone());
            std::thread::spawn(move || {
                let out = batcher.submit(Work::Eval { session: s, q: 0 });
                done_tx.send((who, out)).unwrap();
            })
        };
        // A leads, and its round blocks on s1's facts lock.
        let hold_s1 = s1.facts.write().unwrap();
        let a = submitter(&s1, "A");
        wait_until("A took its batch", |q| {
            q.leader_running && q.pending.is_empty()
        });
        // B queues behind A's round; its own batch will block on s2.
        let hold_s2 = s2.facts.write().unwrap();
        let b = submitter(&s2, "B");
        wait_until("B queued", |q| q.pending.len() == 1);
        drop(hold_s1);
        // A answers while B's work is unanswered: A did not run B's
        // batch itself, it handed leadership to B.
        let (who, out) = done.recv_timeout(WAIT).expect("A answered");
        assert_eq!(who, "A");
        assert!(matches!(out, Ok(Outcome::Eval { .. })), "{out:?}");
        assert_eq!(
            done.recv_timeout(Duration::from_millis(50)).map(|(w, _)| w),
            Err(RecvTimeoutError::Timeout),
            "B cannot be answered while s2 is locked"
        );
        wait_until("B took its batch", |q| {
            q.leader_running && q.pending.is_empty()
        });
        drop(hold_s2);
        let (who, out) = done.recv_timeout(WAIT).expect("B, promoted, answered");
        assert_eq!(who, "B");
        assert!(matches!(out, Ok(Outcome::Eval { .. })), "{out:?}");
        wait_until("leadership released", |q| !q.leader_running);
        a.join().unwrap();
        b.join().unwrap();
    }

    #[test]
    fn queue_depth_gauge_never_exceeds_items_in_flight() {
        use std::sync::atomic::AtomicBool;
        const THREADS: u64 = 4;
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Arc::new(Batcher::new(1, Arc::clone(&metrics)));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (batcher, stop) = (Arc::clone(&batcher), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut max = 0;
                while !stop.load(Ordering::Relaxed) {
                    // Read under the queue lock, the gauge must equal the
                    // queue's length. A gauge updated outside the lock lags
                    // pushes and pickups, and wraps below zero when a leader
                    // subtracts an item before its submitter added it.
                    let (depth, len) = {
                        let state = batcher.state.lock().unwrap();
                        (
                            batcher.depth_gauge().load(Ordering::Relaxed),
                            state.pending.len() as u64,
                        )
                    };
                    if depth != len {
                        return Err((depth, len));
                    }
                    max = max.max(depth);
                }
                Ok(max)
            })
        };
        let submitters: Vec<_> = (0..THREADS)
            .map(|i| {
                let (batcher, s) = (Arc::clone(&batcher), Arc::clone(&s));
                std::thread::spawn(move || {
                    for k in 0..2000 {
                        // Evals never hit the semantic cache, so every
                        // one goes through the queue.
                        let q = ((i + k) % 4) as usize;
                        batcher
                            .submit(Work::Eval {
                                session: Arc::clone(&s),
                                q,
                            })
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in submitters {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        // Each submitter has at most one item in flight.
        let max = sampler
            .join()
            .unwrap()
            .unwrap_or_else(|(depth, len)| panic!("queue_depth read {depth} over {len} queued"));
        assert!(
            max <= THREADS,
            "queue_depth read {max} with {THREADS} submitters"
        );
        assert_eq!(metrics.lane(0).queue_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn queue_recovers_after_leader_panic() {
        let s = test_session();
        let batcher = Arc::new(Batcher::new(1, Arc::new(Metrics::new())));
        let (b2, s2) = (Arc::clone(&batcher), Arc::clone(&s));
        let poisoned = std::thread::spawn(move || {
            // Out-of-range query index: the leader panics inside
            // run_batch while holding leadership.
            let _ = b2.submit(Work::Eval {
                session: s2,
                q: 999,
            });
        });
        assert!(
            poisoned.join().is_err(),
            "the poison submitter's own thread panics"
        );
        // The LeaderGuard must have released leadership: fresh work is
        // served normally instead of hanging forever.
        let out = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1,
            })
            .unwrap();
        assert!(matches!(out, Outcome::Check { summary: Ok(_), .. }));
    }
}
