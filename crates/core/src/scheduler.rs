//! The engine scheduler: many sessions' requests, one model, pluggable
//! QoS policies over continuously batched slot dispatch.
//!
//! This is the one dispatcher every sampling round runs through. A
//! solo round gets a private scheduler ([`crate::DiffusionSampler`]
//! builds one per request); when one [`crate::Engine`] serves many
//! [`crate::Session`]s they share one instead, so N concurrent rounds do
//! not fight over cores with N×`threads` workers and a long round does
//! not starve a short one. A [`Scheduler`] owns a fixed pool of
//! [`pp_diffusion::InpaintWorker`]s bound to the engine's shared model
//! and **continuously batches** submissions at slot granularity: each
//! worker keeps a slot table ([`pp_diffusion::SlotFeed`]) of in-flight
//! jobs, each with its own DDIM step cursor, and between any two steps
//! it admits queued jobs — from *any* submission — into free slots. A
//! network pass packs whatever slots are live into one `[B, 3, H, W]`
//! tensor with per-slot timesteps, so a micro-batch is formed *across*
//! sessions at the moment capacity frees up (the way LLM serving
//! engines batch requests at token granularity) instead of one
//! submission monopolising a worker for a whole fixed batch. An
//! Interactive job arriving mid-flight therefore starts at the next
//! step boundary, not the next batch boundary.
//!
//! **Which** submissions fill free slots first is a [`SchedPolicy`]
//! decision, pluggable at build time
//! ([`crate::Engine::scheduler_with`]): the policy *ranks* the queue
//! ([`SchedPolicy::rank`], most-preferred first) and the dispatcher
//! walks the ranking, admitting up to each submission's micro-batch
//! width.
//!
//! * [`RoundRobin`] (default) — strict rotation, every submission gets
//!   an equal share; admission order matches the pre-slot scheduler's
//!   dispatch order (a regression test in `tests/qos_scheduler.rs`
//!   pins the delivered results);
//! * [`WeightedFair`] — shares proportional to the submission's
//!   [`QosClass::weight`] (interactive 4 : batch 2 : best-effort 1);
//! * [`DeadlineFirst`] — earliest soft deadline first; submissions
//!   without deadlines fall back to the fair-share order among
//!   themselves.
//!
//! Every policy only reorders slot admission and the per-submission
//! reassembly below is unchanged, so per-session in-order delivery —
//! and therefore bit-identical libraries — holds under all of them:
//! a job's arithmetic never depends on which slots shared its passes
//! (see `pp_diffusion::slots`).
//!
//! **Admission control**: each [`QosClass`] has its own bounded
//! submission queue ([`QueueLimits`]). An overflowing submit returns
//! [`PpError::Rejected`] immediately instead of growing the queue
//! without bound, so a flood in one class can neither exhaust memory
//! nor push other classes into unbounded waiting.
//!
//! **Observability**: [`Scheduler::stats`] snapshots queue depths per
//! class, admission/rejection/completion counters, micro-batches and
//! samples dispatched per session, and cumulative wait/turnaround
//! times ([`SchedulerStats`]; schema documented in PERF.md).
//!
//! Determinism: a job's output depends only on `(template, mask,
//! seed ^ job_index)` — never on which worker ran it or how jobs were
//! grouped into network passes (`pp-diffusion` pins this with
//! `infer_batch_rows_match_solo`). Delivery is reassembled per
//! submission in job order before it reaches the round tail, whose
//! admission is order-exact. Scheduled sessions therefore produce
//! libraries bit-identical to solo pipelines, which
//! `tests/engine_sessions.rs` asserts.
//!
//! Cancellation is cooperative, as elsewhere: a cancelled submission is
//! retired at its next dispatch opportunity, finished micro-batches
//! still reach the consumer, and the stream ends early without error.
//! Dropping the [`Scheduler`] aborts still-queued submissions with an
//! explicit error (never a silently short stream) and joins the pool.
//!
//! **Supervision** (this is a *supervised* runtime, not a best-effort
//! pool): worker faults are contained at the smallest scope that can
//! absorb them.
//!
//! * A panic while running a micro-batch is caught with
//!   `catch_unwind`, converted to a typed
//!   [`PpError::WorkerPanic`] failure delivered to the *one*
//!   submission that was running, and the worker rebuilds its U-Net
//!   state and keeps serving other tenants
//!   ([`SchedulerStats::worker_panics`] counts these).
//! * A panic anywhere else in the worker loop (a buggy
//!   [`SchedPolicy`], say) kills that loop — but each worker thread is
//!   a supervisor that respawns its loop, recovering the poisoned
//!   state mutex on the way back in
//!   ([`SchedulerStats::workers_lost`] counts respawns). Every lock in
//!   this module recovers from poisoning, so `submit()`, `stats()` and
//!   shutdown all keep working after a fault.
//! * A *hard* deadline ([`StreamOptions::with_hard_deadline`]) is
//!   enforced at slot-admission points: a queued submission past its
//!   deadline is retired with [`PpError::DeadlineExceeded`]; samples
//!   already finished still reach the consumer.
//! * Under overload, best-effort work can be shed at admission
//!   ([`SchedulerOptions::shed_best_effort_above`]): when the p90 of
//!   recent queue waits crosses the threshold, new
//!   [`QosClass::BestEffort`] submissions are rejected instead of
//!   queued behind work they would only slow down.
//!
//! Fault *injection* for tests and benches lives in [`crate::fault`]:
//! a [`FaultPlan`] installed via [`SchedulerOptions::faults`] fires
//! deterministic panics/errors/stalls at chosen `(session, slot
//! ordinal)` points, where the slot ordinal is the job's index within
//! its submission; `tests/chaos_scheduler.rs` drives it.

use crate::error::PpError;
use crate::fault::{Fault, FaultPlan};
use crate::jobs::JobSet;
use crate::jobspec::QosClass;
use crate::pipeline::RawSample;
use crate::stages::{SampleStream, Sampler};
use crate::stream::{CancelToken, Progress, StreamOptions};
use pp_diffusion::{DiffusionModel, SlotFeed, SlotJob};
use pp_geometry::{GrayImage, Layout};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Scheduling policies
// ---------------------------------------------------------------------

/// What a [`SchedPolicy`] sees of one queued submission when ranking
/// the queue.
#[derive(Debug, Clone, Copy)]
pub struct SchedView {
    /// The submission's QoS class.
    pub class: QosClass,
    /// Soft deadline, if the submitter set one.
    pub deadline: Option<Instant>,
    /// Micro-batches already dispatched for this submission.
    pub dispatched: u64,
    /// Class-weight-normalised virtual time: advanced by
    /// `4 / class weight` per dispatched micro-batch, and initialised
    /// to the queue's minimum pass at submit so a newcomer continues
    /// from the current share frontier instead of bursting until it
    /// "catches up" from zero (stride scheduling's virtual-time
    /// baseline).
    pub pass: u64,
    /// Jobs not yet dispatched.
    pub remaining: usize,
    /// The submitting session (one id per [`Scheduler::handle`]).
    pub session: u64,
}

/// The scheduling decision, extracted from the dispatch loop: given the
/// queue (oldest first), order the submissions free slots should be
/// filled from.
///
/// The scheduler owns everything else — slot admission, worker
/// assignment, in-order reassembly — so a policy can only change
/// *interleaving*, never per-session results. When a worker has free
/// slots it walks [`SchedPolicy::rank`]'s order, admitting up to each
/// submission's micro-batch width before moving to the next; admitted
/// submissions then move to the back of the queue (which is what makes
/// [`RoundRobin`]'s identity ranking a strict rotation).
///
/// Implementations must be deterministic in the queue contents: tests
/// replay schedules and assert bit-identical libraries.
pub trait SchedPolicy: Send {
    /// A short name for stats and reports.
    fn name(&self) -> &str;

    /// Queue indices in admission order, most-preferred first. Free
    /// slots are offered to `queue[rank[0]]` first, then `rank[1]`,
    /// and so on. The dispatcher tolerates sloppy output —
    /// out-of-range and duplicate indices are dropped, missing ones
    /// appended in queue order — a malformed ranking is a fairness
    /// bug, never a stall.
    fn rank(&mut self, queue: &[SchedView]) -> Vec<usize>;
}

/// Strict rotation: every active submission gets an equal micro-batch
/// share, regardless of class. The default policy, bit-identical to the
/// pre-policy scheduler's hardcoded rotation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl SchedPolicy for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn rank(&mut self, queue: &[SchedView]) -> Vec<usize> {
        // Queue order *is* rotation order: admitted submissions move
        // to the back, so the identity ranking rotates.
        (0..queue.len()).collect()
    }
}

/// Class-weighted fair shares: the submission with the smallest
/// [`SchedView::pass`] runs next (stride scheduling over the
/// scheduler-maintained virtual time, which advances by `4 / weight`
/// per dispatch and starts at the queue's current frontier). Over any
/// window, classes receive micro-batches proportional to
/// interactive 4 : batch 2 : best-effort 1; within a class, equal
/// shares. Pass ties break toward the higher class weight (at equal
/// virtual time the better QoS class is served first — which is what
/// lets an Interactive arrival joining at the frontier preempt a
/// steady lower-class flood at the very next free slot), then toward
/// the oldest submission, so single-class workloads degrade to exact
/// round-robin and a late arrival never bursts past an established
/// equal-or-heavier share.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedFair;

/// The stride-scheduling sort key: virtual time first, then stride
/// (`4 / weight` — smaller means heavier class) for pass ties.
fn stride_key(view: &SchedView) -> (u64, u32) {
    (
        view.pass,
        QosClass::Interactive.weight() / view.class.weight(),
    )
}

impl SchedPolicy for WeightedFair {
    fn name(&self) -> &str {
        "weighted-fair"
    }

    fn rank(&mut self, queue: &[SchedView]) -> Vec<usize> {
        // Stable sort by (pass, stride): ties go to the heavier class,
        // then the oldest.
        let mut order: Vec<usize> = (0..queue.len()).collect();
        order.sort_by_key(|&i| stride_key(&queue[i]));
        order
    }
}

/// Earliest-deadline-first over soft deadlines: while any queued
/// submission carries a deadline, the earliest one runs next (ties
/// toward the oldest); when none do, dispatch falls back to
/// [`WeightedFair`]'s class shares. Deadlines are advisory — a missed
/// one reorders nothing retroactively and aborts nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlineFirst;

impl SchedPolicy for DeadlineFirst {
    fn name(&self) -> &str {
        "deadline-first"
    }

    fn rank(&mut self, queue: &[SchedView]) -> Vec<usize> {
        // Deadline holders first (earliest first, ties oldest — the
        // stable sort), then the rest in weighted-fair order.
        let mut dated: Vec<usize> = (0..queue.len())
            .filter(|&i| queue[i].deadline.is_some())
            .collect();
        dated.sort_by_key(|&i| queue[i].deadline);
        let mut rest: Vec<usize> = (0..queue.len())
            .filter(|&i| queue[i].deadline.is_none())
            .collect();
        rest.sort_by_key(|&i| stride_key(&queue[i]));
        dated.extend(rest);
        dated
    }
}

// ---------------------------------------------------------------------
// Admission control and observability
// ---------------------------------------------------------------------

/// Per-class bounds on queued submissions (scheduler) or concurrent
/// jobs (service front door). Deeper queues for lower classes: batch
/// and best-effort work is expected to wait, interactive work should be
/// rejected early rather than queued behind a backlog it cannot jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLimits {
    /// Bound for [`QosClass::Interactive`].
    pub interactive: usize,
    /// Bound for [`QosClass::Batch`].
    pub batch: usize,
    /// Bound for [`QosClass::BestEffort`].
    pub best_effort: usize,
}

impl Default for QueueLimits {
    fn default() -> Self {
        QueueLimits {
            interactive: 16,
            batch: 64,
            best_effort: 256,
        }
    }
}

impl QueueLimits {
    /// The same bound for every class.
    pub fn uniform(limit: usize) -> QueueLimits {
        QueueLimits {
            interactive: limit,
            batch: limit,
            best_effort: limit,
        }
    }

    /// The bound for `class`.
    pub fn limit(&self, class: QosClass) -> usize {
        match class {
            QosClass::Interactive => self.interactive,
            QosClass::Batch => self.batch,
            QosClass::BestEffort => self.best_effort,
        }
    }
}

/// One counter per QoS class (a [`SchedulerStats`] building block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// [`QosClass::Interactive`] count.
    pub interactive: u64,
    /// [`QosClass::Batch`] count.
    pub batch: u64,
    /// [`QosClass::BestEffort`] count.
    pub best_effort: u64,
}

impl ClassCounts {
    fn from_raw(raw: [u64; 3]) -> ClassCounts {
        ClassCounts {
            interactive: raw[0],
            batch: raw[1],
            best_effort: raw[2],
        }
    }

    /// The count for `class`.
    pub fn get(&self, class: QosClass) -> u64 {
        match class {
            QosClass::Interactive => self.interactive,
            QosClass::Batch => self.batch,
            QosClass::BestEffort => self.best_effort,
        }
    }

    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.interactive + self.batch + self.best_effort
    }
}

impl std::ops::AddAssign for ClassCounts {
    fn add_assign(&mut self, rhs: ClassCounts) {
        self.interactive += rhs.interactive;
        self.batch += rhs.batch;
        self.best_effort += rhs.best_effort;
    }
}

/// Dispatch counters for one session (one id per
/// [`Scheduler::handle`]; a session accumulates across its
/// submissions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSched {
    /// The session id.
    pub session: u64,
    /// The class of the session's most recent submission.
    pub class: QosClass,
    /// Micro-batches dispatched for this session.
    pub micro_batches: u64,
    /// Jobs (samples) dispatched for this session.
    pub samples: u64,
}

/// A point-in-time snapshot of scheduler state and cumulative dispatch
/// counters (see PERF.md "Scheduling policies and admission control"
/// for the schema as it appears in `qos_sched` bench output).
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// The active [`SchedPolicy`]'s name.
    pub policy: String,
    /// Worker threads in the pool.
    pub threads: usize,
    /// Submissions currently queued, per class.
    pub queued: ClassCounts,
    /// Submissions accepted since the scheduler started.
    pub admitted: ClassCounts,
    /// Submissions refused by admission control.
    pub rejected: ClassCounts,
    /// Submissions fully dispatched.
    pub completed: ClassCounts,
    /// Submissions retired early (cancellation or a dropped stream).
    pub abandoned: ClassCounts,
    /// Submissions retired at a hard deadline
    /// ([`PpError::DeadlineExceeded`]).
    pub timed_out: ClassCounts,
    /// Best-effort submissions refused by overload shedding
    /// ([`SchedulerOptions::shed_best_effort_above`]); also counted in
    /// [`SchedulerStats::rejected`].
    pub shed: u64,
    /// Micro-batch panics caught and converted to
    /// [`PpError::WorkerPanic`] (the worker survived and rebuilt its
    /// U-Net state).
    pub worker_panics: u64,
    /// Worker loops lost to an escaped panic and respawned by their
    /// supervising thread. Persistently non-zero growth means a buggy
    /// policy or a fault plan, not load.
    pub workers_lost: u64,
    /// Micro-batches dispatched in total. Under continuous batching a
    /// "micro-batch" is one submission's group of slots admitted in
    /// one refill — the unit the stride accounting and fairness tests
    /// count.
    pub micro_batches: u64,
    /// Jobs (samples) dispatched in total.
    pub samples: u64,
    /// Slot-occupancy numerator: per network step, how many slots of
    /// the stepping worker's table held live jobs. With
    /// [`SchedulerStats::slots_idle`] this gives the pool's packing
    /// efficiency — `filled / (filled + idle)` — the number continuous
    /// batching exists to push up.
    pub slots_filled: u64,
    /// Slot-occupancy denominator companion: per network step, how
    /// many slots of the stepping worker's table sat empty.
    pub slots_idle: u64,
    /// Network steps whose slot table mixed jobs from more than one
    /// submission — passes a per-submission batch would have run
    /// separately (and narrower).
    pub batches_merged: u64,
    /// Cumulative submit → first-dispatch latency, microseconds.
    pub wait_micros: u64,
    /// Median submit → first-dispatch latency over the most recent
    /// submissions (the shedding signal's companion), microseconds.
    pub wait_p50_micros: u64,
    /// 90th-percentile submit → first-dispatch latency over the most
    /// recent submissions (the overload-shedding signal), microseconds.
    pub wait_p90_micros: u64,
    /// Per-class median submit → first-dispatch latency over each
    /// class's recent submissions, microseconds.
    pub wait_p50_micros_by_class: ClassCounts,
    /// Per-class 99th-percentile submit → first-dispatch latency over
    /// each class's recent submissions, microseconds — the
    /// `mixed_tenants` bench headline (Interactive p99 is the number
    /// slot-granular admission improves).
    pub wait_p99_micros_by_class: ClassCounts,
    /// Cumulative submit → retirement latency over all retired
    /// submissions — completed, abandoned and timed-out alike, so
    /// stragglers no longer skew the average (every retirement path
    /// records its terminal timestamp).
    pub turnaround_micros: u64,
    /// The raw recent-wait window behind [`wait_p50_micros`] /
    /// [`wait_p90_micros`] (at most the last 64 submit →
    /// first-dispatch waits, oldest first, microseconds). Carried in
    /// the snapshot so [`SchedulerStats::merge`] can recompute honest
    /// percentiles over the *combined* window instead of averaging
    /// per-replica percentiles.
    ///
    /// [`wait_p50_micros`]: SchedulerStats::wait_p50_micros
    /// [`wait_p90_micros`]: SchedulerStats::wait_p90_micros
    pub recent_wait_micros: Vec<u64>,
    /// Per-class recent-wait windows, indexed Interactive / Batch /
    /// BestEffort — the inputs to the `_by_class` percentile fields.
    pub recent_wait_micros_by_class: [Vec<u64>; 3],
    /// Per-session dispatch counters, ordered by session id.
    pub per_session: Vec<SessionSched>,
}

impl SchedulerStats {
    /// Aggregates snapshots from several schedulers (the fleet
    /// router's admission signal): counters are summed, the
    /// recent-wait windows are concatenated and every percentile is
    /// recomputed over the combined window (nearest-rank, matching the
    /// per-scheduler definition). `policy` is the shared name when all
    /// parts agree and `"mixed"` otherwise; `threads` is the pool
    /// total. Per-session counters with the same id are summed — ids
    /// are only unique *within* one scheduler, so fleet-level callers
    /// that need true attribution should keep the per-replica
    /// snapshots (as [`crate::FleetStats`] does).
    pub fn merge(parts: &[SchedulerStats]) -> SchedulerStats {
        let policy = match parts.first() {
            Some(first) if parts.iter().all(|p| p.policy == first.policy) => first.policy.clone(),
            Some(_) => "mixed".to_string(),
            None => String::new(),
        };
        let mut merged = SchedulerStats {
            policy,
            ..SchedulerStats::default()
        };
        let mut per_session: BTreeMap<u64, SessionSched> = BTreeMap::new();
        for part in parts {
            merged.threads += part.threads;
            merged.queued += part.queued;
            merged.admitted += part.admitted;
            merged.rejected += part.rejected;
            merged.completed += part.completed;
            merged.abandoned += part.abandoned;
            merged.timed_out += part.timed_out;
            merged.shed += part.shed;
            merged.worker_panics += part.worker_panics;
            merged.workers_lost += part.workers_lost;
            merged.micro_batches += part.micro_batches;
            merged.samples += part.samples;
            merged.slots_filled += part.slots_filled;
            merged.slots_idle += part.slots_idle;
            merged.batches_merged += part.batches_merged;
            merged.wait_micros += part.wait_micros;
            merged.turnaround_micros += part.turnaround_micros;
            merged
                .recent_wait_micros
                .extend_from_slice(&part.recent_wait_micros);
            for (ring, other) in merged
                .recent_wait_micros_by_class
                .iter_mut()
                .zip(&part.recent_wait_micros_by_class)
            {
                ring.extend_from_slice(other);
            }
            for s in &part.per_session {
                per_session
                    .entry(s.session)
                    .and_modify(|acc| {
                        acc.micro_batches += s.micro_batches;
                        acc.samples += s.samples;
                    })
                    .or_insert(*s);
            }
        }
        merged.wait_p50_micros = percentile_of(&merged.recent_wait_micros, 50);
        merged.wait_p90_micros = percentile_of(&merged.recent_wait_micros, 90);
        merged.wait_p50_micros_by_class = ClassCounts::from_raw([
            percentile_of(&merged.recent_wait_micros_by_class[0], 50),
            percentile_of(&merged.recent_wait_micros_by_class[1], 50),
            percentile_of(&merged.recent_wait_micros_by_class[2], 50),
        ]);
        merged.wait_p99_micros_by_class = ClassCounts::from_raw([
            percentile_of(&merged.recent_wait_micros_by_class[0], 99),
            percentile_of(&merged.recent_wait_micros_by_class[1], 99),
            percentile_of(&merged.recent_wait_micros_by_class[2], 99),
        ]);
        merged.per_session = per_session.into_values().collect();
        merged
    }
}

/// Build-time scheduler configuration: the [`SchedPolicy`] and the
/// per-class admission bounds. `Default` is [`RoundRobin`] with
/// [`QueueLimits::default`].
pub struct SchedulerOptions {
    policy: Box<dyn SchedPolicy>,
    limits: QueueLimits,
    faults: FaultPlan,
    shed_wait: Option<Duration>,
    slot_capacity: usize,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            policy: Box::new(RoundRobin),
            limits: QueueLimits::default(),
            faults: FaultPlan::new(),
            shed_wait: None,
            slot_capacity: 0,
        }
    }
}

impl std::fmt::Debug for SchedulerOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerOptions")
            .field("policy", &self.policy.name())
            .field("limits", &self.limits)
            .field("faults", &self.faults.remaining())
            .field("shed_wait", &self.shed_wait)
            .field("slot_capacity", &self.slot_capacity)
            .finish()
    }
}

impl SchedulerOptions {
    /// Default options ([`RoundRobin`], default limits).
    pub fn new() -> SchedulerOptions {
        SchedulerOptions::default()
    }

    /// Replaces the scheduling policy.
    pub fn policy(mut self, policy: impl SchedPolicy + 'static) -> SchedulerOptions {
        self.policy = Box::new(policy);
        self
    }

    /// Replaces the per-class admission bounds.
    pub fn limits(mut self, limits: QueueLimits) -> SchedulerOptions {
        self.limits = limits;
        self
    }

    /// Installs a deterministic [`FaultPlan`] consulted at every slot
    /// admission — the chaos-testing hook (see [`crate::fault`]).
    /// Empty plans (the default) cost one branch per admission.
    pub fn faults(mut self, plan: FaultPlan) -> SchedulerOptions {
        self.faults = plan;
        self
    }

    /// Overrides the per-worker slot-table capacity. `0` (the default)
    /// sizes the table automatically to 1.5× the largest queued
    /// micro-batch width, so one submission's full micro-batch plus
    /// headroom for a newly arrived tenant fit in a single network
    /// pass.
    pub fn slot_capacity(mut self, slots: usize) -> SchedulerOptions {
        self.slot_capacity = slots;
        self
    }

    /// Enables overload shedding: when the 90th-percentile queue wait
    /// over recent submissions exceeds `threshold`, new
    /// [`QosClass::BestEffort`] submissions are rejected at admission
    /// ([`PpError::Rejected`], counted in [`SchedulerStats::shed`])
    /// instead of queued. Higher classes are never shed — they have
    /// admission bounds of their own.
    pub fn shed_best_effort_above(mut self, threshold: Duration) -> SchedulerOptions {
        self.shed_wait = Some(threshold);
        self
    }
}

// ---------------------------------------------------------------------
// Queue plumbing
// ---------------------------------------------------------------------

/// One delivery from a worker to a submission's consumer.
enum SchedMsg {
    /// `samples[i]` answers job `start + i` of the submission.
    Batch {
        start: usize,
        samples: Vec<GrayImage>,
    },
    /// The scheduler shut down, a worker failed or panicked, or a hard
    /// deadline passed before this submission finished; the stream
    /// surfaces the typed error so the service can classify it
    /// (transient → retry, deadline → `TimedOut`).
    Aborted(PpError),
}

/// A queued request: shared job images plus a dispatch cursor.
struct Submission {
    /// Scheduler-unique id for slot tagging (session ids are
    /// per-handle and a handle submits many times). Masked to 32 bits
    /// — the tag packs `(uid << 32) | job index`.
    uid: u64,
    jobs: Arc<Vec<(GrayImage, GrayImage)>>,
    seed: u64,
    batch: usize,
    cursor: usize,
    dispatched: u64,
    /// Stride-scheduling virtual time (see [`SchedView::pass`]).
    pass: u64,
    /// Slots admitted since `pass` last advanced: every `batch` slots
    /// of work costs one class stride, so slot-granular admission
    /// charges one stride per micro-batch worth of jobs.
    credits: usize,
    session: u64,
    class: QosClass,
    deadline: Option<Instant>,
    /// When set, passing `deadline` retires the submission with
    /// [`PpError::DeadlineExceeded`] instead of merely reordering it.
    hard_deadline: bool,
    submitted_at: Instant,
    cancel: CancelToken,
    /// Internal retire flag, distinct from the caller's `cancel`
    /// token (which may be shared across rounds): set by workers when
    /// delivery fails or the submission is poisoned, so the dispatcher
    /// stops feeding a request nobody is listening to — and evicts its
    /// already-admitted slots instead of stepping them to completion.
    retired: Arc<std::sync::atomic::AtomicBool>,
    /// Slots of this submission currently admitted across *all*
    /// workers' tables. Hard-deadline aborts wait for this to reach 0
    /// so in-flight samples (which beat the clock) deliver before the
    /// stream is truncated by the typed error.
    inflight: Arc<AtomicUsize>,
    tx: Sender<SchedMsg>,
}

/// How many recent first-dispatch waits feed the percentile windows
/// behind [`SchedulerStats::wait_p90_micros`], the per-class p99s and
/// overload shedding.
const WAIT_WINDOW: usize = 64;

/// Cumulative dispatch counters, updated under the state lock.
#[derive(Default)]
struct StatsInner {
    admitted: [u64; 3],
    rejected: [u64; 3],
    completed: [u64; 3],
    abandoned: [u64; 3],
    timed_out: [u64; 3],
    shed: u64,
    micro_batches: u64,
    samples: u64,
    wait_micros: u64,
    turnaround_micros: u64,
    /// Ring buffer of the last [`WAIT_WINDOW`] submit → first-dispatch
    /// waits (microseconds): the shedding signal.
    recent_waits: VecDeque<u64>,
    /// Per-class rings of the same waits, indexed by
    /// [`QosClass::index`]: the `mixed_tenants` latency signal.
    recent_class_waits: [VecDeque<u64>; 3],
    per_session: BTreeMap<u64, (QosClass, u64, u64)>,
}

/// The p-th percentile (nearest-rank) of a wait window, 0 when empty.
/// Generic over the container so both the live `VecDeque` rings and
/// the `Vec` windows carried by [`SchedulerStats::merge`] share one
/// definition.
fn percentile_of<'a, I>(window: I, p: u64) -> u64
where
    I: IntoIterator<Item = &'a u64>,
{
    let mut sorted: Vec<u64> = window.into_iter().copied().collect();
    if sorted.is_empty() {
        return 0;
    }
    sorted.sort_unstable();
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

impl StatsInner {
    /// The p-th percentile (nearest-rank) of the recent-wait window,
    /// 0 when the window is empty.
    fn wait_percentile(&self, p: u64) -> u64 {
        percentile_of(&self.recent_waits, p)
    }

    /// Per-class nearest-rank percentiles of the recent-wait windows.
    fn class_wait_percentile(&self, p: u64) -> ClassCounts {
        ClassCounts::from_raw([
            percentile_of(&self.recent_class_waits[0], p),
            percentile_of(&self.recent_class_waits[1], p),
            percentile_of(&self.recent_class_waits[2], p),
        ])
    }

    /// Records a submit → first-dispatch wait into the cumulative sum
    /// and both percentile windows.
    fn record_wait(&mut self, wait: u64, class: QosClass) {
        self.wait_micros += wait;
        if self.recent_waits.len() == WAIT_WINDOW {
            self.recent_waits.pop_front();
        }
        self.recent_waits.push_back(wait);
        let ring = &mut self.recent_class_waits[class.index()];
        if ring.len() == WAIT_WINDOW {
            ring.pop_front();
        }
        ring.push_back(wait);
    }
}

struct SchedState {
    queue: VecDeque<Submission>,
    policy: Box<dyn SchedPolicy>,
    stats: StatsInner,
    shutdown: bool,
}

struct Shared {
    state: Mutex<SchedState>,
    cv: Condvar,
    image: u32,
    threads: usize,
    limits: QueueLimits,
    next_session: AtomicU64,
    /// Slot-tag uid allocator (see [`Submission::uid`]).
    next_uid: AtomicU64,
    /// Worker panics caught and contained (worker survived and
    /// rebuilt), including synthesized [`Fault::PanicAt`] injections.
    worker_panics: AtomicU64,
    /// Worker loops lost to an escaped panic and respawned.
    workers_lost: AtomicU64,
    /// Worker threads still serving; 0 means the pool is wedged and
    /// submissions would hang forever, so `submit` refuses them.
    workers_alive: AtomicUsize,
    /// Chaos hook: `has_faults` keeps the happy path to one branch per
    /// slot admission (no lock touch when no plan was installed).
    has_faults: bool,
    faults: Mutex<FaultPlan>,
    shed_wait: Option<Duration>,
    /// Slot-table capacity override (0 = auto, see
    /// [`SchedulerOptions::slot_capacity`]).
    slot_capacity: usize,
    /// Σ live slots over all network steps (see
    /// [`SchedulerStats::slots_filled`]).
    slots_filled: AtomicU64,
    /// Σ empty slots over all network steps.
    slots_idle: AtomicU64,
    /// Steps whose table mixed submissions.
    batches_merged: AtomicU64,
}

/// Locks the scheduler state, recovering from poisoning: every mutation
/// in this module is counter/queue bookkeeping that stays coherent at
/// any interleaving point, so a panic between lock and unlock (a buggy
/// policy, an injected fault) must not condemn `submit()`, `stats()`
/// and shutdown forever — that would turn one tenant's fault into a
/// whole-service outage.
fn lock_state(shared: &Shared) -> MutexGuard<'_, SchedState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Purges dead submissions from the queue: cancelled and retired ones
/// retire as `abandoned` (dropping the sender ends the stream — cleanly
/// for cancellation, which is not an error), expired hard deadlines as
/// `timed_out` with a typed abort. Slots already admitted keep running
/// and deliver — cancellation and deadlines act on *queued* work. Every
/// retirement path records its terminal timestamp into
/// `turnaround_micros`, so abandoned and timed-out stragglers no longer
/// vanish from turnaround accounting (they used to be recorded only on
/// completion).
fn purge(st: &mut SchedState) {
    let mut i = 0;
    while i < st.queue.len() {
        let sub = &st.queue[i];
        if sub.cancel.is_cancelled() || sub.retired.load(Ordering::Relaxed) {
            st.stats.abandoned[sub.class.index()] += 1;
            st.stats.turnaround_micros += sub.submitted_at.elapsed().as_micros() as u64;
            st.queue.remove(i);
        } else if sub.hard_deadline
            && sub.deadline.is_some_and(|d| Instant::now() > d)
            // Defer the abort while slots are in flight: their samples
            // beat the clock and must reach the consumer before the
            // stream is truncated by the typed error. Admission below
            // skips expired submissions, so this drains promptly.
            && sub.inflight.load(Ordering::Relaxed) == 0
        {
            // Hard-deadline enforcement: cooperative, at slot-admission
            // points. Samples already delivered reached the consumer
            // (partial results survive); the stream ends with the typed
            // error so the service resolves to `TimedOut`.
            let late_by = sub
                .deadline
                .map(|d| Instant::now().saturating_duration_since(d))
                .unwrap_or_default();
            let _ = sub
                .tx
                .send(SchedMsg::Aborted(PpError::DeadlineExceeded { late_by }));
            st.stats.timed_out[sub.class.index()] += 1;
            st.stats.turnaround_micros += sub.submitted_at.elapsed().as_micros() as u64;
            st.queue.remove(i);
        } else {
            i += 1;
        }
    }
}

/// What the policy sees of one queued submission.
fn views_of(queue: &VecDeque<Submission>) -> Vec<SchedView> {
    queue
        .iter()
        .map(|sub| SchedView {
            class: sub.class,
            deadline: sub.deadline,
            dispatched: sub.dispatched,
            pass: sub.pass,
            remaining: sub.jobs.len() - sub.cursor,
            session: sub.session,
        })
        .collect()
}

/// Sanitises a policy ranking: out-of-range and duplicate indices are
/// dropped, missing ones appended in queue order. A malformed ranking
/// is a fairness bug, never a stall or a panic.
fn normalize_ranking(ranking: Vec<usize>, len: usize) -> Vec<usize> {
    let mut seen = vec![false; len];
    let mut order = Vec::with_capacity(len);
    for i in ranking {
        if i < len && !std::mem::replace(&mut seen[i], true) {
            order.push(i);
        }
    }
    for (i, ranked) in seen.into_iter().enumerate() {
        if !ranked {
            order.push(i);
        }
    }
    order
}

/// Renders a `catch_unwind` payload for [`PpError::WorkerPanic`]
/// (panics carry `&str` or `String` in practice; anything else gets a
/// placeholder rather than being dropped).
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// Continuous dispatch: the worker-side slot feed
// ---------------------------------------------------------------------

/// Delivery route for one submission with slots in a worker's table.
struct Route {
    tx: Sender<SchedMsg>,
    retired: Arc<std::sync::atomic::AtomicBool>,
    /// The submission's cross-worker in-flight slot count (see
    /// [`Submission::inflight`]).
    sub_inflight: Arc<AtomicUsize>,
    /// Slots of this submission currently in this worker's table.
    inflight: usize,
}

/// The scheduler's side of [`pp_diffusion::SlotFeed`], one per worker
/// loop entry: `refill` *is* the dispatcher — purge, policy ranking,
/// slot admission, fault injection and dispatch stats all happen there
/// under the state lock — while `complete`/`evict` route finished
/// samples back to their submission's stream without touching it.
struct SchedFeed {
    shared: Arc<Shared>,
    /// Routes for submissions with slots in this worker's table,
    /// keyed by [`Submission::uid`].
    routes: BTreeMap<u64, Route>,
    /// Slot-table capacity as of the last refill (the denominator for
    /// idle-slot accounting).
    capacity: usize,
    /// A panic that unwound out of [`SchedPolicy::rank`] during
    /// refill, parked so in-flight slots drain before the worker loop
    /// re-raises it toward its supervisor.
    policy_panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Packs a slot tag from a submission uid (32 bits) and a job index.
fn slot_tag(uid: u64, index: usize) -> u64 {
    (uid << 32) | index as u64
}

impl SchedFeed {
    fn new(shared: Arc<Shared>) -> SchedFeed {
        SchedFeed {
            shared,
            routes: BTreeMap::new(),
            capacity: 0,
            policy_panic: None,
        }
    }

    /// Releases one slot of `uid`, dropping the route (and its sender
    /// clone) when it was the last — which is what lets a fully
    /// retired submission's stream disconnect.
    fn release(&mut self, uid: u64) {
        if let Some(route) = self.routes.get_mut(&uid) {
            route.sub_inflight.fetch_sub(1, Ordering::Relaxed);
            route.inflight -= 1;
            if route.inflight == 0 {
                self.routes.remove(&uid);
            }
        }
    }

    /// Aborts every submission with slots in this worker's table —
    /// the worker-level failure path, where an unwind destroyed the
    /// whole slot loop and per-slot attribution with it.
    fn abort_inflight(&mut self, err: impl Fn() -> PpError) {
        for route in std::mem::take(&mut self.routes).into_values() {
            let _ = route.tx.send(SchedMsg::Aborted(err()));
            route.retired.store(true, Ordering::Relaxed);
            // The table is gone with the unwound slot loop: hand the
            // slots back so deferred hard-deadline purging never waits
            // on slots that no longer exist.
            route
                .sub_inflight
                .fetch_sub(route.inflight, Ordering::Relaxed);
        }
    }

    /// The dispatcher proper: purge the queue, rank it, fill free
    /// slots in ranking order. Blocks on the condvar only when this
    /// worker's table is empty (`active == 0`) and nothing was
    /// admitted — with slots in flight it returns immediately so the
    /// step loop keeps moving.
    fn refill_inner(&mut self, active: usize) -> Vec<SlotJob> {
        let mut stall: Option<Duration> = None;
        let shared = Arc::clone(&self.shared);
        let out = {
            let mut st = lock_state(&shared);
            loop {
                purge(&mut st);
                if st.shutdown {
                    break Vec::new();
                }
                let jobs = self.admit(&mut st, active, &mut stall);
                if !jobs.is_empty() || active > 0 {
                    break jobs;
                }
                st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // An injected stall models a slow model pass, not a wedged
        // scheduler: sleep outside the state lock.
        if let Some(d) = stall {
            std::thread::sleep(d);
        }
        out
    }

    /// One admission pass over the ranked queue. Returns the slots to
    /// add to this worker's table; updates cursors, stride accounting,
    /// routes and dispatch stats; retires submissions hit by injected
    /// faults; rotates admitted submissions to the back of the queue.
    fn admit(
        &mut self,
        st: &mut SchedState,
        active: usize,
        stall: &mut Option<Duration>,
    ) -> Vec<SlotJob> {
        if st.queue.is_empty() {
            return Vec::new();
        }
        let max_batch = st.queue.iter().map(|s| s.batch).max().unwrap_or(1);
        let capacity = if self.shared.slot_capacity > 0 {
            self.shared.slot_capacity
        } else {
            // Auto sizing: the widest queued micro-batch plus 50%
            // headroom, so a newly arrived tenant can join the next
            // network pass instead of waiting for a slot lifetime.
            max_batch + max_batch / 2
        };
        self.capacity = capacity;
        let mut free = capacity.saturating_sub(active);
        if free == 0 {
            return Vec::new();
        }
        if active == 0 {
            // Admission-side de-aligner: a cold table filled in one
            // refill with uniform-length jobs retires every slot at
            // the same boundary forever — the table stays
            // cohort-aligned and a late tenant waits a full slot
            // lifetime for its first dispatch. Capping the first
            // refill at half capacity splits the cold cohort in two:
            // the remainder is admitted at the very next step boundary
            // (refill runs after every step), one step out of phase,
            // so slots free up twice per lifetime from then on. Costs
            // at most one half-idle step per cold start.
            free = free.min(capacity.div_ceil(2)).max(1);
        }
        let views = views_of(&st.queue);
        let ranking = normalize_ranking(st.policy.rank(&views), st.queue.len());
        let st = &mut *st;
        let queue = &mut st.queue;
        let stats = &mut st.stats;
        let mut out = Vec::new();
        // Post-walk queue surgery, keyed by uid: submissions that got
        // slots rotate to the back (in admission order — what makes
        // the identity ranking a strict rotation), fault-aborted ones
        // leave as abandoned, fully dispatched ones as completed.
        let mut admitted_order: Vec<u64> = Vec::new();
        let mut aborted: Vec<u64> = Vec::new();
        for qi in ranking {
            if free == 0 {
                break;
            }
            let sub = &mut queue[qi];
            if sub.hard_deadline && sub.deadline.is_some_and(|d| Instant::now() > d) {
                // Expired but still draining in-flight slots (purge
                // defers its abort): admit nothing more from it.
                continue;
            }
            let my_inflight = self.routes.get(&sub.uid).map_or(0, |r| r.inflight);
            // Per-worker share: one submission may hold at most its
            // micro-batch width in any single worker's table, bounding
            // it to `batch × workers` jobs in flight.
            let allow = sub
                .batch
                .saturating_sub(my_inflight)
                .min(sub.jobs.len() - sub.cursor)
                .min(free);
            if allow == 0 {
                continue;
            }
            let mut n = 0;
            let mut abort: Option<PpError> = None;
            while n < allow {
                let index = sub.cursor + n;
                // Chaos hook, now keyed on (session, slot ordinal) =
                // the job's index within its submission. Faults fire
                // at admission, before any DDIM compute: a synthesized
                // panic/error aborts only this submission — slots of
                // co-resident tenants in the same table are untouched,
                // which is the isolation continuous batching must keep.
                if self.shared.has_faults {
                    let fault = self
                        .shared
                        .faults
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take(sub.session, index as u64);
                    match fault {
                        Some(Fault::PanicAt { .. }) => {
                            self.shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                            abort = Some(PpError::WorkerPanic {
                                detail: format!(
                                    "injected fault: worker panic (session {}, slot {})",
                                    sub.session, index
                                ),
                            });
                            break;
                        }
                        Some(Fault::ErrAt { .. }) => {
                            abort = Some(PpError::Io(std::io::Error::new(
                                std::io::ErrorKind::Interrupted,
                                format!(
                                    "injected transient i/o fault (session {}, slot {})",
                                    sub.session, index
                                ),
                            )));
                            break;
                        }
                        Some(Fault::StallFor { duration, .. }) => {
                            *stall = Some(stall.map_or(duration, |s| s.max(duration)));
                        }
                        None => {}
                    }
                }
                out.push(SlotJob {
                    tag: slot_tag(sub.uid, index),
                    jobs: Arc::clone(&sub.jobs),
                    index,
                    seed: sub.seed ^ index as u64,
                });
                n += 1;
            }
            if n > 0 {
                if sub.dispatched == 0 {
                    let wait = sub.submitted_at.elapsed().as_micros() as u64;
                    stats.record_wait(wait, sub.class);
                }
                sub.dispatched += 1;
                sub.cursor += n;
                // Advance virtual time by the class stride (4 /
                // weight) once per micro-batch worth of slots.
                sub.credits += n;
                let stride = u64::from(QosClass::Interactive.weight() / sub.class.weight());
                while sub.credits >= sub.batch {
                    sub.credits -= sub.batch;
                    sub.pass += stride;
                }
                stats.micro_batches += 1;
                stats.samples += n as u64;
                let entry = stats
                    .per_session
                    .entry(sub.session)
                    .or_insert((sub.class, 0, 0));
                entry.0 = sub.class;
                entry.1 += 1;
                entry.2 += n as u64;
                let route = self.routes.entry(sub.uid).or_insert_with(|| Route {
                    tx: sub.tx.clone(),
                    retired: Arc::clone(&sub.retired),
                    sub_inflight: Arc::clone(&sub.inflight),
                    inflight: 0,
                });
                route.inflight += n;
                sub.inflight.fetch_add(n, Ordering::Relaxed);
                free -= n;
                admitted_order.push(sub.uid);
            }
            if let Some(err) = abort {
                // Slots admitted before the fault point (this refill
                // or earlier) still run and deliver; everything from
                // the fault on is gone. The consumer sees the typed
                // abort; `purge`-style accounting happens in the
                // surgery below, so counters land before this call
                // returns.
                let _ = sub.tx.send(SchedMsg::Aborted(err));
                sub.retired.store(true, Ordering::Relaxed);
                aborted.push(sub.uid);
            }
        }
        if admitted_order.is_empty() && aborted.is_empty() {
            return out;
        }
        let mut rotated: BTreeMap<u64, Submission> = BTreeMap::new();
        let mut kept: VecDeque<Submission> = VecDeque::with_capacity(queue.len());
        for sub in queue.drain(..) {
            if aborted.contains(&sub.uid) {
                stats.abandoned[sub.class.index()] += 1;
                stats.turnaround_micros += sub.submitted_at.elapsed().as_micros() as u64;
            } else if sub.cursor >= sub.jobs.len() {
                stats.completed[sub.class.index()] += 1;
                stats.turnaround_micros += sub.submitted_at.elapsed().as_micros() as u64;
            } else if admitted_order.contains(&sub.uid) {
                rotated.insert(sub.uid, sub);
            } else {
                kept.push_back(sub);
            }
        }
        for uid in &admitted_order {
            if let Some(sub) = rotated.remove(uid) {
                kept.push_back(sub);
            }
        }
        *queue = kept;
        out
    }
}

impl SlotFeed for SchedFeed {
    fn refill(&mut self, active: usize) -> Vec<SlotJob> {
        if self.policy_panic.is_some() {
            // A panicked policy cannot rank: stop admitting, let the
            // slot loop drain what is in flight, then the worker loop
            // re-raises toward its supervisor.
            return Vec::new();
        }
        match catch_unwind(AssertUnwindSafe(|| self.refill_inner(active))) {
            Ok(jobs) => jobs,
            Err(payload) => {
                self.policy_panic = Some(payload);
                Vec::new()
            }
        }
    }

    fn complete(&mut self, tag: u64, sample: GrayImage) {
        let uid = tag >> 32;
        let index = (tag & 0xffff_ffff) as usize;
        if let Some(route) = self.routes.get_mut(&uid) {
            let delivered = route
                .tx
                .send(SchedMsg::Batch {
                    start: index,
                    samples: vec![sample],
                })
                .is_ok();
            if !delivered {
                // The consumer dropped the stream: retire the
                // submission so the dispatcher stops sampling into
                // the void (the caller's cancel token is left alone —
                // it may be shared across rounds).
                route.retired.store(true, Ordering::Relaxed);
            }
        }
        self.release(uid);
    }

    fn evict(&mut self, tag: u64) -> bool {
        let uid = tag >> 32;
        // Only retired submissions are evicted mid-flight (delivery
        // already failed, or a fault poisoned them). Cancelled and
        // deadline-expired submissions keep their admitted slots to
        // completion — evicting those would strand already-delivered
        // out-of-order samples in the consumer's reorder buffer.
        let retired = self
            .routes
            .get(&uid)
            .is_none_or(|route| route.retired.load(Ordering::Relaxed));
        if retired {
            self.release(uid);
        }
        retired
    }

    fn on_step(&mut self, active: usize) {
        self.shared
            .slots_filled
            .fetch_add(active as u64, Ordering::Relaxed);
        self.shared.slots_idle.fetch_add(
            self.capacity.saturating_sub(active) as u64,
            Ordering::Relaxed,
        );
        if self.routes.len() > 1 {
            // This pass packs jobs from >1 submission.
            self.shared.batches_merged.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, model: &Arc<DiffusionModel>) {
    let mut worker = model.worker();
    loop {
        let mut feed = SchedFeed::new(Arc::clone(shared));
        // Panic isolation: a panic inside the model is contained to
        // the submissions whose slots were in this worker's table —
        // converted to typed aborts while the worker rebuilds its
        // U-Net scratch state and keeps serving everyone else.
        // (Injected faults never reach this path: they are synthesized
        // at slot admission, poisoning one slot's submission without
        // unwinding the shared step loop.)
        let outcome = catch_unwind(AssertUnwindSafe(|| worker.run_slots(&mut feed)));
        match outcome {
            Ok(Ok(())) => match feed.policy_panic.take() {
                // A policy panic is a scheduler bug, not a model
                // fault: re-raise it so the supervisor counts a lost
                // worker loop and respawns.
                Some(payload) => std::panic::resume_unwind(payload),
                None => return, // clean shutdown
            },
            // Shapes are validated at submit time, so a model error is
            // a defensive path; consumers still see a hard typed error
            // rather than silently short streams.
            Ok(Err(e)) => {
                let detail = format!("scheduler worker failed: {e}");
                feed.abort_inflight(|| PpError::Model(detail.clone()));
            }
            Err(payload) => {
                shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                // The worker's U-Net scratch state is suspect after an
                // unwind through it: rebuild from the shared model.
                worker = model.worker();
                let detail = panic_detail(payload);
                feed.abort_inflight(|| PpError::WorkerPanic {
                    detail: detail.clone(),
                });
            }
        }
    }
}

/// Upper bound on worker-loop respawns per thread: far above anything a
/// fault plan produces, low enough that a deterministically crashing
/// loop (a policy that panics on every ranking) cannot spin forever.
const MAX_RESPAWNS: u64 = 64;

/// The supervisor each worker thread actually runs: re-enters
/// [`worker_loop`] after an *escaped* panic (one that unwound outside
/// the per-micro-batch `catch_unwind` — a buggy policy, say), counting
/// each loss in [`SchedulerStats::workers_lost`]. When a thread
/// exhausts its respawn budget it retires; when the *last* thread
/// retires, queued submissions are aborted and `submit` starts
/// refusing, so nothing hangs on a pool that no longer exists.
fn supervise(shared: Arc<Shared>, model: Arc<DiffusionModel>) {
    let mut respawns = 0u64;
    loop {
        if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, &model))).is_ok() {
            return; // clean shutdown
        }
        shared.workers_lost.fetch_add(1, Ordering::Relaxed);
        respawns += 1;
        if respawns > MAX_RESPAWNS {
            break;
        }
        // Let any co-panicking siblings clear the state before the
        // loop re-enters it.
        std::thread::sleep(Duration::from_millis(1));
    }
    if shared.workers_alive.fetch_sub(1, Ordering::SeqCst) == 1 {
        // Last worker gone: nobody will ever dispatch again. Abort
        // queued submissions rather than letting consumers block on a
        // recv that cannot complete.
        let mut st = lock_state(&shared);
        let orphans: Vec<Submission> = st.queue.drain(..).collect();
        for sub in orphans {
            st.stats.abandoned[sub.class.index()] += 1;
            st.stats.turnaround_micros += sub.submitted_at.elapsed().as_micros() as u64;
            let _ = sub.tx.send(SchedMsg::Aborted(PpError::Model(
                "scheduler worker pool lost all workers".into(),
            )));
        }
    }
}

/// A shared pool of sampling workers serving many sessions under a
/// pluggable [`SchedPolicy`].
///
/// Created by [`crate::Engine::scheduler`] (default round-robin) or
/// [`crate::Engine::scheduler_with`] (explicit policy + admission
/// bounds). Keep it alive while attached sessions run: dropping it
/// joins the workers and aborts still-queued submissions with an
/// error. Cheap handles ([`Scheduler::handle`]) are what sessions
/// hold; [`Scheduler::stats`] snapshots queue depths and dispatch
/// counters.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers.len())
            .field("image", &self.shared.image)
            .field("limits", &self.shared.limits)
            .finish()
    }
}

impl Scheduler {
    /// Spawns `threads` workers bound to `model` (at least one) under
    /// the default options.
    pub(crate) fn new(model: Arc<DiffusionModel>, threads: usize) -> Scheduler {
        Scheduler::new_with(model, threads, SchedulerOptions::default())
    }

    /// Spawns `threads` workers under an explicit policy and admission
    /// bounds.
    pub(crate) fn new_with(
        model: Arc<DiffusionModel>,
        threads: usize,
        options: SchedulerOptions,
    ) -> Scheduler {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                policy: options.policy,
                stats: StatsInner::default(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            image: model.config().image,
            threads,
            limits: options.limits,
            next_session: AtomicU64::new(1),
            next_uid: AtomicU64::new(1),
            worker_panics: AtomicU64::new(0),
            workers_lost: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(threads),
            has_faults: !options.faults.is_empty(),
            faults: Mutex::new(options.faults),
            shed_wait: options.shed_wait,
            slot_capacity: options.slot_capacity,
            slots_filled: AtomicU64::new(0),
            slots_idle: AtomicU64::new(0),
            batches_merged: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let model = Arc::clone(&model);
                std::thread::spawn(move || supervise(shared, model))
            })
            .collect();
        Scheduler { shared, workers }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The per-class admission bounds.
    pub fn limits(&self) -> QueueLimits {
        self.shared.limits
    }

    /// A cheap, cloneable handle sessions submit through. Each call
    /// allocates a fresh session id for [`SchedulerStats::per_session`]
    /// attribution; clones of one handle share its id.
    pub fn handle(&self) -> SchedulerHandle {
        SchedulerHandle {
            session: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
            shared: Arc::clone(&self.shared),
        }
    }

    /// A snapshot of queue depths, admission counters and dispatch
    /// accounting.
    pub fn stats(&self) -> SchedulerStats {
        snapshot(&self.shared)
    }

    /// Whether the worker pool can still serve: `false` once every
    /// worker thread has exhausted its respawn budget (the pool is
    /// wedged and [`SchedulerHandle`] submissions are being refused).
    /// The fleet router polls this to decide when a replica must be
    /// retired and its queue redistributed.
    pub fn is_healthy(&self) -> bool {
        self.shared.workers_alive.load(Ordering::SeqCst) > 0
    }

    /// Stops admission and aborts still-queued submissions with a
    /// typed error (their terminal timestamps still land in
    /// [`SchedulerStats::turnaround_micros`]). Workers finish their
    /// in-flight slot tables and exit; `Drop` performs the same drain
    /// before joining them, so calling this explicitly is only needed
    /// to quiesce a pool *before* letting it go out of scope — e.g. a
    /// fleet draining one replica while others keep serving.
    pub fn drain(&self) {
        drain_shared(&self.shared);
    }
}

/// The shutdown half of `Drop`, shared with [`Scheduler::drain`]:
/// flags shutdown, aborts the queue (stamping turnarounds — handles
/// may outlive the scheduler and read stats) and wakes every worker.
fn drain_shared(shared: &Shared) {
    {
        let mut st = lock_state(shared);
        st.shutdown = true;
        // Still-queued submissions must not end as silently short
        // streams: abort them explicitly.
        let drained: Vec<Submission> = st.queue.drain(..).collect();
        for sub in drained {
            st.stats.turnaround_micros += sub.submitted_at.elapsed().as_micros() as u64;
            let _ = sub.tx.send(SchedMsg::Aborted(PpError::Model(
                "scheduler shut down mid-request".into(),
            )));
        }
    }
    shared.cv.notify_all();
}

fn snapshot(shared: &Shared) -> SchedulerStats {
    let st = lock_state(shared);
    let mut queued = [0u64; 3];
    for sub in &st.queue {
        queued[sub.class.index()] += 1;
    }
    SchedulerStats {
        policy: st.policy.name().to_string(),
        threads: shared.threads,
        queued: ClassCounts::from_raw(queued),
        admitted: ClassCounts::from_raw(st.stats.admitted),
        rejected: ClassCounts::from_raw(st.stats.rejected),
        completed: ClassCounts::from_raw(st.stats.completed),
        abandoned: ClassCounts::from_raw(st.stats.abandoned),
        timed_out: ClassCounts::from_raw(st.stats.timed_out),
        shed: st.stats.shed,
        worker_panics: shared.worker_panics.load(Ordering::Relaxed),
        workers_lost: shared.workers_lost.load(Ordering::Relaxed),
        micro_batches: st.stats.micro_batches,
        samples: st.stats.samples,
        slots_filled: shared.slots_filled.load(Ordering::Relaxed),
        slots_idle: shared.slots_idle.load(Ordering::Relaxed),
        batches_merged: shared.batches_merged.load(Ordering::Relaxed),
        wait_micros: st.stats.wait_micros,
        wait_p50_micros: st.stats.wait_percentile(50),
        wait_p90_micros: st.stats.wait_percentile(90),
        wait_p50_micros_by_class: st.stats.class_wait_percentile(50),
        wait_p99_micros_by_class: st.stats.class_wait_percentile(99),
        turnaround_micros: st.stats.turnaround_micros,
        recent_wait_micros: st.stats.recent_waits.iter().copied().collect(),
        recent_wait_micros_by_class: [
            st.stats.recent_class_waits[0].iter().copied().collect(),
            st.stats.recent_class_waits[1].iter().copied().collect(),
            st.stats.recent_class_waits[2].iter().copied().collect(),
        ],
        per_session: st
            .stats
            .per_session
            .iter()
            .map(
                |(&session, &(class, micro_batches, samples))| SessionSched {
                    session,
                    class,
                    micro_batches,
                    samples,
                },
            )
            .collect(),
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        drain_shared(&self.shared);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A cloneable submission handle onto a [`Scheduler`]'s worker pool.
#[derive(Clone)]
pub struct SchedulerHandle {
    shared: Arc<Shared>,
    session: u64,
}

impl std::fmt::Debug for SchedulerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerHandle")
            .field("image", &self.shared.image)
            .field("session", &self.session)
            .finish()
    }
}

impl SchedulerHandle {
    /// Queues `jobs` for sampling with per-job seeds `seed ^ index`,
    /// micro-batched `batch` jobs at a time under `class` (and an
    /// optional `deadline` from now, soft unless `hard_deadline`);
    /// returns the in-order receiver.
    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        jobs: Vec<(GrayImage, GrayImage)>,
        seed: u64,
        batch: usize,
        cancel: CancelToken,
        class: QosClass,
        deadline: Option<Duration>,
        hard_deadline: bool,
    ) -> Result<ScheduledRx, PpError> {
        for (img, mask) in &jobs {
            for (what, side) in [("image", img), ("mask", mask)].map(|(w, i)| (w, i.width())) {
                if side != self.shared.image {
                    return Err(PpError::Shape {
                        what: format!("scheduled job {what} vs model image"),
                        expected: self.shared.image,
                        actual: side,
                    });
                }
            }
        }
        if self.shared.workers_alive.load(Ordering::SeqCst) == 0 {
            return Err(PpError::Model(
                "scheduler worker pool lost all workers".into(),
            ));
        }
        let total = jobs.len();
        let (tx, rx) = mpsc::channel();
        {
            let mut st = lock_state(&self.shared);
            if st.shutdown {
                return Err(PpError::Model("scheduler is shut down".into()));
            }
            let depth = st.queue.iter().filter(|s| s.class == class).count();
            let limit = self.shared.limits.limit(class);
            if depth >= limit {
                st.stats.rejected[class.index()] += 1;
                return Err(PpError::Rejected {
                    reason: format!(
                        "{class} submission queue is full ({depth} queued, limit {limit})"
                    ),
                });
            }
            // Overload shedding: when recent queue waits say the pool
            // is saturated, refuse best-effort work at the door (it
            // would only deepen everyone's backlog). An empty window
            // never sheds — the signal must be observed, not assumed.
            if class == QosClass::BestEffort {
                if let Some(threshold) = self.shared.shed_wait {
                    let p90 = st.stats.wait_percentile(90);
                    if !st.stats.recent_waits.is_empty() && Duration::from_micros(p90) > threshold {
                        st.stats.shed += 1;
                        st.stats.rejected[class.index()] += 1;
                        return Err(PpError::Rejected {
                            reason: format!(
                                "best-effort work shed under overload \
                                 (recent wait p90 {p90}us over threshold {threshold:?})"
                            ),
                        });
                    }
                }
            }
            st.stats.admitted[class.index()] += 1;
            // Join the stride-scheduling frontier: starting at the
            // queue's minimum pass (not 0) keeps a newcomer from
            // monopolising dispatch until it "catches up" with
            // long-running submissions.
            let pass = st.queue.iter().map(|s| s.pass).min().unwrap_or(0);
            st.queue.push_back(Submission {
                uid: self.shared.next_uid.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff,
                jobs: Arc::new(jobs),
                seed,
                batch: batch.max(1),
                cursor: 0,
                dispatched: 0,
                pass,
                credits: 0,
                session: self.session,
                class,
                // checked_add: a deadline too far to represent is the
                // same as no deadline, never a panic.
                deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
                hard_deadline,
                submitted_at: Instant::now(),
                cancel,
                retired: Arc::new(std::sync::atomic::AtomicBool::new(false)),
                inflight: Arc::new(AtomicUsize::new(0)),
                tx,
            });
        }
        self.shared.cv.notify_all();
        Ok(ScheduledRx {
            rx,
            pending: BTreeMap::new(),
            next: 0,
            total,
        })
    }

    /// A snapshot of the owning scheduler's stats (see
    /// [`Scheduler::stats`]).
    pub fn stats(&self) -> SchedulerStats {
        snapshot(&self.shared)
    }

    /// Whether the owning pool can still serve (see
    /// [`Scheduler::is_healthy`]).
    pub fn is_healthy(&self) -> bool {
        self.shared.workers_alive.load(Ordering::SeqCst) > 0
    }

    /// Consumes the fault planted for this handle's session at
    /// `ordinal`, if any — the chaos hook for workloads that dispatch
    /// work themselves instead of through the sampling pool (the
    /// service's train driver keys it on the epoch index, mirroring
    /// how sampling keys on the slot ordinal). A consumed
    /// [`Fault::PanicAt`] counts against
    /// [`SchedulerStats::worker_panics`], exactly as a sampling-path
    /// panic does.
    pub(crate) fn take_fault(&self, ordinal: u64) -> Option<Fault> {
        if !self.shared.has_faults {
            return None;
        }
        let fault = self
            .shared
            .faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take(self.session, ordinal);
        if matches!(fault, Some(Fault::PanicAt { .. })) {
            self.shared.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }
}

/// In-order micro-batch delivery for one submission: workers may finish
/// out of order, so batches are buffered until their predecessor
/// arrived (dispatch is sequential per submission, so the dispatched
/// set is always a prefix and the reorder buffer always drains).
#[derive(Debug)]
struct ScheduledRx {
    rx: Receiver<SchedMsg>,
    pending: BTreeMap<usize, Vec<GrayImage>>,
    next: usize,
    total: usize,
}

impl Iterator for ScheduledRx {
    type Item = Result<(usize, Vec<GrayImage>), PpError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(samples) = self.pending.remove(&self.next) {
                let start = self.next;
                self.next += samples.len();
                return Some(Ok((start, samples)));
            }
            if self.next >= self.total {
                return None;
            }
            match self.rx.recv() {
                Ok(SchedMsg::Batch { start, samples }) => {
                    self.pending.insert(start, samples);
                }
                Ok(SchedMsg::Aborted(e)) => {
                    // Poison: no further batches will be delivered.
                    // The error stays typed end to end so the service
                    // can classify it (transient → retry, deadline →
                    // `TimedOut`).
                    self.total = self.next;
                    return Some(Err(e));
                }
                // All senders gone: cancellation retired the
                // submission (clean early end) — or a worker died
                // mid-batch, which would leave a gap; report that.
                Err(_) => {
                    if self.pending.is_empty() {
                        return None;
                    }
                    self.total = self.next;
                    return Some(Err(PpError::Model(
                        "scheduler worker lost a dispatched micro-batch".into(),
                    )));
                }
            }
        }
    }
}

/// A [`Sampler`] that routes requests through a [`Scheduler`].
///
/// This is what a [`crate::Session`] with an attached scheduler runs
/// its rounds through, and what [`crate::DiffusionSampler`] wraps
/// around a private scheduler per request; outputs are bit-identical
/// either way because per-job RNG streams (`seed ^ index`) and in-order
/// delivery are preserved and micro-batch grouping never affects a
/// job's arithmetic. The QoS
/// class and soft deadline of each submission come from the
/// [`StreamOptions`] the round runs under
/// ([`StreamOptions::with_class`] / [`StreamOptions::with_deadline`]).
#[derive(Debug, Clone)]
pub struct ScheduledSampler {
    handle: SchedulerHandle,
    batch_size: usize,
}

impl ScheduledSampler {
    /// Wraps a scheduler handle; `batch_size` is the micro-batch
    /// granularity submissions are interleaved at (`0` = the whole
    /// request as one batch, which forfeits fairness).
    pub fn new(handle: SchedulerHandle, batch_size: usize) -> ScheduledSampler {
        ScheduledSampler { handle, batch_size }
    }
}

impl Sampler for ScheduledSampler {
    fn name(&self) -> &str {
        "diffusion-inpaint-scheduled"
    }

    fn sample(&self, jobs: &JobSet, seed: u64) -> Result<Vec<RawSample>, PpError> {
        let stream = self.sample_stream(jobs, seed, &StreamOptions::default())?;
        let samples: Vec<RawSample> = stream.collect::<Result<_, _>>()?;
        if samples.len() != jobs.len() {
            return Err(PpError::Model(format!(
                "scheduler returned {} of {} samples",
                samples.len(),
                jobs.len()
            )));
        }
        Ok(samples)
    }

    fn sample_stream(
        &self,
        jobs: &JobSet,
        seed: u64,
        opts: &StreamOptions,
    ) -> Result<SampleStream, PpError> {
        if opts.cancel.is_cancelled() {
            return Ok(Box::new(std::iter::empty()));
        }
        let images: Vec<(GrayImage, GrayImage)> = jobs
            .iter()
            .map(|(l, m)| (GrayImage::from_layout(l), m.as_image().clone()))
            .collect();
        let micro = if self.batch_size == 0 {
            jobs.len().max(1)
        } else {
            self.batch_size
        };
        let rx = self.handle.submit(
            images,
            seed,
            micro,
            opts.cancel.clone(),
            opts.class,
            opts.deadline,
            opts.hard_deadline,
        )?;
        let templates: Vec<Arc<Layout>> = jobs.iter().map(|(t, _)| Arc::clone(t)).collect();
        let hook = opts.progress.clone();
        let total = jobs.len();
        let mut completed = 0usize;
        let iter = rx.flat_map(move |item| match item {
            Ok((start, samples)) => {
                completed += samples.len();
                if let Some(hook) = &hook {
                    hook(Progress { completed, total });
                }
                let batch_templates = templates[start..start + samples.len()].to_vec();
                samples
                    .into_iter()
                    .zip(batch_templates)
                    .map(|(raw, template)| Ok(RawSample { template, raw }))
                    .collect::<Vec<_>>()
            }
            Err(e) => vec![Err(e)],
        });
        Ok(Box::new(iter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_diffusion::DiffusionConfig;

    fn tiny_model() -> Arc<DiffusionModel> {
        Arc::new(DiffusionModel::new(DiffusionConfig::tiny(16), 3))
    }

    fn jobs(n: usize) -> Vec<(GrayImage, GrayImage)> {
        (0..n)
            .map(|i| {
                let mut image = GrayImage::filled(16, 16, -1.0);
                for y in 0..16 {
                    image.set(i as u32 % 16, y, 1.0);
                }
                (image, GrayImage::filled(16, 16, 1.0))
            })
            .collect()
    }

    fn submit_default(
        sched: &Scheduler,
        jobs: Vec<(GrayImage, GrayImage)>,
        seed: u64,
        batch: usize,
        cancel: CancelToken,
    ) -> Result<ScheduledRx, PpError> {
        sched
            .handle()
            .submit(jobs, seed, batch, cancel, QosClass::Batch, None, false)
    }

    /// A view with the pass the scheduler would maintain for a
    /// submission that joined at frontier 0 and dispatched this many
    /// micro-batches (`pass = dispatched × 4 / weight`).
    fn view(class: QosClass, deadline_in: Option<u64>, dispatched: u64) -> SchedView {
        let stride = u64::from(QosClass::Interactive.weight() / class.weight());
        view_at(class, deadline_in, dispatched, dispatched * stride)
    }

    fn view_at(class: QosClass, deadline_in: Option<u64>, dispatched: u64, pass: u64) -> SchedView {
        SchedView {
            class,
            deadline: deadline_in.map(|ms| Instant::now() + Duration::from_secs(ms)),
            dispatched,
            pass,
            remaining: 1,
            session: 0,
        }
    }

    #[test]
    fn round_robin_always_rotates_the_front() {
        let q = [
            view(QosClass::BestEffort, None, 9),
            view(QosClass::Interactive, Some(1), 0),
        ];
        assert_eq!(RoundRobin.rank(&q)[0], 0);
    }

    #[test]
    fn weighted_fair_shares_by_class_weight() {
        // An interactive submission's pass advances 4x slower than a
        // best-effort one's: after 3 interactive dispatches (pass 3)
        // and 1 best-effort dispatch (pass 4), interactive still runs.
        let q = [
            view(QosClass::BestEffort, None, 1),
            view(QosClass::Interactive, None, 3),
        ];
        assert_eq!(WeightedFair.rank(&q)[0], 1);
        // At pass parity the heavier class wins — at equal virtual
        // time the better QoS class is served first, so an interactive
        // arrival at the frontier preempts a best-effort flood at the
        // next free slot instead of waiting out a full frontier round.
        let q = [
            view(QosClass::BestEffort, None, 1),
            view(QosClass::Interactive, None, 4),
        ];
        assert_eq!(WeightedFair.rank(&q)[0], 1);
        // At pass *and* weight parity the oldest submission wins.
        let q = [
            view(QosClass::Batch, None, 2),
            view(QosClass::Batch, None, 2),
        ];
        assert_eq!(WeightedFair.rank(&q)[0], 0);
        // Single-class queues degrade to exact round-robin: equal
        // counts pick the front.
        let q = [
            view(QosClass::Batch, None, 2),
            view(QosClass::Batch, None, 2),
        ];
        assert_eq!(WeightedFair.rank(&q)[0], 0);
        // A newcomer joins at the frontier (submit initialises its
        // pass to the queue minimum), so an old submission with many
        // dispatches is not starved while the newcomer "catches up":
        // at the shared frontier the heavier class simply wins ties by
        // accumulating pass more slowly.
        let q = [
            view_at(QosClass::Batch, None, 300, 600),
            view_at(QosClass::BestEffort, None, 0, 600),
        ];
        assert_eq!(
            WeightedFair.rank(&q)[0],
            0,
            "frontier newcomer must not preempt the established share"
        );
    }

    /// The stride frontier is what `submit` hands a newcomer: the
    /// minimum pass over the live queue, never 0.
    #[test]
    fn newcomers_join_at_the_pass_frontier() {
        let model = tiny_model();
        let sched = Scheduler::new_with(
            Arc::clone(&model),
            1,
            SchedulerOptions::new().policy(WeightedFair),
        );
        // Drain a first submission completely so its pass advanced,
        // then check a second one still gets served promptly (its pass
        // starts at the frontier, but more importantly the queue-min
        // rule means an empty queue resets to 0 without underflow).
        let rx = submit_default(&sched, jobs(6), 1, 2, CancelToken::new()).unwrap();
        assert_eq!(rx.map(|r| r.unwrap().1.len()).sum::<usize>(), 6);
        let rx = submit_default(&sched, jobs(4), 2, 2, CancelToken::new()).unwrap();
        assert_eq!(rx.map(|r| r.unwrap().1.len()).sum::<usize>(), 4);
        assert_eq!(sched.stats().completed.get(QosClass::Batch), 2);
    }

    #[test]
    fn deadline_first_orders_by_deadline_then_falls_back() {
        let q = [
            view(QosClass::Interactive, None, 0),
            view(QosClass::BestEffort, Some(60), 5),
            view(QosClass::Batch, Some(10), 5),
        ];
        // The tightest deadline wins regardless of class or position.
        assert_eq!(DeadlineFirst.rank(&q)[0], 2);
        // No deadlines anywhere: weighted-fair order.
        let q = [
            view(QosClass::BestEffort, None, 1),
            view(QosClass::Interactive, None, 3),
        ];
        assert_eq!(DeadlineFirst.rank(&q)[0], 1);
    }

    #[test]
    fn interleaved_submissions_match_solo_batches() {
        let model = tiny_model();
        let solo_a = model.sample_inpaint_batch_sized(&jobs(7), 5, 1, 0).unwrap();
        let solo_b = model.sample_inpaint_batch_sized(&jobs(5), 9, 1, 0).unwrap();
        let sched = Scheduler::new(Arc::clone(&model), 3);
        let rx_a = submit_default(&sched, jobs(7), 5, 2, CancelToken::new()).unwrap();
        let rx_b = submit_default(&sched, jobs(5), 9, 3, CancelToken::new()).unwrap();
        let collect = |rx: ScheduledRx| {
            let mut out = Vec::new();
            for item in rx {
                let (start, samples) = item.unwrap();
                assert_eq!(start, out.len(), "delivery out of job order");
                out.extend(samples);
            }
            out
        };
        // Consume on two threads so both streams drain while workers
        // interleave the submissions.
        let (got_a, got_b) = std::thread::scope(|s| {
            let ha = s.spawn(|| collect(rx_a));
            let got_b = collect(rx_b);
            (ha.join().unwrap(), got_b)
        });
        assert_eq!(got_a, solo_a);
        assert_eq!(got_b, solo_b);
        // Observability: both submissions were admitted, dispatched
        // and completed under distinct session ids.
        let stats = sched.stats();
        assert_eq!(stats.policy, "round-robin");
        assert_eq!(stats.admitted.get(QosClass::Batch), 2);
        assert_eq!(stats.completed.get(QosClass::Batch), 2);
        assert_eq!(stats.samples, 12);
        assert_eq!(stats.per_session.len(), 2);
        assert!(stats.micro_batches >= 4 + 2, "micro-batch accounting");
    }

    #[test]
    fn admission_control_rejects_at_the_class_bound() {
        let model = tiny_model();
        // One worker, zero-capacity interactive queue: the very first
        // interactive submit must be refused while batch still fits.
        let sched = Scheduler::new_with(
            model,
            1,
            SchedulerOptions::new().limits(QueueLimits {
                interactive: 0,
                batch: 8,
                best_effort: 8,
            }),
        );
        let handle = sched.handle();
        let err = handle
            .submit(
                jobs(4),
                1,
                1,
                CancelToken::new(),
                QosClass::Interactive,
                None,
                false,
            )
            .unwrap_err();
        assert!(
            matches!(err, PpError::Rejected { .. }),
            "wrong error: {err}"
        );
        assert!(
            err.to_string().contains("interactive"),
            "reason must name the class: {err}"
        );
        // The batch class is unaffected by the interactive bound.
        let rx = handle
            .submit(
                jobs(2),
                1,
                1,
                CancelToken::new(),
                QosClass::Batch,
                None,
                false,
            )
            .unwrap();
        assert_eq!(rx.map(|r| r.unwrap().1.len()).sum::<usize>(), 2);
        let stats = sched.stats();
        assert_eq!(stats.rejected.get(QosClass::Interactive), 1);
        assert_eq!(stats.admitted.get(QosClass::Batch), 1);
    }

    #[test]
    fn cancellation_retires_a_submission_cleanly() {
        let model = tiny_model();
        let sched = Scheduler::new(model, 1);
        let cancel = CancelToken::new();
        let rx = submit_default(&sched, jobs(32), 1, 1, cancel.clone()).unwrap();
        let mut seen = 0;
        for item in rx {
            let _ = item.expect("cancellation is not an error");
            seen += 1;
            cancel.cancel();
        }
        assert!(seen >= 1, "partial results must still be delivered");
        assert!(seen < 32, "cancellation failed to stop the submission");
    }

    #[test]
    fn shutdown_aborts_queued_submissions_with_an_error() {
        let model = tiny_model();
        let sched = Scheduler::new(model, 1);
        let rx = submit_default(&sched, jobs(64), 1, 1, CancelToken::new()).unwrap();
        let handle = sched.handle();
        drop(sched);
        // Whatever was in flight may arrive; the tail must be a hard
        // error, never a silent truncation.
        let mut err = None;
        for item in rx {
            if let Err(e) = item {
                err = Some(e);
                break;
            }
        }
        assert!(err.is_some(), "shutdown must surface an error");
        // New submissions are rejected.
        assert!(handle
            .submit(
                jobs(1),
                0,
                1,
                CancelToken::new(),
                QosClass::Batch,
                None,
                false
            )
            .is_err());
    }

    /// Dropping a submission's stream must retire it: the pool moves
    /// on to later submissions instead of sampling into the void.
    #[test]
    fn dropped_stream_retires_its_submission() {
        let model = tiny_model();
        let sched = Scheduler::new(model, 1);
        let rx = submit_default(&sched, jobs(64), 1, 1, CancelToken::new()).unwrap();
        drop(rx);
        // A fresh submission drains promptly because the abandoned one
        // is retired after at most one failed delivery.
        let rx2 = submit_default(&sched, jobs(2), 3, 1, CancelToken::new()).unwrap();
        let delivered: usize = rx2.map(|item| item.unwrap().1.len()).sum();
        assert_eq!(delivered, 2);
    }

    #[test]
    fn submit_validates_shapes() {
        let model = tiny_model();
        let sched = Scheduler::new(model, 1);
        let bad = vec![(
            GrayImage::filled(8, 8, -1.0),
            GrayImage::filled(16, 16, 1.0),
        )];
        let err = submit_default(&sched, bad, 0, 1, CancelToken::new()).unwrap_err();
        assert!(matches!(err, PpError::Shape { .. }), "wrong error: {err}");
    }

    #[test]
    fn wait_percentiles_use_nearest_rank() {
        let mut stats = StatsInner::default();
        assert_eq!(stats.wait_percentile(90), 0, "empty window reads 0");
        stats.recent_waits.extend([50, 10, 40, 20, 30]);
        assert_eq!(stats.wait_percentile(50), 30);
        assert_eq!(stats.wait_percentile(90), 50);
        assert_eq!(stats.wait_percentile(100), 50);
    }

    /// A hand-built fixture snapshot with distinctive values in every
    /// field `merge` must touch.
    fn merge_fixture(policy: &str, scale: u64) -> SchedulerStats {
        SchedulerStats {
            policy: policy.to_string(),
            threads: scale as usize,
            queued: ClassCounts::from_raw([scale, 0, 0]),
            admitted: ClassCounts::from_raw([10 * scale, scale, 0]),
            rejected: ClassCounts::from_raw([0, 0, scale]),
            completed: ClassCounts::from_raw([9 * scale, scale, 0]),
            abandoned: ClassCounts::from_raw([scale, 0, 0]),
            timed_out: ClassCounts::from_raw([0, scale, 0]),
            shed: scale,
            worker_panics: 2 * scale,
            workers_lost: scale,
            micro_batches: 100 * scale,
            samples: 400 * scale,
            slots_filled: 1000 * scale,
            slots_idle: 10 * scale,
            batches_merged: 5 * scale,
            wait_micros: 7000 * scale,
            turnaround_micros: 9000 * scale,
            recent_wait_micros: vec![10 * scale, 20 * scale],
            recent_wait_micros_by_class: [vec![10 * scale], vec![20 * scale], Vec::new()],
            per_session: vec![SessionSched {
                session: 1,
                class: QosClass::Interactive,
                micro_batches: 3 * scale,
                samples: 12 * scale,
            }],
            ..SchedulerStats::default()
        }
    }

    #[test]
    fn merge_sums_counters_and_recomputes_percentiles() {
        let merged = SchedulerStats::merge(&[merge_fixture("rr", 1), merge_fixture("rr", 2)]);
        assert_eq!(merged.policy, "rr", "uniform policy keeps its name");
        assert_eq!(merged.threads, 3);
        assert_eq!(merged.queued.total(), 3);
        assert_eq!(merged.admitted, ClassCounts::from_raw([30, 3, 0]));
        assert_eq!(merged.rejected.best_effort, 3);
        assert_eq!(merged.completed, ClassCounts::from_raw([27, 3, 0]));
        assert_eq!(merged.abandoned.interactive, 3);
        assert_eq!(merged.timed_out.batch, 3);
        assert_eq!(merged.shed, 3);
        assert_eq!(merged.worker_panics, 6);
        assert_eq!(merged.workers_lost, 3);
        assert_eq!(merged.micro_batches, 300);
        assert_eq!(merged.samples, 1200);
        assert_eq!(merged.slots_filled, 3000);
        assert_eq!(merged.slots_idle, 30);
        assert_eq!(merged.batches_merged, 15);
        assert_eq!(merged.wait_micros, 21_000);
        assert_eq!(merged.turnaround_micros, 27_000);
        // Windows concatenate ([10, 20] ++ [20, 40]) and percentiles
        // are recomputed over the combined window, not averaged:
        // nearest-rank p50 of {10, 20, 20, 40} is 20, p90 is 40.
        assert_eq!(merged.recent_wait_micros, vec![10, 20, 20, 40]);
        assert_eq!(merged.wait_p50_micros, 20);
        assert_eq!(merged.wait_p90_micros, 40);
        assert_eq!(
            merged.wait_p50_micros_by_class,
            ClassCounts::from_raw([10, 20, 0])
        );
        assert_eq!(
            merged.wait_p99_micros_by_class,
            ClassCounts::from_raw([20, 40, 0])
        );
        // Same session id on two parts: summed (ids are per-scheduler;
        // fleet callers keep per-replica snapshots for attribution).
        assert_eq!(merged.per_session.len(), 1);
        assert_eq!(merged.per_session[0].micro_batches, 9);
        assert_eq!(merged.per_session[0].samples, 36);
    }

    #[test]
    fn merge_handles_empty_and_mixed_policies() {
        let empty = SchedulerStats::merge(&[]);
        assert_eq!(empty.policy, "");
        assert_eq!(empty.threads, 0);
        assert_eq!(empty.wait_p90_micros, 0, "no window reads 0");
        let mixed = SchedulerStats::merge(&[merge_fixture("rr", 1), merge_fixture("wf", 1)]);
        assert_eq!(mixed.policy, "mixed");
        assert_eq!(mixed.threads, 2);
        // A single part round-trips its own percentiles.
        let solo = SchedulerStats::merge(&[merge_fixture("df", 2)]);
        assert_eq!(solo.policy, "df");
        assert_eq!(solo.wait_p50_micros, 20);
        assert_eq!(solo.wait_p90_micros, 40);
    }

    /// An injected panic is contained to its one submission: the stream
    /// ends with a typed `WorkerPanic`, the pool keeps serving, and a
    /// later submission on the same pool completes — with `stats()`
    /// working throughout (no poisoned-mutex panic).
    #[test]
    fn injected_panic_is_isolated_and_the_pool_survives() {
        let model = tiny_model();
        // Session ids start at 1; the first handle() call gets 1.
        // Faults key on slot ordinals (job index within the
        // submission): ordinal 2 is the first slot of the second
        // admission group under micro-batch width 2.
        let plan = FaultPlan::new().inject(1, Fault::PanicAt { batch: 2 });
        let sched = Scheduler::new_with(model, 1, SchedulerOptions::new().faults(plan));
        let handle = sched.handle();
        let rx = handle
            .submit(
                jobs(6),
                7,
                2,
                CancelToken::new(),
                QosClass::Batch,
                None,
                false,
            )
            .unwrap();
        let mut delivered = 0;
        let mut err = None;
        for item in rx {
            match item {
                Ok((_, samples)) => delivered += samples.len(),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(delivered, 2, "slots 0-1 land before the slot-2 fault");
        let err = err.expect("the faulted submission must surface an error");
        assert!(
            matches!(err, PpError::WorkerPanic { .. }),
            "wrong error: {err}"
        );
        assert!(err.is_transient(), "worker panics are retryable");
        // The pool survived: stats work and a fresh submission drains.
        let stats = sched.stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.workers_lost, 0, "the panic never escaped the batch");
        let rx = submit_default(&sched, jobs(3), 9, 1, CancelToken::new()).unwrap();
        assert_eq!(rx.map(|r| r.unwrap().1.len()).sum::<usize>(), 3);
    }

    #[test]
    fn injected_error_surfaces_as_transient_io() {
        let model = tiny_model();
        let plan = FaultPlan::new().inject(1, Fault::ErrAt { batch: 0 });
        let sched = Scheduler::new_with(model, 1, SchedulerOptions::new().faults(plan));
        let handle = sched.handle();
        let rx = handle
            .submit(
                jobs(2),
                3,
                1,
                CancelToken::new(),
                QosClass::Batch,
                None,
                false,
            )
            .unwrap();
        let err = rx
            .map(Result::unwrap_err)
            .next()
            .expect("the fault fires on the first micro-batch");
        assert!(matches!(err, PpError::Io(_)), "wrong error: {err}");
        assert!(err.is_transient());
    }

    /// An already-expired hard deadline retires the submission with
    /// `DeadlineExceeded` before any micro-batch is dispatched.
    #[test]
    fn expired_hard_deadline_times_the_submission_out() {
        let model = tiny_model();
        let sched = Scheduler::new(model, 1);
        let handle = sched.handle();
        let rx = handle
            .submit(
                jobs(4),
                5,
                1,
                CancelToken::new(),
                QosClass::Interactive,
                Some(Duration::ZERO),
                true,
            )
            .unwrap();
        let err = rx
            .map(Result::unwrap_err)
            .next()
            .expect("a zero hard deadline must fire");
        assert!(
            matches!(err, PpError::DeadlineExceeded { .. }),
            "wrong error: {err}"
        );
        assert!(!err.is_transient(), "an expired deadline must not retry");
        // Spin briefly: the abort and the timed_out counter land when a
        // worker purges the queue, slightly after submit returns.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sched.stats().timed_out.get(QosClass::Interactive) == 0 {
            assert!(Instant::now() < deadline, "timed_out counter never moved");
            std::thread::yield_now();
        }
        // A soft deadline over the same pool is advisory: it completes.
        let rx = handle
            .submit(
                jobs(2),
                5,
                1,
                CancelToken::new(),
                QosClass::Interactive,
                Some(Duration::ZERO),
                false,
            )
            .unwrap();
        assert_eq!(rx.map(|r| r.unwrap().1.len()).sum::<usize>(), 2);
    }

    /// With a zero shed threshold, the first observed wait flips the
    /// scheduler into shedding best-effort work — while batch and
    /// interactive submissions still pass admission.
    #[test]
    fn overload_shedding_rejects_best_effort_only() {
        let model = tiny_model();
        let sched = Scheduler::new_with(
            model,
            1,
            SchedulerOptions::new().shed_best_effort_above(Duration::ZERO),
        );
        let handle = sched.handle();
        // Empty window: nothing sheds, even at threshold zero.
        let rx_a = handle
            .submit(
                jobs(2),
                1,
                1,
                CancelToken::new(),
                QosClass::BestEffort,
                None,
                false,
            )
            .expect("an unobserved pool must not shed");
        // A batch-class submission queued behind A's in-flight work
        // records a first-dispatch wait of at least one full DDIM
        // micro-batch — provably nonzero (batch is never shed, so this
        // passes admission whatever the window says).
        let rx_b = handle
            .submit(
                jobs(2),
                2,
                1,
                CancelToken::new(),
                QosClass::Batch,
                None,
                false,
            )
            .unwrap();
        assert_eq!(rx_a.map(|r| r.unwrap().1.len()).sum::<usize>(), 2);
        assert_eq!(rx_b.map(|r| r.unwrap().1.len()).sum::<usize>(), 2);
        // The wait window now holds a nonzero entry, beating the zero
        // threshold: best-effort is shed...
        let err = handle
            .submit(
                jobs(1),
                3,
                1,
                CancelToken::new(),
                QosClass::BestEffort,
                None,
                false,
            )
            .unwrap_err();
        assert!(
            matches!(err, PpError::Rejected { .. }),
            "wrong error: {err}"
        );
        assert!(err.to_string().contains("shed"), "reason was: {err}");
        // ...while higher classes still pass.
        let rx = handle
            .submit(
                jobs(1),
                4,
                1,
                CancelToken::new(),
                QosClass::Batch,
                None,
                false,
            )
            .unwrap();
        assert_eq!(rx.map(|r| r.unwrap().1.len()).sum::<usize>(), 1);
        let stats = sched.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected.get(QosClass::BestEffort), 1);
        assert!(stats.wait_p90_micros >= stats.wait_p50_micros);
    }
}
