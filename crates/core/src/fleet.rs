//! pp-fleet: engine replicas behind a work-stealing router.
//!
//! A [`Fleet`] opens N [`Engine`] replicas from one checkpoint and puts
//! them behind the same declarative front door as [`crate::Service`]:
//! callers submit [`JobSpec`]s and hold [`crate::JobHandle`]s resolving
//! to a terminal [`crate::JobOutcome`]. The two front doors are two
//! dispatchers over one job lifecycle — the same admission counters,
//! per-attempt sessions, outcome classification, retry backoff and
//! settlement. What the fleet changes is *where* an attempt runs — and
//! it promises that does not matter:
//!
//! - **Bit-identity.** Every replica is opened from the same artifact
//!   snapshot and every attempt builds a fresh seeded session, so a job
//!   produces the same library whichever replica executes it, and a
//!   fleet of N is bit-identical to a fleet of one for the same specs.
//! - **Work stealing.** Each replica has a dedicated runner thread and
//!   a router queue. An idle runner first drains its own queue, then
//!   steals the *newest* job from the longest peer queue — job
//!   granularity, never mid-job.
//! - **Back-pressure-aware admission.** The router aggregates
//!   [`SchedulerStats`] across replicas via [`SchedulerStats::merge`]:
//!   per-class active-job depth caps admission fleet-wide
//!   ([`FleetOptions::job_limits`]), and best-effort work is shed when
//!   the merged recent wait p90 crosses
//!   [`FleetOptions::shed_backpressure_above`]. Rejections are counted
//!   by cause in [`FleetStats`].
//! - **Session affinity.** A [`JobSpec::with_affinity`] key pins the
//!   job to the replica holding that session's state. Successful
//!   affinity jobs persist their session to the replica's local store
//!   (PPSS + PPSQ, via [`crate::Session::save`]); later jobs with the
//!   same key resume it there. When the pinned replica is lost or
//!   [`Fleet::drain`]ed, the next job for the key re-homes it: the
//!   serialized session artifacts are copied to the new replica
//!   ([`crate::artifact::copy_artifacts`]) before resuming. Affinity
//!   jobs report the session's *cumulative* totals and library.
//! - **Failure domains.** [`crate::RetryPolicy`] retries prefer a
//!   different replica than the one that just failed. A replica whose
//!   supervised scheduler loses its whole worker pool is retired: its
//!   queued jobs are redistributed to healthy peers, the in-flight job
//!   is failed over *without* consuming a retry attempt, and its saved
//!   sessions migrate lazily on next use. A panic in a stage that runs
//!   on the runner thread (a custom sampler, validator or denoiser, the
//!   round tail, selection) settles that job `Failed`, exactly as on a
//!   service; the runner keeps serving and the replica stays in
//!   rotation, since its scheduler is unharmed. Hard deadlines and
//!   cancellation are honoured while a job is still queued (purged at
//!   the router, including during retry backoff) and while it runs
//!   (enforced by the replica scheduler).
//!
//! Lock order: the router mutex is the outermost lock; the lifecycle's
//! admission counters and job outcome cells are innermost (admitting,
//! booking a retry and settling take them under the router lock);
//! scheduler and store internals are never taken under the router lock
//! (stats snapshots are taken *before* locking it) and are touched only
//! by the one runner that owns the job.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::artifact::{copy_artifacts, validate_key, ArtifactStore, MemStore};
use crate::engine::{session_keys, Engine, Session};
use crate::error::PpError;
use crate::jobspec::{JobKind, JobSpec, QosClass};
use crate::lifecycle::{
    shaped_seed, Admission, AdmittedJob, JobHandle, JobOutcome, JobReport, Verdict,
};
use crate::scheduler::{ClassCounts, QueueLimits, Scheduler, SchedulerOptions, SchedulerStats};
use crate::stream::CancelToken;

/// How a [`Fleet`] is shaped.
///
/// `Default` is two replicas with one sampling thread each, default
/// fleet-wide job limits, and no best-effort shedding.
pub struct FleetOptions {
    /// Replica count for [`Fleet::open`] / [`Fleet::replicate`]
    /// (clamped to at least 1). Ignored by [`Fleet::from_engines`],
    /// which takes one replica per engine handed in.
    pub replicas: usize,
    /// Sampling worker threads per replica scheduler (clamped to at
    /// least 1). A custom [`FleetOptions::scheduler_factory`] does not
    /// override this — thread count and policy are orthogonal.
    pub threads: usize,
    /// Fleet-wide per-class bound on jobs in flight (queued at the
    /// router + running), mirroring [`crate::ServiceOptions`]' limits
    /// but aggregated across all replicas.
    pub job_limits: QueueLimits,
    /// When set, best-effort submissions are shed while the merged
    /// recent wait p90 across healthy replicas exceeds this threshold.
    /// Interactive and batch work is never shed by back-pressure.
    pub shed_backpressure_above: Option<Duration>,
    scheduler: Option<SchedFactory>,
}

type SchedFactory = Box<dyn Fn(usize) -> SchedulerOptions + Send + Sync>;

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            replicas: 2,
            threads: 1,
            job_limits: QueueLimits::default(),
            shed_backpressure_above: None,
            scheduler: None,
        }
    }
}

impl fmt::Debug for FleetOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetOptions")
            .field("replicas", &self.replicas)
            .field("threads", &self.threads)
            .field("job_limits", &self.job_limits)
            .field("shed_backpressure_above", &self.shed_backpressure_above)
            .field(
                "scheduler",
                &if self.scheduler.is_some() {
                    "custom"
                } else {
                    "default"
                },
            )
            .finish()
    }
}

impl FleetOptions {
    /// Default options: see the struct-level docs.
    pub fn new() -> FleetOptions {
        FleetOptions::default()
    }

    /// Sets the replica count.
    pub fn with_replicas(mut self, replicas: usize) -> FleetOptions {
        self.replicas = replicas.max(1);
        self
    }

    /// Sets the per-replica sampling thread count.
    pub fn with_threads(mut self, threads: usize) -> FleetOptions {
        self.threads = threads.max(1);
        self
    }

    /// Sets the fleet-wide per-class job limits.
    pub fn with_job_limits(mut self, limits: QueueLimits) -> FleetOptions {
        self.job_limits = limits;
        self
    }

    /// Enables best-effort shedding above the given merged wait p90.
    pub fn with_backpressure_shed(mut self, above: Duration) -> FleetOptions {
        self.shed_backpressure_above = Some(above);
        self
    }

    /// Supplies per-replica [`SchedulerOptions`] (policy, limits, fault
    /// plan); the factory is called once per replica with its index.
    /// Fault plans are per replica, which is what lets tests kill one
    /// replica's scheduler while its peers stay healthy.
    pub fn scheduler_factory(
        mut self,
        factory: impl Fn(usize) -> SchedulerOptions + Send + Sync + 'static,
    ) -> FleetOptions {
        self.scheduler = Some(Box::new(factory));
        self
    }
}

/// One engine replica: its own supervised scheduler and its own local
/// artifact store holding serialized affinity sessions. The store is an
/// `Arc` so session state survives the replica's scheduler dying — that
/// is exactly what migration reads from.
struct Replica {
    engine: Engine,
    scheduler: Scheduler,
    store: Arc<MemStore>,
    retired: AtomicBool,
}

impl Replica {
    /// Whether this replica may be given new work: not drained/lost and
    /// its supervised worker pool still has live workers.
    fn usable(&self) -> bool {
        !self.retired.load(Ordering::SeqCst) && self.scheduler.is_healthy()
    }
}

/// One queued unit of work: the admitted job plus its routing state.
struct FleetJob {
    job: AdmittedJob,
    affinity: Option<String>,
    /// Replica that just failed this job transiently; requeueing
    /// prefers any other usable replica.
    excluded: Option<usize>,
    /// Replica whose store still holds this affinity session's last
    /// saved state, set at pick time when the job re-homes. The runner
    /// copies the artifacts over before resuming.
    migrate_from: Option<usize>,
}

/// Routing counters; the job counters live in [`Admission`].
#[derive(Default)]
struct FleetCounters {
    steals: u64,
    affinity_hits: u64,
    affinity_misses: u64,
    migrations: u64,
    failovers: u64,
    redistributed: u64,
}

struct RouterState {
    /// One FIFO queue per replica; stealing pops from the back.
    queues: Vec<VecDeque<FleetJob>>,
    /// Cancel token of the job each runner is currently executing, so
    /// `Drop` can interrupt in-flight work.
    running: Vec<Option<CancelToken>>,
    /// Affinity key → replica currently owning that session.
    homes: BTreeMap<String, usize>,
    counters: FleetCounters,
    shutdown: bool,
}

struct FleetShared {
    router: Mutex<RouterState>,
    cv: Condvar,
    replicas: Vec<Replica>,
    admission: Arc<Admission>,
    backpressure: Option<Duration>,
}

/// N engine replicas behind a work-stealing, affinity-aware router.
/// See the [module docs](self) for the guarantees.
pub struct Fleet {
    shared: Arc<FleetShared>,
    runners: Vec<JoinHandle<()>>,
}

/// Per-replica slice of a [`FleetStats`] snapshot.
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Replica index (stable for the fleet's lifetime).
    pub index: usize,
    /// Whether the replica is accepting work (not retired, supervised
    /// worker pool alive).
    pub healthy: bool,
    /// Jobs waiting in this replica's router queue.
    pub queued: usize,
    /// The replica scheduler's own counters.
    pub scheduler: SchedulerStats,
}

/// A point-in-time snapshot of the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// One entry per replica, in index order (retired replicas stay
    /// listed, marked unhealthy).
    pub replicas: Vec<ReplicaStats>,
    /// [`SchedulerStats::merge`] over every replica — counters summed,
    /// wait percentiles recomputed from the combined recent windows.
    pub aggregated: SchedulerStats,
    /// Jobs an idle runner pulled from a peer's queue.
    pub steals: u64,
    /// Affinity jobs that resumed their session on its pinned replica.
    pub affinity_hits: u64,
    /// Affinity jobs that had to re-home because the pinned replica was
    /// lost or drained.
    pub affinity_misses: u64,
    /// Session migrations that actually copied serialized state between
    /// replica stores.
    pub migrations: u64,
    /// Submissions refused because the class was at its fleet-wide
    /// in-flight limit.
    pub rejected_depth: u64,
    /// Best-effort submissions shed by the back-pressure threshold.
    pub rejected_backpressure: u64,
    /// In-flight jobs requeued after their replica was lost (no retry
    /// attempt consumed).
    pub failovers: u64,
    /// Queued jobs redistributed off a lost or drained replica.
    pub redistributed: u64,
    /// Transient-failure retries across all jobs.
    pub retries: u64,
    /// Jobs admitted and not yet terminal, per class.
    pub active: ClassCounts,
    /// Jobs admitted since the fleet started, per class.
    pub submitted: ClassCounts,
    /// Jobs that reached a terminal outcome, per class.
    pub finished: ClassCounts,
}

/// `unwrap_or_else(into_inner)`: the router must stay usable even if a
/// runner panicked while holding the lock — wedging every submitter and
/// waiter on a poisoned mutex would turn one bug into a fleet outage.
fn lock_router(shared: &FleetShared) -> MutexGuard<'_, RouterState> {
    shared.router.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Fleet {
    /// Opens `options.replicas` independent replicas of the engine
    /// checkpoint in `store` (each gets its own copy of the weights, so
    /// replicas share nothing mutable).
    ///
    /// # Errors
    ///
    /// Whatever [`Engine::open`] reports: a missing or corrupt
    /// checkpoint fails the whole fleet — a partially-open fleet would
    /// silently serve with less capacity than asked for.
    pub fn open(store: &dyn ArtifactStore, options: FleetOptions) -> Result<Fleet, PpError> {
        let engines = (0..options.replicas.max(1))
            .map(|_| Engine::open(store))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet::build(engines, options))
    }

    /// Builds a fleet of `options.replicas` clones of one live engine.
    /// Clones share the immutable model snapshot behind `Arc` (cheap),
    /// and bit-identity holds because the snapshot is frozen.
    pub fn replicate(engine: &Engine, options: FleetOptions) -> Fleet {
        let engines = vec![engine.clone(); options.replicas.max(1)];
        Fleet::build(engines, options)
    }

    /// Builds a fleet from explicit engines, one replica per engine.
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] when `engines` is empty.
    pub fn from_engines(engines: Vec<Engine>, options: FleetOptions) -> Result<Fleet, PpError> {
        if engines.is_empty() {
            return Err(PpError::Config(
                "fleet needs at least one engine replica".into(),
            ));
        }
        Ok(Fleet::build(engines, options))
    }

    fn build(engines: Vec<Engine>, options: FleetOptions) -> Fleet {
        let n = engines.len();
        let threads = options.threads.max(1);
        let replicas: Vec<Replica> = engines
            .into_iter()
            .enumerate()
            .map(|(index, engine)| {
                let sched_options = match &options.scheduler {
                    Some(factory) => factory(index),
                    None => SchedulerOptions::new(),
                };
                let scheduler = engine.scheduler_with(threads, sched_options);
                Replica {
                    engine,
                    scheduler,
                    store: Arc::new(MemStore::new()),
                    retired: AtomicBool::new(false),
                }
            })
            .collect();
        let shared = Arc::new(FleetShared {
            router: Mutex::new(RouterState {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                running: (0..n).map(|_| None).collect(),
                homes: BTreeMap::new(),
                counters: FleetCounters::default(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            replicas,
            admission: Admission::new(options.job_limits, " fleet-wide"),
            backpressure: options.shed_backpressure_above,
        });
        let runners = (0..n)
            .map(|r| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || runner(&shared, r))
            })
            .collect();
        Fleet { shared, runners }
    }

    /// Replica count (retired replicas included).
    pub fn replicas(&self) -> usize {
        self.shared.replicas.len()
    }

    /// Submits a job; returns immediately with a [`JobHandle`] that
    /// behaves exactly like a [`crate::Service`] handle.
    ///
    /// Placement: an affinity key pins the job to the replica owning
    /// that session; otherwise [`JobSpec::with_placement`] hints a
    /// replica (`hint % replicas`, if usable); otherwise the shortest
    /// usable queue wins. Idle replicas steal, so a hint is a
    /// preference, not an assignment.
    ///
    /// # Errors
    ///
    /// [`PpError::Rejected`] when the class is at its fleet-wide
    /// in-flight limit, when best-effort work is shed by back-pressure,
    /// or when every replica has been lost or drained;
    /// [`PpError::Config`] for an invalid affinity key or config
    /// shaping that fails validation.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobHandle, PpError> {
        let class = spec.class;
        // Training mutates weights; replicas of a fleet share one
        // checkpoint and must stay bit-identical. Fine-tune through a
        // single Service, then open the trained checkpoint as a new
        // engine (or fleet) to A/B it against this one.
        if matches!(spec.kind, JobKind::Train(_)) {
            return Err(PpError::Config(
                "train jobs run on a single Service, not a fleet: replicas share one \
                 checkpoint and training would fork it"
                    .into(),
            ));
        }
        if let Some(key) = &spec.affinity {
            validate_key(key)
                .map_err(|e| PpError::Config(format!("job spec: affinity key: {e}")))?;
        }
        let seed = shaped_seed(&self.shared.replicas[0].engine, &spec)?;
        // Aggregate scheduler stats *before* taking the router lock —
        // snapshots take each scheduler's state lock, and the fleet's
        // lock order is router-outermost, never router-under-scheduler.
        let shed_reason = match (class, self.shared.backpressure) {
            (QosClass::BestEffort, Some(threshold)) => {
                let parts: Vec<SchedulerStats> = self
                    .shared
                    .replicas
                    .iter()
                    .filter(|rep| rep.usable())
                    .map(|rep| rep.scheduler.stats())
                    .collect();
                let merged = SchedulerStats::merge(&parts);
                let p90 = Duration::from_micros(merged.wait_p90_micros);
                (!merged.recent_wait_micros.is_empty() && p90 > threshold).then(|| {
                    format!("best-effort shed: fleet wait p90 {p90:?} over threshold {threshold:?}")
                })
            }
            _ => None,
        };

        let mut router = lock_router(&self.shared);
        let usable: Vec<usize> = (0..self.shared.replicas.len())
            .filter(|&i| self.shared.replicas[i].usable())
            .collect();
        if usable.is_empty() {
            return Err(PpError::Rejected {
                reason: "fleet has no usable replicas (all lost or drained)".into(),
            });
        }
        let affinity = spec.affinity.take();
        let placement = spec.placement;
        let job = self.shared.admission.admit(spec, seed, shed_reason)?;
        let handle = job.handle();
        let home = match &affinity {
            Some(key) => match router.homes.get(key) {
                Some(&h) if self.shared.replicas[h].usable() => h,
                Some(_) => {
                    // Stale home: keep the entry so the picking runner
                    // sees the old owner and records the migration; the
                    // queue choice is just a starting point.
                    placed(&router, &usable, placement)
                }
                None => {
                    let h = placed(&router, &usable, placement);
                    router.homes.insert(key.clone(), h);
                    h
                }
            },
            None => placed(&router, &usable, placement),
        };
        router.queues[home].push_back(FleetJob {
            job,
            affinity,
            excluded: None,
            migrate_from: None,
        });
        drop(router);
        self.shared.cv.notify_all();
        Ok(handle)
    }

    /// A snapshot of router counters plus per-replica and merged
    /// scheduler stats.
    pub fn stats(&self) -> FleetStats {
        // Scheduler snapshots before the router lock (lock order).
        let per: Vec<SchedulerStats> = self
            .shared
            .replicas
            .iter()
            .map(|rep| rep.scheduler.stats())
            .collect();
        let aggregated = SchedulerStats::merge(&per);
        let (jobs, shed) = self.shared.admission.stats();
        let router = lock_router(&self.shared);
        let c = &router.counters;
        FleetStats {
            replicas: per
                .into_iter()
                .enumerate()
                .map(|(index, scheduler)| ReplicaStats {
                    index,
                    healthy: self.shared.replicas[index].usable(),
                    queued: router.queues[index].len(),
                    scheduler,
                })
                .collect(),
            aggregated,
            steals: c.steals,
            affinity_hits: c.affinity_hits,
            affinity_misses: c.affinity_misses,
            migrations: c.migrations,
            rejected_depth: jobs.rejected.total(),
            rejected_backpressure: shed,
            failovers: c.failovers,
            redistributed: c.redistributed,
            retries: jobs.retries,
            active: jobs.active,
            submitted: jobs.submitted,
            finished: jobs.finished,
        }
    }

    /// Voluntarily retires a replica: it stops accepting work, its
    /// queued jobs are redistributed to usable peers, and sessions
    /// pinned to it migrate to wherever their next job runs. The job it
    /// is currently executing (if any) finishes normally. Returns
    /// `false` for an out-of-range index.
    ///
    /// Draining the *last* usable replica fails the jobs queued on it —
    /// there is nowhere left to move them.
    pub fn drain(&self, replica: usize) -> bool {
        if replica >= self.shared.replicas.len() {
            return false;
        }
        let mut router = lock_router(&self.shared);
        retire_replica(&self.shared, &mut router, replica, None);
        drop(router);
        self.shared.cv.notify_all();
        true
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        {
            let mut router = lock_router(&self.shared);
            router.shutdown = true;
            let queued: Vec<FleetJob> =
                router.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
            for FleetJob { job, .. } in queued {
                let outcome = JobOutcome::Cancelled(job.empty_report());
                job.settle(outcome);
            }
            for slot in &mut router.running {
                if let Some(cancel) = slot.take() {
                    cancel.cancel();
                }
            }
        }
        self.shared.cv.notify_all();
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("replicas", &self.shared.replicas.len())
            .finish_non_exhaustive()
    }
}

/// Shortest-usable-queue placement, honouring a placement hint when the
/// hinted replica is usable. Ties go to the lowest index, so placement
/// is deterministic for a deterministic submission order.
fn placed(router: &RouterState, usable: &[usize], hint: Option<u64>) -> usize {
    if let Some(p) = hint {
        let cand = (p as usize) % router.queues.len();
        if usable.contains(&cand) {
            return cand;
        }
    }
    usable
        .iter()
        .copied()
        .min_by_key(|&i| router.queues[i].len())
        .unwrap_or(0)
}

fn runner(shared: &Arc<FleetShared>, r: usize) {
    loop {
        let mut router = lock_router(shared);
        let mut job = loop {
            if router.shutdown {
                return;
            }
            if !shared.replicas[r].usable() {
                retire_replica(shared, &mut router, r, None);
                drop(router);
                shared.cv.notify_all();
                return;
            }
            purge_expired(&mut router, r);
            if let Some(job) = pop_ready(shared, &mut router, r) {
                break job;
            }
            if let Some(job) = steal(shared, &mut router, r) {
                router.counters.steals += 1;
                break job;
            }
            // Timed wait: backoff expiry, queued-job hard deadlines,
            // and peer-loss detection all need periodic wakeups even
            // when nobody submits.
            let (guard, _) = shared
                .cv
                .wait_timeout(router, Duration::from_millis(10))
                .unwrap_or_else(PoisonError::into_inner);
            router = guard;
        };
        // Re-home an affinity job whose pinned replica is gone, while
        // the router lock still serialises same-key decisions.
        if let Some(key) = &job.affinity {
            let previous = router.homes.insert(key.clone(), r);
            job.migrate_from = previous.filter(|&h| h != r);
        }
        router.running[r] = Some(job.job.cancel_token());
        drop(router);

        // The attempt runs without the router lock: the job is owned by
        // this runner, and the only cross-replica state it touches is
        // the (internally synchronised) store named by `migrate_from`,
        // whose owner is already retired.
        let rep = &shared.replicas[r];
        let FleetJob {
            job: admitted,
            affinity,
            migrate_from,
            ..
        } = &mut job;
        let verdict = admitted.attempt(
            || rep.scheduler.is_healthy(),
            |admitted| match affinity {
                Some(key) => run_affinity_attempt(shared, r, admitted, key, *migrate_from),
                None => admitted.run_fresh(&rep.engine, rep.scheduler.handle()),
            },
        );

        let mut router = lock_router(shared);
        router.running[r] = None;
        match verdict {
            Verdict::Done(outcome) => job.job.settle(*outcome),
            Verdict::Retry => {
                job.job.book_retry();
                job.excluded = Some(r);
                job.migrate_from = None;
                requeue(shared, &mut router, job);
            }
            // The retired runner exits at the top of its loop.
            Verdict::Lost(_) => retire_replica(shared, &mut router, r, Some(job)),
        }
        drop(router);
        shared.cv.notify_all();
    }
}

/// Settles queued jobs that are already cancelled or past a hard
/// deadline (the lifecycle's interruption rule), without wasting a
/// replica slot on them.
fn purge_expired(router: &mut RouterState, r: usize) {
    let mut i = 0;
    while i < router.queues[r].len() {
        match router.queues[r][i].job.interruption() {
            Some(outcome) => {
                if let Some(FleetJob { job, .. }) = router.queues[r].remove(i) {
                    job.settle(outcome);
                }
            }
            None => i += 1,
        }
    }
}

/// Whether runner `r` may execute `job` right now: backoff elapsed,
/// the job is not pinned to a *different, usable* replica, and the
/// replica that just failed it transiently does not take it back while
/// a peer could run it instead (otherwise, on a loaded machine, the
/// failing runner tends to win the re-pick race and "failover" never
/// actually changes replicas).
fn eligible(shared: &FleetShared, router: &RouterState, r: usize, job: &FleetJob) -> bool {
    if job.job.backing_off() {
        return false;
    }
    if let Some(key) = &job.affinity {
        // Pinned jobs run where their session lives; the exclusion
        // rule below never applies to them — retrying elsewhere would
        // abandon the saved state.
        return match router.homes.get(key) {
            Some(&h) => h == r || !shared.replicas[h].usable(),
            None => true,
        };
    }
    if job.excluded == Some(r)
        && (0..shared.replicas.len()).any(|i| i != r && shared.replicas[i].usable())
    {
        return false;
    }
    true
}

/// Oldest eligible job from the runner's own queue.
fn pop_ready(shared: &FleetShared, router: &mut RouterState, r: usize) -> Option<FleetJob> {
    let idx =
        (0..router.queues[r].len()).find(|&i| eligible(shared, router, r, &router.queues[r][i]))?;
    router.queues[r].remove(idx)
}

/// Newest eligible job from the longest peer queue — newest because the
/// oldest entries are what the loaded peer will reach next itself, so
/// stealing from the back minimises double-handling.
fn steal(shared: &FleetShared, router: &mut RouterState, r: usize) -> Option<FleetJob> {
    let victim = (0..router.queues.len())
        .filter(|&p| p != r && !router.queues[p].is_empty())
        .max_by_key(|&p| router.queues[p].len())?;
    let idx = (0..router.queues[victim].len())
        .rev()
        .find(|&i| eligible(shared, router, r, &router.queues[victim][i]))?;
    router.queues[victim].remove(idx)
}

/// Requeues a job on the shortest usable queue, preferring any replica
/// other than `job.excluded`; falls back to the excluded replica when
/// it is the only one left, and fails the job when none are usable.
fn requeue(shared: &FleetShared, router: &mut RouterState, job: FleetJob) {
    let shortest = |skip: Option<usize>| {
        (0..shared.replicas.len())
            .filter(|&i| shared.replicas[i].usable() && Some(i) != skip)
            .min_by_key(|&i| router.queues[i].len())
    };
    match shortest(job.excluded).or_else(|| shortest(None)) {
        Some(target) => router.queues[target].push_back(job),
        None => job.job.settle(JobOutcome::Failed(PpError::Model(
            "fleet lost all replicas".into(),
        ))),
    }
}

/// Retires replica `r`: marks it unusable, redistributes its queue to
/// usable peers, and fails over the in-flight job (when its runner
/// handed one in) without consuming a retry attempt. Sessions pinned to
/// the replica stay mapped to it and migrate lazily — the serialized
/// state lives in the replica's store, which outlives its scheduler.
fn retire_replica(
    shared: &FleetShared,
    router: &mut RouterState,
    r: usize,
    inflight: Option<FleetJob>,
) {
    shared.replicas[r].retired.store(true, Ordering::SeqCst);
    router.running[r] = None;
    let drained: Vec<FleetJob> = router.queues[r].drain(..).collect();
    if let Some(mut job) = inflight {
        router.counters.failovers += 1;
        job.excluded = Some(r);
        job.migrate_from = None;
        requeue(shared, router, job);
    }
    for job in drained {
        router.counters.redistributed += 1;
        requeue(shared, router, job);
    }
}

/// One attempt of an affinity job: migrate serialized state if the
/// session just re-homed, resume it when saved state exists (a fresh
/// seeded session otherwise), run the rounds, and persist the session
/// back to this replica's store on success — failed attempts save
/// nothing, so a retry resumes from the last durable state and replays
/// identically. Affinity jobs report the session's cumulative totals.
/// A migration counts as an affinity miss, a resume on the pinned
/// replica as a hit.
fn run_affinity_attempt(
    shared: &FleetShared,
    r: usize,
    job: &AdmittedJob,
    key: &str,
    migrate_from: Option<usize>,
) -> (Result<(), PpError>, JobReport) {
    let rep = &shared.replicas[r];
    let mut migrated = false;
    if let Some(from) = migrate_from {
        let prefix = format!("session-{key}.");
        match copy_artifacts(&*shared.replicas[from].store, &*rep.store, &prefix) {
            Ok(copied) => migrated = copied > 0,
            Err(e) => return (Err(PpError::Artifact(e)), job.empty_report()),
        }
    }
    let (meta_key, _) = session_keys(key);
    let base = if rep.store.get(&meta_key).is_ok() {
        let resumed = Session::resume(&rep.engine, &*rep.store, key);
        let mut router = lock_router(shared);
        if migrated {
            router.counters.migrations += 1;
            router.counters.affinity_misses += 1;
        } else if resumed.is_ok() {
            router.counters.affinity_hits += 1;
        }
        resumed
    } else {
        Ok(rep.engine.session_seeded(job.seed))
    };
    match base.and_then(|s| job.session(s, rep.scheduler.handle())) {
        Ok(session) => job.run_session(session, |s| s.save(&*rep.store, key)),
        Err(e) => (Err(e), job.empty_report()),
    }
}
