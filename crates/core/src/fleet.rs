//! pp-fleet: engine replicas behind a router that places attempts.
//!
//! A [`Fleet`] opens N [`Engine`] replicas from one checkpoint and puts
//! them behind the same declarative front door as [`crate::Service`]:
//! callers submit [`JobSpec`]s and hold [`crate::JobHandle`]s resolving
//! to a terminal [`crate::JobOutcome`]. Both front doors dispatch alike,
//! over one job lifecycle: each admitted job runs on its own thread, and
//! each attempt submits straight into a replica's scheduler, where the
//! policy ranks it against every other job on that replica and
//! continuous batching merges them into one slot table. What the fleet
//! adds is *where* an attempt runs — and it promises that does not
//! matter:
//!
//! - **Bit-identity.** Every replica is opened from the same artifact
//!   snapshot and every attempt builds a fresh seeded session, so a job
//!   produces the same library whichever replica executes it, and a
//!   fleet of N is bit-identical to a fleet of one for the same specs.
//! - **Placement per attempt.** An attempt picks its replica when it
//!   starts: the affinity key's home if it is usable, otherwise a usable
//!   [`JobSpec::with_placement`] hint, otherwise the usable replica with
//!   the fewest running jobs (ties go to the lowest index). An attempt
//!   never splits across replicas.
//! - **Back-pressure-aware admission.** The router aggregates
//!   [`SchedulerStats`] across replicas via [`SchedulerStats::merge`]:
//!   per-class active-job depth caps admission fleet-wide
//!   ([`FleetOptions::job_limits`]), and best-effort work is shed when
//!   the merged recent wait p90 crosses
//!   [`FleetOptions::shed_backpressure_above`]. Rejections are counted
//!   by cause in [`FleetStats`]. A replica's own bound is its
//!   scheduler's [`QueueLimits`], as on a service; a job has at most one
//!   round submitted at a time, so under the default limits (equal to
//!   the scheduler's) a replica cannot overflow.
//! - **Session affinity.** A [`JobSpec::with_affinity`] key pins the
//!   job to the replica holding that session's state. Jobs sharing a key
//!   wait in a per-key line and run one after another, in submit order;
//!   that line is the fleet's only queue. Successful affinity jobs
//!   persist their session to the replica's local store (PPSS + PPSQ,
//!   via [`crate::Session::save`]); later jobs with the same key resume
//!   it there. When the pinned replica is lost or [`Fleet::drain`]ed,
//!   the next attempt for the key re-homes it: the serialized session
//!   artifacts are copied to the new replica
//!   ([`crate::artifact::copy_artifacts`]) before resuming. Affinity
//!   jobs report the session's *cumulative* totals and library.
//! - **Failure domains.** A [`crate::RetryPolicy`] retry of a job
//!   without an affinity key skips the replica that just failed it while
//!   a peer is usable. An attempt whose replica lost its whole worker
//!   pool retires that replica and runs again on a peer *without*
//!   consuming a retry attempt (a failover); saved sessions migrate
//!   lazily on next use. A panic in a stage that runs on the job's
//!   thread (a custom sampler, validator or denoiser, the round tail,
//!   selection) settles that job `Failed`, exactly as on a service; the
//!   replica stays in rotation, since its scheduler is unharmed. Hard
//!   deadlines and cancellation are honoured while a job waits its turn
//!   or backs off (re-checked every 5 ms, so such a job settles
//!   `Cancelled`/`TimedOut` without touching a replica) and while it
//!   runs (enforced by the replica scheduler).
//!
//! Lock order: the router mutex is a leaf. Scheduler snapshots and
//! admission happen before it is taken, attempts run after it is
//! released, and nothing else is locked while it is held.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::artifact::{copy_artifacts, validate_key, ArtifactStore, MemStore};
use crate::engine::{session_keys, Engine, Session};
use crate::error::PpError;
use crate::jobspec::{JobKind, JobSpec, QosClass};
use crate::lifecycle::{
    shaped_seed, Admission, AdmittedJob, JobHandle, JobOutcome, JobReport, JobThreads, Verdict,
    WAIT_SLICE,
};
use crate::scheduler::{ClassCounts, QueueLimits, Scheduler, SchedulerOptions, SchedulerStats};

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
    /// Fleet-wide per-class bound on jobs in flight (waiting their
    /// turn, backing off or running), mirroring
    /// [`crate::ServiceOptions`]' limits but aggregated across all
    /// replicas.
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

/// Routing counters; the job counters live in [`Admission`].
#[derive(Default)]
struct FleetCounters {
    affinity_hits: u64,
    affinity_misses: u64,
    migrations: u64,
    failovers: u64,
}

struct RouterState {
    /// Per replica, the jobs whose current attempt runs there: the load
    /// placement balances.
    running: Vec<usize>,
    /// Affinity key → replica currently owning that session.
    homes: BTreeMap<String, usize>,
    /// Affinity key → ids of the jobs holding it, in submit order: the
    /// front job runs, the rest wait their turn. An emptied line goes.
    lines: BTreeMap<String, VecDeque<u64>>,
    counters: FleetCounters,
}

struct FleetShared {
    router: Mutex<RouterState>,
    /// Signalled whenever a job leaves a per-key line.
    turn: Condvar,
    replicas: Vec<Replica>,
    admission: Arc<Admission>,
    backpressure: Option<Duration>,
}

/// N engine replicas behind an affinity-aware router that places each
/// attempt. See the [module docs](self) for the guarantees.
///
/// Dropping the fleet cancels outstanding jobs and joins their threads,
/// as dropping a [`crate::Service`] does, then shuts the replicas down.
pub struct Fleet {
    /// First, so it drops (cancelling and joining the jobs) before the
    /// replica schedulers they run on.
    jobs: JobThreads,
    shared: Arc<FleetShared>,
}

/// Per-replica slice of a [`FleetStats`] snapshot.
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Replica index (stable for the fleet's lifetime).
    pub index: usize,
    /// Whether the replica is accepting work (not retired, supervised
    /// worker pool alive).
    pub healthy: bool,
    /// Jobs whose current attempt runs on this replica.
    pub running: usize,
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
    /// Attempts that ran again on a peer because their replica lost its
    /// worker pool (no retry attempt consumed).
    pub failovers: u64,
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
/// job thread panicked while holding the lock — wedging every submitter
/// and waiter on a poisoned mutex would turn one bug into a fleet
/// outage.
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
                running: vec![0; n],
                homes: BTreeMap::new(),
                lines: BTreeMap::new(),
                counters: FleetCounters::default(),
            }),
            turn: Condvar::new(),
            replicas,
            admission: Admission::new(options.job_limits, " fleet-wide"),
            backpressure: options.shed_backpressure_above,
        });
        Fleet {
            jobs: JobThreads::default(),
            shared,
        }
    }

    /// Replica count (retired replicas included).
    pub fn replicas(&self) -> usize {
        self.shared.replicas.len()
    }

    /// Submits a job; returns immediately with a [`JobHandle`] that
    /// behaves exactly like a [`crate::Service`] handle.
    ///
    /// The job runs on its own thread. Each attempt picks its replica
    /// when it starts: the affinity key's home if usable, otherwise a
    /// usable [`JobSpec::with_placement`] hint (`hint % replicas`),
    /// otherwise the usable replica with the fewest running jobs. Jobs
    /// sharing an affinity key run one after another, in submit order.
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
        if !self.shared.replicas.iter().any(Replica::usable) {
            return Err(PpError::Rejected {
                reason: "fleet has no usable replicas (all lost or drained)".into(),
            });
        }
        let affinity = spec.affinity.take();
        let hint = spec.placement;
        let job = self.shared.admission.admit(spec, seed, shed_reason)?;
        let handle = job.handle();
        if let Some(key) = &affinity {
            lock_router(&self.shared)
                .lines
                .entry(key.clone())
                .or_default()
                .push_back(job.id());
        }
        let shared = Arc::clone(&self.shared);
        self.jobs
            .spawn(job, move |job| run_job(&shared, job, affinity, hint));
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
                    running: router.running[index],
                    scheduler,
                })
                .collect(),
            aggregated,
            affinity_hits: c.affinity_hits,
            affinity_misses: c.affinity_misses,
            migrations: c.migrations,
            rejected_depth: jobs.rejected.total(),
            rejected_backpressure: shed,
            failovers: c.failovers,
            retries: jobs.retries,
            active: jobs.active,
            submitted: jobs.submitted,
            finished: jobs.finished,
        }
    }

    /// Voluntarily retires a replica: no new attempt is placed on it,
    /// and sessions pinned to it migrate to wherever their next attempt
    /// runs. Attempts already running there finish normally. Returns
    /// `false` for an out-of-range index.
    ///
    /// Once the *last* usable replica is drained, every later attempt
    /// fails its job — there is nowhere left to run it.
    pub fn drain(&self, replica: usize) -> bool {
        match self.shared.replicas.get(replica) {
            Some(rep) => {
                rep.retired.store(true, Ordering::SeqCst);
                true
            }
            None => false,
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

/// A job's place in its affinity key's line, held until the job
/// settles; dropping it leaves the line and wakes the jobs behind.
struct Turn<'a> {
    shared: &'a FleetShared,
    key: &'a str,
    id: u64,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let mut router = lock_router(self.shared);
        if let Some(line) = router.lines.get_mut(self.key) {
            line.retain(|&id| id != self.id);
            if line.is_empty() {
                router.lines.remove(self.key);
            }
        }
        drop(router);
        self.shared.turn.notify_all();
    }
}

/// A job's thread: wait for the job's turn behind its affinity key,
/// then drive it to the end, placing every attempt.
fn run_job(shared: &FleetShared, job: AdmittedJob, affinity: Option<String>, hint: Option<u64>) {
    let key = affinity.as_deref();
    let _turn = key.map(|key| Turn {
        shared,
        key,
        id: job.id(),
    });
    if let Some(key) = key {
        if let Some(outcome) = wait_turn(shared, &job, key) {
            return job.settle(outcome);
        }
    }
    let mut failed_on = None;
    job.run_to_end(|job| place_attempt(shared, job, key, hint, &mut failed_on));
}

/// Blocks until `job` heads its key's line, re-checking its cancel
/// token and hard deadline every [`WAIT_SLICE`]; returns the outcome
/// when either ends the wait first.
fn wait_turn(shared: &FleetShared, job: &AdmittedJob, key: &str) -> Option<JobOutcome> {
    let mut router = lock_router(shared);
    loop {
        if let Some(outcome) = job.interruption() {
            return Some(outcome);
        }
        if router.lines.get(key).and_then(VecDeque::front) == Some(&job.id()) {
            return None;
        }
        router = shared
            .turn
            .wait_timeout(router, WAIT_SLICE)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

/// Runs `job`'s next attempt on the replica [`place`] picks. An attempt
/// whose replica lost its worker pool retires that replica and runs
/// again on a peer without consuming an attempt (a failover); `Lost`
/// means no replica is left. `failed_on` carries the replica that last
/// failed the job from one attempt to the next.
fn place_attempt(
    shared: &FleetShared,
    job: &mut AdmittedJob,
    affinity: Option<&str>,
    hint: Option<u64>,
    failed_on: &mut Option<usize>,
) -> Verdict {
    loop {
        let (r, migrate_from) = match place(shared, affinity, hint, *failed_on) {
            Some(placed) => placed,
            None => return Verdict::Lost(PpError::Model("fleet lost all replicas".into())),
        };
        let rep = &shared.replicas[r];
        let verdict = job.attempt(
            || rep.scheduler.is_healthy(),
            |job| match affinity {
                Some(key) => run_affinity_attempt(shared, r, job, key, migrate_from),
                None => job.run_fresh(&rep.engine, rep.scheduler.handle()),
            },
        );
        let lost = matches!(verdict, Verdict::Lost(_));
        end_attempt(shared, r, lost);
        if !matches!(verdict, Verdict::Done(_)) {
            *failed_on = Some(r);
        }
        if !lost {
            return verdict;
        }
    }
}

/// Picks the replica for a job's next attempt and counts the attempt
/// running there: the affinity key's home if it is usable, otherwise a
/// usable placement hint, otherwise the usable replica with the fewest
/// running jobs (ties go to the lowest index). A job without an
/// affinity key skips `failed_on`, the replica that just failed it,
/// while a peer is usable. A keyed job that re-homes records its new
/// home and gets back the old one, whose store holds the session state
/// to migrate. `None` when no replica is usable.
fn place(
    shared: &FleetShared,
    affinity: Option<&str>,
    hint: Option<u64>,
    failed_on: Option<usize>,
) -> Option<(usize, Option<usize>)> {
    let mut router = lock_router(shared);
    let n = shared.replicas.len();
    let usable = |i: &usize| shared.replicas[*i].usable();
    let home = affinity.and_then(|key| router.homes.get(key).copied());
    let skip = failed_on.filter(|&f| affinity.is_none() && (0..n).any(|i| i != f && usable(&i)));
    let open = |i: &usize| usable(i) && Some(*i) != skip;
    let r = home
        .filter(usable)
        .or_else(|| hint.map(|h| (h % n as u64) as usize).filter(open))
        .or_else(|| (0..n).filter(open).min_by_key(|&i| router.running[i]))?;
    if let Some(key) = affinity {
        router.homes.insert(key.to_string(), r);
    }
    router.running[r] += 1;
    Some((r, home.filter(|&h| h != r)))
}

/// Ends an attempt on replica `r`. When the attempt found the replica's
/// worker pool gone, the replica retires and the attempt counts as a
/// failover.
fn end_attempt(shared: &FleetShared, r: usize, lost: bool) {
    let mut router = lock_router(shared);
    router.running[r] -= 1;
    if lost {
        shared.replicas[r].retired.store(true, Ordering::SeqCst);
        router.counters.failovers += 1;
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
