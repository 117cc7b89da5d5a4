//! The execution engine behind the service: a persistent worker pool
//! plus the cache → pool → cold decision ladder for each job.
//!
//! Batch and served execution share one code path by construction:
//! every rung of the ladder bottoms out in the same [`cheri_sweep::run`]
//! the batch binaries use — [`Start::Resume`] for warm execution
//! (exactly `xsweep --warm`'s restore path) and a cold start with a
//! [`Capture::Phase2`] snapshot for cold execution (exactly its cold
//! path). The service adds only *where results come from* (cache,
//! pooled snapshot, fresh boot), never *how they are computed* — which
//! is why the transparency gate can demand byte-identity with the batch
//! report.

use crate::cache::{cache_key_canonical, ResultCache, NO_SNAPSHOT};
use crate::pool::{boot_snapshot, SnapshotPool};
use crate::protocol::{Origin, StatsSnapshot};
use crate::signal;
use crate::telem::{elapsed_us, JobCtx, PhaseRecorder, ServiceTelem};
use cheri_sweep::{
    profile_matrix, run, run_matrix, Capture, JobRecord, JobSpec, Profile, RunOpts, RunOutput,
    Start, SweepReport,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A cooperative stop token: set programmatically (shutdown request,
/// test) and optionally wired to the process signal flag (SIGINT /
/// SIGTERM in the `cheri-serve` binary). Checked between jobs, never
/// mid-job — a running simulation always completes, which is what makes
/// drain-on-shutdown leave no partial state behind.
#[derive(Clone)]
pub struct Stop {
    flag: Arc<AtomicBool>,
    watch_signals: bool,
}

impl Stop {
    /// A fresh token. With `watch_signals`, delivery of SIGINT/SIGTERM
    /// (after [`signal::install`]) also trips it.
    #[must_use]
    pub fn new(watch_signals: bool) -> Stop {
        Stop { flag: Arc::new(AtomicBool::new(false)), watch_signals }
    }

    /// Trips the token.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested (programmatically or, if
    /// watched, by signal).
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || (self.watch_signals && signal::requested())
    }
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads fed from one shared
/// queue. All requests on all connections shard their jobs into the
/// same pool, so total simulator parallelism is bounded by the worker
/// count no matter how many clients are connected.
pub struct WorkerPool {
    tx: Mutex<Option<mpsc::Sender<Task>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
    queued: Arc<AtomicU64>,
    busy: Arc<AtomicU64>,
    alive: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns `workers` (≥ 1) threads.
    #[must_use]
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let queued = Arc::new(AtomicU64::new(0));
        let busy = Arc::new(AtomicU64::new(0));
        let alive = Arc::new(AtomicU64::new(workers as u64));
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = rx.clone();
            let queued = queued.clone();
            let busy = busy.clone();
            let alive = alive.clone();
            handles.push(std::thread::spawn(move || {
                loop {
                    // Take the next task with the queue lock released
                    // before running it, so workers execute concurrently.
                    let task = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break,
                    };
                    match task {
                        Ok(task) => {
                            queued.fetch_sub(1, Ordering::Relaxed);
                            busy.fetch_add(1, Ordering::Relaxed);
                            task();
                            busy.fetch_sub(1, Ordering::Relaxed);
                        }
                        Err(_) => break, // all senders gone: shutdown
                    }
                }
                alive.fetch_sub(1, Ordering::Relaxed);
            }));
        }
        WorkerPool {
            tx: Mutex::new(Some(tx)),
            handles: Mutex::new(handles),
            workers,
            queued,
            busy,
            alive,
        }
    }

    /// The pool's thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tasks submitted but not yet picked up by a worker.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Workers currently executing a task.
    #[must_use]
    pub fn busy(&self) -> u64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// Worker threads still running (drops below [`WorkerPool::workers`]
    /// only during shutdown — or if a worker died, which `health`
    /// reports as not ready).
    #[must_use]
    pub fn alive(&self) -> u64 {
        self.alive.load(Ordering::Relaxed)
    }

    /// Submits a task; returns `false` if the pool has shut down (the
    /// task is dropped).
    pub fn submit<F: FnOnce() + Send + 'static>(&self, task: F) -> bool {
        match self.tx.lock() {
            Ok(guard) => match guard.as_ref() {
                Some(tx) => {
                    self.queued.fetch_add(1, Ordering::Relaxed);
                    let sent = tx.send(Box::new(task)).is_ok();
                    if !sent {
                        self.queued.fetch_sub(1, Ordering::Relaxed);
                    }
                    sent
                }
                None => false,
            },
            Err(_) => false,
        }
    }

    /// Closes the queue and joins every worker. Tasks already queued
    /// still run (they are expected to bail fast once a [`Stop`] token
    /// is tripped); new submissions are refused.
    pub fn shutdown(&self) {
        if let Ok(mut guard) = self.tx.lock() {
            guard.take();
        }
        let handles = match self.handles.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(_) => return,
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-job decision ladder (cache → warm pool → cold boot) plus the
/// shared state it works over. One engine serves every connection.
pub struct JobEngine {
    cache: ResultCache,
    pool: SnapshotPool,
    warm: bool,
    jobs: AtomicU64,
    warm_runs: AtomicU64,
    cold_runs: AtomicU64,
    telem: Arc<ServiceTelem>,
}

impl JobEngine {
    /// A fresh engine. `cache_enabled` gates the result cache;
    /// `warm_enabled` gates snapshot-pool execution (off = every
    /// uncached job boots cold, the configuration the warm-vs-cold
    /// benchmark compares against). Telemetry is attached and enabled;
    /// use [`JobEngine::with_telem`] to share or disable it.
    #[must_use]
    pub fn new(cache_enabled: bool, warm_enabled: bool) -> JobEngine {
        JobEngine::with_telem(cache_enabled, warm_enabled, Arc::new(ServiceTelem::new(true)))
    }

    /// As [`JobEngine::new`] with a caller-supplied telemetry handle
    /// (the server shares one between the engine and the wire verbs).
    #[must_use]
    pub fn with_telem(
        cache_enabled: bool,
        warm_enabled: bool,
        telem: Arc<ServiceTelem>,
    ) -> JobEngine {
        JobEngine {
            cache: ResultCache::new(cache_enabled),
            pool: SnapshotPool::new(),
            warm: warm_enabled,
            jobs: AtomicU64::new(0),
            warm_runs: AtomicU64::new(0),
            cold_runs: AtomicU64::new(0),
            telem,
        }
    }

    /// The snapshot pool (exposed for prewarm and tests).
    #[must_use]
    pub fn pool(&self) -> &SnapshotPool {
        &self.pool
    }

    /// The result cache (exposed for tests).
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The telemetry handle this engine records into.
    #[must_use]
    pub fn telem(&self) -> &Arc<ServiceTelem> {
        &self.telem
    }

    /// Whether warm (snapshot-pool) execution is enabled.
    #[must_use]
    pub fn warm_enabled(&self) -> bool {
        self.warm
    }

    /// Executes one job through the ladder:
    ///
    /// 1. pooled snapshot present → cache lookup under (config,
    ///    snapshot-hash); hit → served from cache;
    /// 2. miss but pool entry present and warm execution enabled →
    ///    restore and run the computation phase ([`Start::Resume`]);
    /// 3. otherwise → full cold run capturing [`Capture::Phase2`],
    ///    pooling that snapshot for every later request.
    ///
    /// `use_cache = false` (the load generator's hot mode) skips step 1
    /// and does not store, forcing real execution.
    ///
    /// `ctx` attributes the job's phase spans and latency to a request
    /// (pass [`JobCtx::default`] outside request handling). Telemetry
    /// observes the ladder, never steers it: the span hook passed to
    /// [`cheri_sweep::run`] here is the only difference from the batch
    /// path, which runs the same function with none.
    ///
    /// # Errors
    ///
    /// Compile/OS/restore errors rendered as strings.
    pub fn execute(
        &self,
        spec: &JobSpec,
        use_cache: bool,
        ctx: JobCtx,
    ) -> Result<(JobRecord, Origin), String> {
        let t0 = Instant::now();
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let canon = spec.canonical_json();
        if let Some(entry) = self.pool.get(&canon) {
            let key = cache_key_canonical(&canon, entry.hash);
            if use_cache {
                if let Some(rec) = self.cache.lookup(key) {
                    self.telem.job_finished(Origin::Cached, elapsed_us(t0));
                    return Ok((rec, Origin::Cached));
                }
            }
            if self.warm {
                let resume =
                    RunOpts { start: Start::Resume(&entry.snapshot), ..RunOpts::default() };
                let out = self.observed_run(spec, ctx, Origin::Warm, resume)?;
                let rec = JobRecord::from_result(&out.result);
                if use_cache {
                    self.cache.store(key, &rec);
                }
                self.warm_runs.fetch_add(1, Ordering::Relaxed);
                self.telem.job_finished(Origin::Warm, elapsed_us(t0));
                return Ok((rec, Origin::Warm));
            }
        }
        let cold = RunOpts { capture: Capture::Phase2, ..RunOpts::default() };
        let out = self.observed_run(spec, ctx, Origin::Cold, cold)?;
        let rec = JobRecord::from_result(&out.result);
        let hash = match out.snapshot {
            Some(snap) => self.pool.insert(canon.clone(), snap).hash,
            None => NO_SNAPSHOT,
        };
        if use_cache {
            self.cache.store(cache_key_canonical(&canon, hash), &rec);
        }
        self.cold_runs.fetch_add(1, Ordering::Relaxed);
        self.telem.job_finished(Origin::Cold, elapsed_us(t0));
        Ok((rec, Origin::Cold))
    }

    /// Runs `spec` with `opts`, recording its phase spans and histograms
    /// under `ctx`, each tagged with `origin`.
    fn observed_run(
        &self,
        spec: &JobSpec,
        ctx: JobCtx,
        origin: Origin,
        opts: RunOpts<'_>,
    ) -> Result<RunOutput, String> {
        let mut phases = PhaseRecorder::new(&self.telem, ctx, origin.name());
        run(spec, RunOpts { span: Some(&mut |p, b| phases.note(p, b)), ..opts })
    }

    /// Re-executes one job from its pooled snapshot, bypassing the
    /// cache, and returns the record plus the hash of the state it
    /// resumed from — the service's triage hook (`replay` requests).
    ///
    /// # Errors
    ///
    /// If no snapshot is pooled for the job, or on restore/run errors.
    pub fn execute_replay(
        &self,
        spec: &JobSpec,
        ctx: JobCtx,
    ) -> Result<(JobRecord, cheri_snap::StateHash), String> {
        let t0 = Instant::now();
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let canon = spec.canonical_json();
        let entry = self.pool.get(&canon).ok_or_else(|| {
            format!("no pooled snapshot for {} (run it once or prewarm)", spec.key())
        })?;
        let resume = RunOpts { start: Start::Resume(&entry.snapshot), ..RunOpts::default() };
        let out = self.observed_run(spec, ctx, Origin::Warm, resume)?;
        self.warm_runs.fetch_add(1, Ordering::Relaxed);
        self.telem.job_finished(Origin::Warm, elapsed_us(t0));
        Ok((JobRecord::from_result(&out.result), entry.hash))
    }

    /// Runs one job cold with the guest profiler attached and returns
    /// the record plus the serialised profile. Profiled runs are never
    /// cached or warm-started: the profile is an observational artifact
    /// of a *whole* run, and a restore resets it by design.
    ///
    /// # Errors
    ///
    /// As [`JobEngine::execute`].
    pub fn execute_profiled(&self, spec: &JobSpec) -> Result<(JobRecord, String), String> {
        let t0 = Instant::now();
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let out = run(spec, RunOpts { profile: true, ..RunOpts::default() })?;
        let profile = out.profile.expect("a profiled run returns its profile");
        self.cold_runs.fetch_add(1, Ordering::Relaxed);
        self.telem.job_finished(Origin::Cold, elapsed_us(t0));
        Ok((JobRecord::from_result(&out.result), profile.to_json()))
    }

    /// Fills the pool with phase-2 pre-boots for every job of `profile`
    /// that does not already have one, sharded across the worker pool.
    /// Returns the number of entries added. Stops early (skipping
    /// remaining boots) if `stop` trips.
    pub fn prewarm(self: &Arc<Self>, profile: Profile, workers: &WorkerPool, stop: &Stop) -> usize {
        let specs = profile_matrix(profile);
        let (tx, rx) = mpsc::channel::<bool>();
        let mut submitted = 0usize;
        for spec in specs {
            let canon = spec.canonical_json();
            if self.pool.get(&canon).is_some() {
                continue;
            }
            let engine = self.clone();
            let stop = stop.clone();
            let tx = tx.clone();
            let ok = workers.submit(move || {
                let added = if stop.stopping() {
                    false
                } else {
                    match boot_snapshot(&spec) {
                        Ok(Some(snap)) => {
                            engine.pool.insert(canon, snap);
                            true
                        }
                        Ok(None) | Err(_) => false,
                    }
                };
                let _ = tx.send(added);
            });
            if ok {
                submitted += 1;
            }
        }
        drop(tx);
        rx.into_iter().filter(|&added| added).count().min(submitted)
    }

    /// The engine's counters as one consistent-enough snapshot (each
    /// counter is individually exact; the set is sampled without a
    /// global lock). Server-level fields — uptime, worker count,
    /// version — are the caller's to fill in.
    #[must_use]
    pub fn stats(&self, requests: u64) -> StatsSnapshot {
        StatsSnapshot {
            requests,
            jobs: self.jobs.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cached_results: self.cache.len() as u64,
            warm_runs: self.warm_runs.load(Ordering::Relaxed),
            cold_runs: self.cold_runs.load(Ordering::Relaxed),
            pool_entries: self.pool.len() as u64,
            cache_enabled: self.cache.enabled(),
            warm_enabled: self.warm,
            ..StatsSnapshot::default()
        }
    }
}

/// One job's outcome inside a sweep, as reported to the collector.
enum JobOut {
    Done(Box<(JobRecord, Origin)>),
    Aborted,
    Failed(String),
}

/// Runs a whole profile matrix through the engine, sharding jobs across
/// the worker pool and invoking `progress(done, total, key, origin)` as
/// each job lands (in completion order — the *report* is assembled in
/// canonical matrix order regardless). Returns `Ok(None)` if `stop`
/// tripped before every job executed (the drain path: running jobs
/// complete, queued jobs bail).
///
/// `req` attributes the sweep's spans (queue wait per job, phases per
/// job) to a request id; pass 0 for work not driven by a wire request.
///
/// # Errors
///
/// The first job failure, with its key.
pub fn run_profile<F>(
    engine: &Arc<JobEngine>,
    workers: &WorkerPool,
    profile: Profile,
    use_cache: bool,
    stop: &Stop,
    req: u64,
    mut progress: F,
) -> Result<Option<SweepReport>, String>
where
    F: FnMut(u64, u64, &str, Origin),
{
    let specs = profile_matrix(profile);
    let total = specs.len();
    let (tx, rx) = mpsc::channel::<(usize, JobOut)>();
    let mut submitted = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        let spec = *spec;
        let worker_engine = engine.clone();
        let stop = stop.clone();
        let tx = tx.clone();
        let ctx = JobCtx { req, job: i as u64 };
        let queued_at = Instant::now();
        engine.telem().queue_begin(ctx);
        let ok = workers.submit(move || {
            let engine = worker_engine;
            engine.telem().queue_end(ctx, elapsed_us(queued_at));
            let out = if stop.stopping() {
                JobOut::Aborted
            } else {
                match engine.execute(&spec, use_cache, ctx) {
                    Ok(done) => JobOut::Done(Box::new(done)),
                    Err(e) => JobOut::Failed(format!("{}: {e}", spec.key())),
                }
            };
            let _ = tx.send((i, out));
        });
        if ok {
            submitted += 1;
        } else {
            // The task never entered the queue; close its span so the
            // stream stays balanced.
            engine.telem().queue_end(ctx, elapsed_us(queued_at));
        }
    }
    drop(tx);

    let mut slots: Vec<Option<JobRecord>> = Vec::new();
    slots.resize_with(total, || None);
    let mut done = 0u64;
    let mut aborted = submitted < total;
    for (i, out) in rx {
        match out {
            JobOut::Done(boxed) => {
                let (record, origin) = *boxed;
                done += 1;
                progress(done, total as u64, &record.key, origin);
                slots[i] = Some(record);
            }
            JobOut::Aborted => aborted = true,
            JobOut::Failed(msg) => return Err(msg),
        }
    }
    if aborted || slots.iter().any(Option::is_none) {
        return Ok(None);
    }
    let jobs: Vec<JobRecord> = slots.into_iter().flatten().collect();
    Ok(Some(SweepReport { profile: profile.name().to_string(), jobs }))
}

/// The in-process transparency gate: serves `profile` through the
/// engine (cache + pool as configured), runs the *same* matrix through
/// the cold batch path ([`run_matrix`] — the library form of `xsweep`'s
/// default mode), and demands the two serialised reports be
/// byte-identical. Returns the served report on success.
///
/// # Errors
///
/// Names the first diverging job, or propagates a job failure.
pub fn transparency_gate(
    engine: &Arc<JobEngine>,
    workers: &WorkerPool,
    profile: Profile,
) -> Result<SweepReport, String> {
    let stop = Stop::new(false);
    let served = run_profile(engine, workers, profile, true, &stop, 0, |_, _, _, _| {})?
        .ok_or("served sweep aborted unexpectedly")?;
    let batch = run_matrix(profile, workers.workers())?;
    verify_against_batch(&served, &batch)?;
    Ok(served)
}

/// The byte-identity comparison at the heart of the gate, split out so
/// the server can reuse it for `verify: true` sweep requests.
///
/// # Errors
///
/// Names the first diverging job.
pub fn verify_against_batch(served: &SweepReport, batch: &SweepReport) -> Result<(), String> {
    let Some(key) = served.first_difference(batch) else { return Ok(()) };
    Err(format!(
        "served report diverges from the cold batch report (first diverging job: {key}) — \
         serving must be transparent; triage with snapreplay"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pool_runs_submitted_tasks() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..32usize {
            let tx = tx.clone();
            assert!(pool.submit(move || {
                let _ = tx.send(i);
            }));
        }
        drop(tx);
        let mut got: Vec<usize> = rx.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        pool.shutdown();
        assert!(!pool.submit(|| {}), "submit after shutdown must be refused");
    }

    #[test]
    fn stop_token_trips_once() {
        let stop = Stop::new(false);
        assert!(!stop.stopping());
        stop.clone().request();
        assert!(stop.stopping(), "clones share the flag");
    }
}
