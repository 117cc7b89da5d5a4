//! Service telemetry: the glue between the generic `cheri-telem`
//! primitives and this service's metric vocabulary.
//!
//! One [`ServiceTelem`] is shared by the server, the engine, and the
//! worker pool. It owns the metric *names* and the batching discipline
//! that makes the scrape invariants hold: every histogram observation
//! is recorded in the same registry critical section as the counter
//! that counts it, so `_count == counter` in every `metrics` scrape —
//! see the table in DESIGN.md §4i.
//!
//! Telemetry must never perturb served results. That holds by
//! construction: the engine runs the *same function* whether observed
//! or not ([`cheri_sweep::run`], with or without a span hook), all
//! metrics are derived from host clocks and counters outside the
//! simulator, and a [`ServiceTelem`] constructed disabled turns every
//! operation into a no-op — the detached half of the overhead A/B in
//! EXPERIMENTS.md.

use crate::protocol::Origin;
use cheri_telem::{SpanLog, SpanPhase, TelemRegistry};
use cheri_trace::json::JsonWriter;
use std::time::Instant;

/// Counter: jobs completed through the engine (any origin).
pub const JOBS: &str = "serve_jobs_total";
/// Counters: jobs completed per origin (their sum equals [`JOBS`]).
pub const JOBS_CACHED: &str = "serve_jobs_cached_total";
/// See [`JOBS_CACHED`].
pub const JOBS_WARM: &str = "serve_jobs_warm_total";
/// See [`JOBS_CACHED`].
pub const JOBS_COLD: &str = "serve_jobs_cold_total";
/// Counter: request lines rejected before dispatch — undecodable, or
/// longer than [`crate::MAX_REQUEST_LINE`]. Present (at 0) from startup.
pub const PROTOCOL_ERRORS: &str = "serve_protocol_errors_total";
/// Counters paired 1:1 with the phase histograms below.
pub const BOOTS: &str = "serve_boots_total";
/// See [`BOOTS`].
pub const RESTORES: &str = "serve_restores_total";
/// See [`BOOTS`].
pub const SIMULATES: &str = "serve_simulates_total";
/// See [`BOOTS`].
pub const QUEUE_WAITS: &str = "serve_queue_waits_total";
/// See [`BOOTS`].
pub const SERIALIZES: &str = "serve_serializes_total";
/// Histogram: wall latency of one engine job (`_count` == [`JOBS`]).
pub const JOB_LATENCY_US: &str = "serve_job_latency_us";
/// Histograms: per-phase wall times (`_count` == their counters).
pub const BOOT_US: &str = "serve_boot_us";
/// See [`BOOT_US`].
pub const RESTORE_US: &str = "serve_restore_us";
/// See [`BOOT_US`].
pub const SIMULATE_US: &str = "serve_simulate_us";
/// See [`BOOT_US`].
pub const QUEUE_WAIT_US: &str = "serve_queue_wait_us";
/// See [`BOOT_US`].
pub const SERIALIZE_US: &str = "serve_serialize_us";
/// Gauge: exact maximum of [`JOB_LATENCY_US`] (the bucketed exposition
/// cannot carry it; maintained in the same batch as the observation).
pub const JOB_LATENCY_MAX_US: &str = "serve_job_latency_max_us";
/// Gauges refreshed from live server state at scrape time.
pub const QUEUE_DEPTH: &str = "serve_queue_depth";
/// See [`QUEUE_DEPTH`].
pub const WORKERS: &str = "serve_workers";
/// See [`QUEUE_DEPTH`].
pub const WORKERS_ALIVE: &str = "serve_workers_alive";
/// See [`QUEUE_DEPTH`].
pub const WORKERS_BUSY: &str = "serve_workers_busy";
/// See [`QUEUE_DEPTH`].
pub const POOL_ENTRIES: &str = "serve_pool_entries";
/// See [`QUEUE_DEPTH`].
pub const CACHED_RESULTS: &str = "serve_cached_results";

/// The (histogram, counter) pairs whose `_count`/`_sum` must equal the
/// counter in every scrape — the machine-checkable consistency table.
pub const HIST_COUNTER_PAIRS: &[(&str, &str)] = &[
    (JOB_LATENCY_US, JOBS),
    (BOOT_US, BOOTS),
    (RESTORE_US, RESTORES),
    (SIMULATE_US, SIMULATES),
    (QUEUE_WAIT_US, QUEUE_WAITS),
    (SERIALIZE_US, SERIALIZES),
];

/// Identifies one engine job inside one request for span attribution:
/// `req` is the server-assigned monotonic request id (0 for work not
/// driven by a wire request — tests, the selfcheck gate), `job` the
/// index of the job within the request (0 for single-job verbs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobCtx {
    /// The request id (one Chrome-trace lane per id).
    pub req: u64,
    /// The job index within the request.
    pub job: u64,
}

impl JobCtx {
    /// The context for a single-job request.
    #[must_use]
    pub fn single(req: u64) -> JobCtx {
        JobCtx { req, job: 0 }
    }
}

/// The service's shared telemetry state: one registry, one span log.
pub struct ServiceTelem {
    registry: TelemRegistry,
    spans: SpanLog,
}

pub(crate) fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl ServiceTelem {
    /// Fresh telemetry; disabled makes every operation a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> ServiceTelem {
        let registry = TelemRegistry::new(enabled);
        registry.add(PROTOCOL_ERRORS, 0);
        ServiceTelem { registry, spans: SpanLog::new(enabled) }
    }

    /// Whether telemetry is recorded at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// The metric registry.
    #[must_use]
    pub fn registry(&self) -> &TelemRegistry {
        &self.registry
    }

    /// The span log.
    #[must_use]
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Counts one rejected request line ([`PROTOCOL_ERRORS`]).
    pub fn protocol_error(&self) {
        self.registry.add(PROTOCOL_ERRORS, 1);
    }

    /// Opens the request-level span for a work request.
    pub fn request_begin(&self, req: u64) {
        self.spans.begin(SpanPhase::Request, req, 0);
    }

    /// Closes the request-level span, tagged with how the request
    /// resolved (an origin name, `"sweep"`, or `"error"`).
    pub fn request_end(&self, req: u64, tag: &'static str) {
        self.spans.end_tagged(SpanPhase::Request, req, 0, tag);
    }

    /// Opens the queue-wait span (at submission to the worker pool).
    pub fn queue_begin(&self, ctx: JobCtx) {
        self.spans.begin(SpanPhase::Queue, ctx.req, ctx.job);
    }

    /// Closes the queue-wait span (when a worker picks the task up) and
    /// records the wait with its counter in one batch.
    pub fn queue_end(&self, ctx: JobCtx, waited_us: u64) {
        self.spans.end(SpanPhase::Queue, ctx.req, ctx.job);
        self.registry.batch(|b| {
            b.add(QUEUE_WAITS, 1);
            b.record(QUEUE_WAIT_US, waited_us);
        });
    }

    /// Runs `f` (a serialisation step) inside a serialize span,
    /// recording its wall time with its counter in one batch.
    pub fn serialize_span<T>(&self, req: u64, f: impl FnOnce() -> T) -> T {
        self.spans.begin(SpanPhase::Serialize, req, 0);
        let t0 = Instant::now();
        let out = f();
        let us = elapsed_us(t0);
        self.spans.end(SpanPhase::Serialize, req, 0);
        self.registry.batch(|b| {
            b.add(SERIALIZES, 1);
            b.record(SERIALIZE_US, us);
        });
        out
    }

    /// Records one completed engine job: the per-origin counter, the
    /// total, the latency observation, and the exact max — one batch,
    /// so `serve_jobs_total == cached + warm + cold ==
    /// serve_job_latency_us._count` in every scrape.
    pub fn job_finished(&self, origin: Origin, latency_us: u64) {
        let per_origin = match origin {
            Origin::Cached => JOBS_CACHED,
            Origin::Warm => JOBS_WARM,
            Origin::Cold => JOBS_COLD,
        };
        self.registry.batch(|b| {
            b.add(JOBS, 1);
            b.add(per_origin, 1);
            b.record(JOB_LATENCY_US, latency_us);
            b.gauge_max(JOB_LATENCY_MAX_US, latency_us);
        });
    }

    /// One `metrics` scrape: refreshes the point-in-time gauges (live
    /// server state sampled at scrape time) in one batch, then renders
    /// the registry as a Prometheus text exposition. Gauge refresh is
    /// idempotent, so idle scrapes are byte-identical.
    #[must_use]
    pub fn scrape(&self, gauges: &[(&'static str, u64)]) -> String {
        self.registry.batch(|b| {
            for (name, value) in gauges {
                b.set_gauge(name, *value);
            }
        });
        cheri_telem::render_exposition(&self.registry.snapshot())
    }

    /// The final-flush document: a Chrome trace-event JSON (loadable in
    /// `chrome://tracing` / Perfetto, which ignore the extra key) with
    /// the final metric snapshot embedded under `telemMetrics`.
    #[must_use]
    pub fn flush_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.raw_field("traceEvents", &self.spans.to_chrome_events_json());
        w.str_field("displayTimeUnit", "ms");
        w.raw_field("telemMetrics", &self.registry.snapshot().to_json());
        w.close()
    }
}

/// Adapts the sweep runner's span hook (`(phase, is_begin)`) to the
/// span log and the phase histograms: begin events start a host timer
/// and open the span; end events close it (tagged with the job's
/// origin) and record the duration with its counter in one batch.
pub struct PhaseRecorder<'a> {
    telem: &'a ServiceTelem,
    ctx: JobCtx,
    origin_tag: &'static str,
    /// Begin times of the open spans (the runner's spans nest, so the
    /// last one is the next to end).
    started: Vec<Instant>,
}

/// The (counter, histogram) pair a job phase records into; `None` for
/// phases the runner never emits.
fn phase_metrics(phase: SpanPhase) -> Option<(&'static str, &'static str)> {
    Some(match phase {
        SpanPhase::Boot => (BOOTS, BOOT_US),
        SpanPhase::Restore => (RESTORES, RESTORE_US),
        SpanPhase::Simulate => (SIMULATES, SIMULATE_US),
        SpanPhase::Request | SpanPhase::Queue | SpanPhase::Serialize => return None,
    })
}

impl<'a> PhaseRecorder<'a> {
    /// A recorder for one job; `origin_tag` labels every end event.
    #[must_use]
    pub fn new(
        telem: &'a ServiceTelem,
        ctx: JobCtx,
        origin_tag: &'static str,
    ) -> PhaseRecorder<'a> {
        PhaseRecorder { telem, ctx, origin_tag, started: Vec::new() }
    }

    /// The hook body: pass `Some(&mut |phase, begin| rec.note(phase,
    /// begin))` as [`cheri_sweep::RunOpts::span`].
    pub fn note(&mut self, phase: SpanPhase, begin: bool) {
        if !self.telem.enabled() {
            return;
        }
        let Some((counter, hist)) = phase_metrics(phase) else { return };
        if begin {
            self.started.push(Instant::now());
            self.telem.spans.begin(phase, self.ctx.req, self.ctx.job);
        } else {
            let us = self.started.pop().map_or(0, elapsed_us);
            self.telem.spans.end_tagged(phase, self.ctx.req, self.ctx.job, self.origin_tag);
            self.telem.registry.batch(|b| {
                b.add(counter, 1);
                b.record(hist, us);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_recorder_balances_and_pairs_counts() {
        let telem = ServiceTelem::new(true);
        let ctx = JobCtx { req: 5, job: 1 };
        let mut rec = PhaseRecorder::new(&telem, ctx, "warm");
        rec.note(SpanPhase::Restore, true);
        rec.note(SpanPhase::Restore, false);
        rec.note(SpanPhase::Simulate, true);
        rec.note(SpanPhase::Simulate, false);
        telem.job_finished(Origin::Warm, 1234);
        telem.spans().check_balance().unwrap();
        let snap = telem.registry().snapshot();
        for (hist, counter) in HIST_COUNTER_PAIRS {
            let count = snap.histogram(hist).map_or(0, cheri_telem::HistSnapshot::count);
            assert_eq!(count, snap.counter(counter), "{hist} vs {counter}");
        }
        assert_eq!(snap.counter(JOBS), 1);
        assert_eq!(snap.counter(JOBS_WARM), 1);
        assert_eq!(snap.gauge(JOB_LATENCY_MAX_US), 1234);
    }

    #[test]
    fn disabled_telem_is_inert() {
        let telem = ServiceTelem::new(false);
        let mut rec = PhaseRecorder::new(&telem, JobCtx::default(), "cold");
        rec.note(SpanPhase::Boot, true);
        rec.note(SpanPhase::Boot, false);
        telem.job_finished(Origin::Cold, 9);
        let out = telem.serialize_span(1, || 42);
        assert_eq!(out, 42);
        assert!(telem.spans().is_empty());
        assert_eq!(telem.registry().snapshot(), cheri_telem::TelemSnapshot::default());
    }

    #[test]
    fn failed_resume_still_balances_its_spans() {
        use cheri_sweep::{run, Capture, JobSpec, RunOpts, Start, StrategyKind};
        let spec = JobSpec::new(
            cheri_work::Workload::Treeadd,
            StrategyKind::Mips,
            cheri_olden::OldenParams::scaled(),
        );
        let cold = run(&spec, RunOpts { capture: Capture::Phase2, ..RunOpts::default() });
        let mut snap = cold.unwrap().snapshot.expect("treeadd reaches phase 2");
        snap.kernel = None; // machine-only: the kernel cannot resume it
        let telem = ServiceTelem::new(true);
        let mut rec = PhaseRecorder::new(&telem, JobCtx::single(3), "warm");
        let out = run(
            &spec,
            RunOpts {
                start: Start::Resume(&snap),
                span: Some(&mut |p, b| rec.note(p, b)),
                ..RunOpts::default()
            },
        );
        assert!(out.unwrap_err().contains("machine-only"), "restore must fail");
        telem.spans().check_balance().unwrap();
        assert_eq!(telem.spans().events().len(), 2, "one restore span, no simulate span");
        assert_eq!(telem.registry().snapshot().counter(RESTORES), 1);
    }
}
