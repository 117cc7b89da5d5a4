//! The batch side: job lists, the untraced batch pass, set-up timing
//! and the traced pass that times each layer's public calls from outside.

use crate::stats::{timed, Timing};
use cheri_olden::dsl::BenchSession;
use cheri_sweep::{run_spec_with_sink, JobRecord, JobResult, JobSpec, WARM_SNAPSHOT_PHASE};
use cheri_telem::{SpanLog, SpanPhase};
use std::collections::BTreeMap;

/// One finished job: its key and its record exactly as a sweep report
/// line carries it.
pub struct Done {
    pub key: String,
    pub record: String,
}

pub fn record_of(spec: &JobSpec, run: cheri_olden::dsl::BenchRun) -> String {
    JobRecord::from_result(&JobResult { spec: *spec, run }).to_json()
}

/// Runs one job through the sweep's public runner on this thread (what
/// `xsweep --jobs 1` does per job). Returns its time in the runner and
/// its record.
pub fn run_job(spec: &JobSpec) -> Result<(Timing, Done), String> {
    let (run, t) = timed(|| run_spec_with_sink(spec, None));
    let run = run.map_err(|e| format!("{}: {e}", spec.key()))?;
    Ok((t, Done { key: spec.key(), record: JobRecord::from_result(&run).to_json() }))
}

/// Runs every job once, in order. Returns each job's time and record.
pub fn batch_pass(specs: &[JobSpec]) -> Result<(Vec<Timing>, Vec<Done>), String> {
    specs.iter().map(run_job).collect::<Result<Vec<_>, _>>().map(|v| v.into_iter().unzip())
}

/// One set-up of the whole job list: build each guest module, compile
/// it and boot a session up to its first instruction.
pub fn setup_once(specs: &[JobSpec]) -> Result<Timing, String> {
    let (out, t) = timed(|| setup_list(specs));
    out.map(|()| t)
}

fn setup_list(specs: &[JobSpec]) -> Result<(), String> {
    for spec in specs {
        let strategy = spec.strategy.strategy();
        let module = spec.workload.module(&spec.params);
        let session =
            BenchSession::start_module(&module, strategy.as_ref(), spec.machine_config(), None)
                .map_err(|e| format!("{}: {e}", spec.key()))?;
        drop(session);
    }
    Ok(())
}

/// The layers the traced pass times, in call order. Each is one span per
/// job; the job span is their parent.
pub const LAYERS: [&str; 8] = [
    "cc.compile",
    "os.boot",
    "sim.alloc",
    "snap.capture",
    "snap.hash",
    "sim.compute",
    "snap.restore",
    "sweep.record",
];

/// The timeline lane phase each span is logged under (the telemetry
/// span log's fixed phase set); the layer name rides as the end tag.
fn phase_of(layer: &str) -> SpanPhase {
    match layer {
        "job" => SpanPhase::Request,
        "cc.compile" | "os.boot" => SpanPhase::Boot,
        "sim.alloc" | "sim.compute" | "sim.compute_nobc" => SpanPhase::Simulate,
        "snap.restore" => SpanPhase::Restore,
        _ => SpanPhase::Serialize,
    }
}

/// Spans of the traced pass, kept in memory and written out once.
pub struct Tracer {
    log: SpanLog,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { log: SpanLog::new(true) }
    }

    fn span<T>(&self, lane: u64, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let phase = phase_of(layer);
        self.log.begin(phase, lane, 0);
        let out = f();
        self.log.end_tagged(phase, lane, 0, layer);
        out
    }

    pub fn chrome_json(&self) -> String {
        self.log.to_chrome_json()
    }

    /// Rebuilds spans from the event log (nesting within a lane gives the
    /// parent) and sums, per layer, total and self time in seconds.
    pub fn layer_times(&self) -> Result<BTreeMap<&'static str, (f64, f64)>, String> {
        self.log.check_balance()?;
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        // Per lane: open spans as (start µs, µs covered by children).
        let mut open: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for e in self.log.events() {
            let stack = open.entry(e.req).or_default();
            if e.begin {
                stack.push((e.t_us, 0));
                continue;
            }
            let (start, children) = stack.pop().ok_or("span end without begin")?;
            let dur = e.t_us - start;
            if let Some(parent) = stack.last_mut() {
                parent.1 += dur;
            }
            let slot = out.entry(e.tag.ok_or("untagged span")?).or_default();
            slot.0 += dur as f64 / 1e6;
            slot.1 += dur.saturating_sub(children) as f64 / 1e6;
        }
        Ok(out)
    }
}

/// What the traced pass measured beyond its span log.
pub struct Traced {
    pub done: Vec<Done>,
    /// Records of the block-cache-off re-run of each computation phase.
    pub nobc: Vec<Done>,
    /// Serialized snapshot bytes, summed.
    pub snap_bytes: u64,
}

/// The traced pass: each job takes the serve cold path, call by call —
/// compile, boot, allocation phase, capture, hash, computation, a timed
/// restore that is discarded, and the record — then re-runs its
/// computation phase from the snapshot with the block cache off.
pub fn traced_pass(specs: &[JobSpec], tracer: &Tracer) -> Result<Traced, String> {
    let mut out = Traced { done: Vec::new(), nobc: Vec::new(), snap_bytes: 0 };
    for (lane, spec) in (1u64..).zip(specs) {
        let fail = |e: String| format!("{}: {e}", spec.key());
        let strategy = spec.strategy.strategy();
        let block_cache = spec.machine_config().block_cache;
        let (record, snap) = tracer
            .span(lane, "job", || -> Result<_, String> {
                let module = tracer.span(lane, "cc.compile", || {
                    let module = spec.workload.module(&spec.params);
                    cheri_cc::compile(
                        &module,
                        strategy.as_ref(),
                        cheri_cc::codegen::CompileOpts::default(),
                    )
                    .map(|_| module)
                });
                let module = module.map_err(|e| e.to_string())?;
                let mut session = tracer
                    .span(lane, "os.boot", || {
                        BenchSession::start_module(
                            &module,
                            strategy.as_ref(),
                            spec.machine_config(),
                            None,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let early = tracer
                    .span(lane, "sim.alloc", || session.run_until_phase(WARM_SNAPSHOT_PHASE))
                    .map_err(|e| e.to_string())?;
                if early.is_some() {
                    return Err("exited before the phase-2 boundary".into());
                }
                let snap = tracer.span(lane, "snap.capture", || session.snapshot());
                std::hint::black_box(tracer.span(lane, "snap.hash", || snap.state_hash()));
                let run = tracer
                    .span(lane, "sim.compute", || session.run_to_completion())
                    .map_err(|e| e.to_string())?;
                let resumed = tracer
                    .span(lane, "snap.restore", || {
                        BenchSession::resume(&snap, spec.strategy.name(), block_cache)
                    })
                    .map_err(|e| e.to_string())?;
                drop(resumed);
                let record = tracer.span(lane, "sweep.record", || record_of(spec, run));
                Ok((record, snap))
            })
            .map_err(fail)?;
        out.snap_bytes += snap.to_json().len() as u64;
        let mut nobc = BenchSession::resume(&snap, spec.strategy.name(), false)
            .map_err(|e| fail(e.to_string()))?;
        let run = tracer
            .span(lane, "sim.compute_nobc", || nobc.run_to_completion())
            .map_err(|e| fail(e.to_string()))?;
        out.nobc.push(Done { key: spec.key(), record: record_of(spec, run) });
        out.done.push(Done { key: spec.key(), record });
    }
    Ok(out)
}
