//! The canonical experiment matrix.
//!
//! Every harness that iterates workloads × pointer strategies — the
//! Figure 4/5 reproductions, the three ablations, and the `xsweep`
//! runner — draws its axes from this module, so the workload lists,
//! strategy lists, and iteration orders cannot drift apart between
//! binaries (they used to be duplicated inline in fig4 and fig5).

use beri_sim::MachineConfig;
use cheri_cc::strategy::{CapPtr, LegacyPtr, PtrStrategy, SoftFatPtr};
use cheri_olden::dsl::{BenchRun, BenchSession};
use cheri_olden::OldenParams;
use cheri_snap::Snapshot;
use cheri_telem::SpanPhase;
use cheri_trace::{marker, SharedSink};
use cheri_work::{machine_config, Workload};

use crate::engine;

/// The default tag-cache capacity in KB (Section 4.2's 8 KB).
pub const DEFAULT_TAG_CACHE_KB: usize = 8;

/// One point on the pointer-strategy axis. The capability width
/// (256-bit research / 128-bit production format) is part of the
/// strategy, because it changes both the compiled code and the machine
/// configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Unmodified MIPS code (the baseline).
    Mips,
    /// CCured-style software fat pointers, checked everywhere.
    Ccured,
    /// Software fat pointers with straight-line check elision (§8).
    CcuredElide,
    /// CHERI capabilities, 256-bit research format.
    Cheri256,
    /// CHERI capabilities, 128-bit production format.
    Cheri128,
}

impl StrategyKind {
    /// Every strategy, in canonical report order.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::Mips,
        StrategyKind::Ccured,
        StrategyKind::CcuredElide,
        StrategyKind::Cheri256,
        StrategyKind::Cheri128,
    ];

    /// The canonical name (matches `PtrStrategy::name`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Mips => "mips",
            StrategyKind::Ccured => "ccured",
            StrategyKind::CcuredElide => "ccured-elide",
            StrategyKind::Cheri256 => "cheri",
            StrategyKind::Cheri128 => "cheri128",
        }
    }

    /// Resolves a strategy by name, accepting the aliases the
    /// harnesses have always taken on the command line.
    #[must_use]
    pub fn parse(name: &str) -> Option<StrategyKind> {
        Some(match name {
            "mips" | "legacy" => StrategyKind::Mips,
            "ccured" | "soft" => StrategyKind::Ccured,
            "ccured-elide" | "elide" => StrategyKind::CcuredElide,
            "cheri" | "cap" | "c256" => StrategyKind::Cheri256,
            "cheri128" | "c128" => StrategyKind::Cheri128,
            _ => return None,
        })
    }

    /// Instantiates the compiler strategy.
    #[must_use]
    pub fn strategy(self) -> Box<dyn PtrStrategy> {
        match self {
            StrategyKind::Mips => Box::new(LegacyPtr),
            StrategyKind::Ccured => Box::new(SoftFatPtr::checked()),
            StrategyKind::CcuredElide => Box::new(SoftFatPtr::eliding()),
            StrategyKind::Cheri256 => Box::new(CapPtr::c256()),
            StrategyKind::Cheri128 => Box::new(CapPtr::c128()),
        }
    }

    /// Capability width in bits (0 for non-capability code).
    #[must_use]
    pub fn cap_bits(self) -> u64 {
        match self {
            StrategyKind::Cheri256 => 256,
            StrategyKind::Cheri128 => 128,
            _ => 0,
        }
    }

    /// Whether this strategy exercises the capability coprocessor (and
    /// therefore the tag-cache axis).
    #[must_use]
    pub fn is_capability(self) -> bool {
        self.cap_bits() != 0
    }
}

/// Figure 4's three compilation modes, baseline first.
pub const FIGURE4_STRATEGIES: [StrategyKind; 3] =
    [StrategyKind::Mips, StrategyKind::Ccured, StrategyKind::Cheri256];

/// Figure 5's heap-size sweep pair.
pub const HEAPSIZE_STRATEGIES: [StrategyKind; 2] = [StrategyKind::Mips, StrategyKind::Cheri256];

/// The capability-width ablation triple.
pub const CAPWIDTH_STRATEGIES: [StrategyKind; 3] =
    [StrategyKind::Mips, StrategyKind::Cheri256, StrategyKind::Cheri128];

/// The check-elision ablation triple.
pub const ELISION_STRATEGIES: [StrategyKind; 3] =
    [StrategyKind::Mips, StrategyKind::Ccured, StrategyKind::CcuredElide];

/// The §4.2 tag-cache size ablation axis, in KB (0 = no tag cache).
pub const TAG_ABLATION_KB: [usize; 7] = [0, 1, 2, 4, 8, 16, 64];

/// Figure 5's sweep points for one workload: the parameter values
/// whose *baseline* heaps span roughly 4 KB .. 1024 KB. The points live
/// in the workload registry ([`cheri_work::WorkloadInfo::sweep_points`]);
/// this re-export keeps the historical call-site spelling.
#[must_use]
pub fn heapsize_sweep(workload: Workload) -> Vec<(u32, OldenParams)> {
    workload.sweep_points()
}

/// One fully specified experiment: a workload at a problem size, a
/// pointer strategy, and a machine tag-cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// The guest workload (Olden kernel or runtime-system workload).
    pub workload: Workload,
    /// The pointer strategy (includes the capability width).
    pub strategy: StrategyKind,
    /// Tag-cache capacity in KB (0 = none).
    pub tag_cache_kb: usize,
    /// Problem sizes.
    pub params: OldenParams,
    /// The sweep-point label for parameterised sweeps (Figure 5's
    /// x-axis value); `None` for single-point experiments.
    pub variant: Option<u32>,
}

impl JobSpec {
    /// A spec at the default tag-cache size with no variant label.
    #[must_use]
    pub fn new(workload: Workload, strategy: StrategyKind, params: OldenParams) -> JobSpec {
        JobSpec { workload, strategy, tag_cache_kb: DEFAULT_TAG_CACHE_KB, params, variant: None }
    }

    /// Resolves a spec from its named parts — the one constructor every
    /// by-name surface (`profbin` flags, the `cheri-serve` wire
    /// protocol, `serveload --job`) goes through, so a job spelled the
    /// same way always means the same experiment. Returns `None` if the
    /// workload or strategy name is unknown.
    #[must_use]
    pub fn from_parts(
        workload: &str,
        strategy: &str,
        tag_cache_kb: usize,
        params: OldenParams,
    ) -> Option<JobSpec> {
        let workload = Workload::parse(workload)?;
        let strategy = StrategyKind::parse(strategy)?;
        Some(JobSpec { workload, strategy, tag_cache_kb, params, variant: None })
    }

    /// The canonical serialization of this job's *complete*
    /// configuration: every field that influences the result (workload,
    /// strategy, tag-cache size, variant label, and all problem-size
    /// parameters) in a fixed order with fixed formatting. Two specs
    /// describe the same experiment iff their canonical forms are
    /// byte-equal — this is the config half of the `cheri-serve`
    /// result-cache key, so requests that spell the same job with
    /// different JSON field order or whitespace dedup onto one entry.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        use cheri_trace::json::JsonWriter;
        let mut w = JsonWriter::object();
        w.str_field("workload", self.workload.name());
        w.str_field("strategy", self.strategy.name());
        w.u64_field("tag_cache_kb", self.tag_cache_kb as u64);
        match self.variant {
            Some(v) => w.u64_field("variant", u64::from(v)),
            None => w.raw_field("variant", "null"),
        }
        w.raw_field("params", &self.params.canonical_json());
        w.close()
    }

    /// The unique report key: `workload/strategy/tagNN[/pVV]`.
    #[must_use]
    pub fn key(&self) -> String {
        let mut k =
            format!("{}/{}/tag{}", self.workload.name(), self.strategy.name(), self.tag_cache_kb);
        if let Some(v) = self.variant {
            use std::fmt::Write as _;
            let _ = write!(k, "/p{v}");
        }
        k
    }

    /// The trace-marker label, matching the historical harness format:
    /// `workload/strategy` or `workload/strategy/variant`.
    #[must_use]
    pub fn marker_label(&self) -> String {
        match self.variant {
            Some(v) => format!("{}/{}/{}", self.workload.name(), self.strategy.name(), v),
            None => format!("{}/{}", self.workload.name(), self.strategy.name()),
        }
    }

    /// The machine configuration for this job: sized for the workload,
    /// capability format matching the strategy, tag cache as specified.
    #[must_use]
    pub fn machine_config(&self) -> MachineConfig {
        let strategy = self.strategy.strategy();
        MachineConfig {
            tag_cache_bytes: self.tag_cache_kb * 1024,
            ..machine_config(self.workload, &self.params, strategy.as_ref())
        }
    }
}

/// A completed job: the spec it ran plus the full measured run (phase
/// statistics, checksums, and the unified metrics snapshot).
#[derive(Clone, Debug)]
pub struct JobResult {
    /// What ran.
    pub spec: JobSpec,
    /// What was measured.
    pub run: BenchRun,
}

/// The phase id at which warm-start snapshots are taken. Every Olden
/// workload issues `SYS_PHASE 2` when its computation phase begins, so
/// a snapshot here has compilation, exec, and allocation already paid
/// for — the warm pass replays only the computation.
pub const WARM_SNAPSHOT_PHASE: u64 = 2;

/// Where a [`run`] starts.
#[derive(Clone, Copy, Debug, Default)]
pub enum Start<'a> {
    /// Compile the workload, boot a fresh kernel/machine, and exec it.
    #[default]
    Cold,
    /// Restore a [`Capture::Phase2`] snapshot and run the remainder,
    /// byte-identically to the cold run it came from (`xsweep --warm`).
    Resume(&'a Snapshot),
}

/// Which machine+kernel snapshot a [`run`] captures into
/// [`RunOutput::snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Capture {
    /// No snapshot.
    #[default]
    None,
    /// The warm-start snapshot at a cold run's [`WARM_SNAPSHOT_PHASE`]
    /// boundary (absent if the workload exits before it).
    Phase2,
    /// The final state — the divergence artifact a failed gate writes.
    Final,
}

/// How [`run`] executes one job. Every field is an observation or a
/// host-side choice; none changes the job's architectural results.
#[derive(Default)]
pub struct RunOpts<'a> {
    /// Forces the predecoded block cache on or off (`None`:
    /// [`MachineConfig::default`]'s environment-driven setting).
    pub block_cache: Option<bool>,
    /// Streams every event of a cold run into this sink, after a
    /// `run start:` marker.
    pub sink: Option<SharedSink>,
    /// Profiles a whole cold run into [`RunOutput::profile`].
    pub profile: bool,
    /// Cold boot or warm resume.
    pub start: Start<'a>,
    /// Which snapshot to capture.
    pub capture: Capture,
    /// Called as `span(phase, is_begin)`: [`SpanPhase::Boot`] (through
    /// the phase-2 boundary under [`Capture::Phase2`]) or
    /// [`SpanPhase::Restore`], then [`SpanPhase::Simulate`]. Ends are
    /// emitted on error paths too, so the spans always balance.
    pub span: Option<&'a mut dyn FnMut(SpanPhase, bool)>,
}

/// What [`run`] produced.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The job and its measured run.
    pub result: JobResult,
    /// The snapshot [`RunOpts::capture`] asked for, if it was reached.
    pub snapshot: Option<Snapshot>,
    /// The finished profile, when [`RunOpts::profile`] was set.
    pub profile: Option<cheri_prof::ProfileReport>,
}

/// Runs one job — the single execution path behind every sweep mode,
/// figure harness, and served request. An unobserved run is the same
/// call without a span hook, which keeps telemetry out of the
/// byte-identity argument.
///
/// # Errors
///
/// The compile/OS/restore error as a string (callers add the job key),
/// or a usage error if a resumed run asks for a profiler, a trace sink,
/// or a phase-2 capture.
pub fn run(spec: &JobSpec, opts: RunOpts<'_>) -> Result<RunOutput, String> {
    let RunOpts { block_cache, sink, profile, start, capture, span } = opts;
    let mut unobserved = |_: SpanPhase, _: bool| {};
    let span = span.unwrap_or(&mut unobserved);
    let phase = match start {
        Start::Cold => SpanPhase::Boot,
        Start::Resume(_) => SpanPhase::Restore,
    };
    span(phase, true);
    let started = start_session(spec, block_cache, sink, profile, start, capture);
    span(phase, false);
    let (mut session, early) = started?;
    let (run, snapshot) = match early {
        Some(run) => (run, None),
        None => {
            let phase2 = (capture == Capture::Phase2).then(|| session.snapshot());
            span(SpanPhase::Simulate, true);
            let run = session.run_to_completion().map_err(|e| e.to_string());
            span(SpanPhase::Simulate, false);
            let run = run?;
            (run, if capture == Capture::Final { Some(session.snapshot()) } else { phase2 })
        }
    };
    let profile = if profile {
        Some(session.take_profile().ok_or("profiled session lost its profiler")?)
    } else {
        None
    };
    Ok(RunOutput { result: JobResult { spec: *spec, run }, snapshot, profile })
}

/// The part of [`run`] inside its first span: a cold boot (through the
/// phase-2 boundary under [`Capture::Phase2`], returning the finished run
/// if the workload exits first) or a snapshot restore.
fn start_session(
    spec: &JobSpec,
    block_cache: Option<bool>,
    sink: Option<SharedSink>,
    profile: bool,
    start: Start<'_>,
    capture: Capture,
) -> Result<(BenchSession, Option<BenchRun>), String> {
    let mut cfg = spec.machine_config();
    cfg.block_cache = block_cache.unwrap_or(cfg.block_cache);
    match start {
        Start::Cold => {
            if sink.is_some() {
                marker(&sink, &format!("run start: {}", spec.marker_label()));
            }
            let strategy = spec.strategy.strategy();
            let module = spec.workload.module(&spec.params);
            let mut session = BenchSession::boot(&module, strategy.as_ref(), cfg, sink, profile)
                .map_err(|e| e.to_string())?;
            let early = match capture {
                Capture::Phase2 => session.run_until_phase(WARM_SNAPSHOT_PHASE),
                Capture::None | Capture::Final => Ok(None),
            };
            Ok((session, early.map_err(|e| e.to_string())?))
        }
        Start::Resume(_) if profile || sink.is_some() || capture == Capture::Phase2 => {
            Err("a resumed run cannot attach a profiler or a trace sink, or capture phase 2".into())
        }
        Start::Resume(snap) => {
            let session = BenchSession::resume(snap, spec.strategy.name(), cfg.block_cache);
            Ok((session.map_err(|e| e.to_string())?, None))
        }
    }
}

/// Runs `specs` across `threads` worker threads (each job owns its own
/// machine; `opts(spec)` builds each job's options on its worker) and
/// returns one result per spec, in spec order, independent of thread
/// count and scheduling. A failed job's error is prefixed with its key
/// and leaves every other job's result untouched.
pub fn run_many<'a, F>(specs: &[JobSpec], threads: usize, opts: F) -> Vec<Result<RunOutput, String>>
where
    F: Fn(&JobSpec) -> RunOpts<'a> + Sync,
{
    engine::run_indexed(specs.len(), threads, |i| {
        let spec = &specs[i];
        run(spec, opts(spec)).map_err(|e| format!("{}: {e}", spec.key()))
    })
}

/// Runs one job cold with `sink` attached and returns its result —
/// shorthand for [`run`] with only [`RunOpts::sink`] set.
///
/// # Errors
///
/// As [`run`].
pub fn run_spec_with_sink(spec: &JobSpec, sink: Option<SharedSink>) -> Result<JobResult, String> {
    run(spec, RunOpts { sink, ..RunOpts::default() }).map(|out| out.result)
}

/// The `xsweep` problem-size / matrix-density presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// CI-sized: scaled parameters, default tag cache only (the
    /// `sweep-gate` matrix).
    Smoke,
    /// The default: medium parameters, tag-cache axis on capability
    /// strategies.
    Full,
    /// The paper's parameters (minutes of host time per job).
    Paper,
}

impl Profile {
    /// The profile's name as spelled on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
            Profile::Paper => "paper",
        }
    }

    /// Parses a `--profile` argument.
    #[must_use]
    pub fn parse(name: &str) -> Option<Profile> {
        Some(match name {
            "smoke" => Profile::Smoke,
            "full" => Profile::Full,
            "paper" => Profile::Paper,
            _ => return None,
        })
    }

    /// The problem sizes this profile runs.
    #[must_use]
    pub fn params(self) -> OldenParams {
        match self {
            Profile::Smoke => OldenParams::scaled(),
            Profile::Full => OldenParams::medium(),
            Profile::Paper => OldenParams::paper(),
        }
    }

    /// The tag-cache axis applied to capability strategies.
    #[must_use]
    pub fn tag_cache_axis(self) -> &'static [usize] {
        match self {
            Profile::Smoke => &[DEFAULT_TAG_CACHE_KB],
            Profile::Full | Profile::Paper => &[4, DEFAULT_TAG_CACHE_KB, 16],
        }
    }
}

/// Expands a profile into the full experiment matrix: workload ×
/// strategy, with the tag-cache axis applied to capability strategies
/// (non-capability code never touches the tag controller, so extra
/// tag-cache points would measure nothing).
#[must_use]
pub fn profile_matrix(profile: Profile) -> Vec<JobSpec> {
    let params = profile.params();
    let mut specs = Vec::new();
    for workload in Workload::ALL {
        for strategy in StrategyKind::ALL {
            let tag_axis: &[usize] = if strategy.is_capability() {
                profile.tag_cache_axis()
            } else {
                &[DEFAULT_TAG_CACHE_KB]
            };
            for &tag_cache_kb in tag_axis {
                specs.push(JobSpec { workload, strategy, tag_cache_kb, params, variant: None });
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn strategy_names_roundtrip() {
        for s in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(s.name()), Some(s));
            assert_eq!(s.strategy().name(), s.name());
        }
        assert_eq!(StrategyKind::parse("c128"), Some(StrategyKind::Cheri128));
        assert_eq!(StrategyKind::parse("bogus"), None);
    }

    #[test]
    fn smoke_matrix_shape() {
        let specs = profile_matrix(Profile::Smoke);
        // 6 workloads × (3 non-cap + 2 cap × 1 tag size).
        assert_eq!(specs.len(), 30);
        let keys: BTreeSet<String> = specs.iter().map(JobSpec::key).collect();
        assert_eq!(keys.len(), specs.len(), "job keys must be unique");
        for w in ["vmloop", "allocstress"] {
            assert!(keys.iter().any(|k| k.starts_with(w)), "{w} missing from the matrix");
        }
    }

    #[test]
    fn full_matrix_shape() {
        let specs = profile_matrix(Profile::Full);
        // 6 workloads × (3 non-cap + 2 cap × 3 tag sizes).
        assert_eq!(specs.len(), 54);
        assert!(specs.iter().any(|s| s.tag_cache_kb == 4 && s.strategy.is_capability()));
        assert!(!specs.iter().any(|s| s.tag_cache_kb != 8 && !s.strategy.is_capability()));
    }

    #[test]
    fn spec_key_and_marker_format() {
        let mut spec =
            JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, OldenParams::scaled());
        assert_eq!(spec.key(), "treeadd/cheri/tag8");
        assert_eq!(spec.marker_label(), "treeadd/cheri");
        spec.variant = Some(12);
        assert_eq!(spec.key(), "treeadd/cheri/tag8/p12");
        assert_eq!(spec.marker_label(), "treeadd/cheri/12");
    }

    #[test]
    fn from_parts_matches_direct_construction() {
        let p = OldenParams::scaled();
        let spec = JobSpec::from_parts("treeadd", "cheri", 8, p).unwrap();
        assert_eq!(spec.key(), "treeadd/cheri/tag8");
        // Aliases resolve to the same spec as canonical names.
        let alias = JobSpec::from_parts("treeadd", "c256", 8, p).unwrap();
        assert_eq!(alias.canonical_json(), spec.canonical_json());
        // The runtime-system workloads are first-class citizens.
        let vm = JobSpec::from_parts("vmloop", "cheri128", 8, p).unwrap();
        assert_eq!(vm.key(), "vmloop/cheri128/tag8");
        let al = JobSpec::from_parts("allocstress", "mips", 8, p).unwrap();
        assert_eq!(al.key(), "allocstress/mips/tag8");
        assert!(JobSpec::from_parts("nosuch", "cheri", 8, p).is_none());
        assert!(JobSpec::from_parts("treeadd", "nosuch", 8, p).is_none());
    }

    #[test]
    fn canonical_json_covers_every_field() {
        let p = OldenParams::scaled();
        let base = JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, p);
        let canon = base.canonical_json();
        // Stable under re-serialization.
        assert_eq!(base.canonical_json(), canon);
        // Every single-field change shows up.
        let variants = [
            JobSpec { workload: Workload::Mst, ..base },
            JobSpec { workload: Workload::Vmloop, ..base },
            JobSpec { strategy: StrategyKind::Cheri128, ..base },
            JobSpec { tag_cache_kb: 16, ..base },
            JobSpec { variant: Some(3), ..base },
            JobSpec { params: OldenParams { treeadd_depth: p.treeadd_depth + 1, ..p }, ..base },
            JobSpec { params: OldenParams { vm_sort: p.vm_sort + 1, ..p }, ..base },
            JobSpec { params: OldenParams { alloc_slots: p.alloc_slots + 1, ..p }, ..base },
        ];
        for v in variants {
            assert_ne!(v.canonical_json(), canon, "{v:?} must change the canonical form");
        }
        // The embedded params object is exactly the params codec's
        // canonical form, so the two cannot drift.
        assert!(canon.contains(&p.canonical_json()));
    }

    #[test]
    fn machine_config_follows_strategy() {
        use beri_sim::machine::CapFormat;
        let p = OldenParams::scaled();
        let c128 = JobSpec::new(Workload::Treeadd, StrategyKind::Cheri128, p).machine_config();
        assert_eq!(c128.cap_format, CapFormat::C128);
        let c256 = JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, p).machine_config();
        assert_eq!(c256.cap_format, CapFormat::C256);
        let spec =
            JobSpec { tag_cache_kb: 64, ..JobSpec::new(Workload::Mst, StrategyKind::Cheri256, p) };
        assert_eq!(spec.machine_config().tag_cache_bytes, 64 * 1024);
    }

    #[test]
    fn figure4_order_is_baseline_first() {
        assert_eq!(FIGURE4_STRATEGIES[0], StrategyKind::Mips);
        assert_eq!(FIGURE4_STRATEGIES[1], StrategyKind::Ccured);
        assert_eq!(FIGURE4_STRATEGIES[2], StrategyKind::Cheri256);
    }

    #[test]
    fn heapsize_sweep_covers_all_workloads() {
        for workload in Workload::ALL {
            let points = heapsize_sweep(workload);
            assert!(points.len() >= 6, "{}: too few sweep points", workload.name());
        }
    }

    #[test]
    fn one_failed_job_fails_only_its_own_slot() {
        let p = OldenParams::scaled();
        let specs: Vec<JobSpec> =
            [StrategyKind::Mips, StrategyKind::Cheri256, StrategyKind::Ccured]
                .into_iter()
                .map(|s| JobSpec::new(Workload::Treeadd, s, p))
                .collect();
        // A machine-only snapshot (no kernel section) cannot be resumed.
        let cold = run(&specs[1], RunOpts { capture: Capture::Phase2, ..RunOpts::default() });
        let mut bad = cold.unwrap().snapshot.expect("treeadd reaches phase 2");
        bad.kernel = None;
        let bad_key = specs[1].key();
        let outs = run_many(&specs, 2, |spec| {
            let start = if spec.key() == bad_key { Start::Resume(&bad) } else { Start::Cold };
            RunOpts { start, ..RunOpts::default() }
        });
        let err = outs[1].as_ref().expect_err("resuming a machine-only snapshot must fail");
        assert!(err.starts_with("treeadd/cheri/tag8: "), "error names its job: {err}");
        let record = |r: &JobResult| crate::JobRecord::from_result(r);
        for i in [0, 2] {
            let got = record(&outs[i].as_ref().unwrap().result);
            let alone = record(&run(&specs[i], RunOpts::default()).unwrap().result);
            assert_eq!(
                got.to_json(),
                alone.to_json(),
                "{}: a neighbour's failure leaked",
                specs[i].key()
            );
        }
    }
}
