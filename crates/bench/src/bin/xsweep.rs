//! `xsweep` — the parallel experiment-sweep runner and CI regression
//! gate.
//!
//! Expands the full experiment matrix (workload × pointer strategy ×
//! capability width × tag-cache config) into independent jobs, shards
//! them across `--jobs N` worker threads (each job owns its own
//! machine), and writes a deterministic JSON report of every job's
//! architectural counters. The report is bit-identical regardless of
//! thread count.
//!
//! ```text
//! xsweep [--profile smoke|full|paper]   matrix preset (default: full)
//!        [--workloads W1,W2,...]        restrict every mode to the named
//!                                       workloads (comma-separated canonical
//!                                       names); --check gates only their jobs
//!        [--jobs N]                     worker threads (default: host)
//!        [--out PATH]                   report path (default: results/sweep.json)
//!        [--check PATH]                 gate against a baseline; nonzero exit on drift
//!        [--bless [PATH]]               (re)write the golden baseline
//!        [--perf [PATH]]                time the matrix with the simulator's block
//!                                       cache on vs off, verify the two reports are
//!                                       identical, and write a throughput report
//!                                       (default: results/perf.json)
//!        [--warm]                       run every job cold (snapshotting at the
//!                                       phase-2 boundary), then again warm-started
//!                                       from the snapshot; assert the two reports
//!                                       are byte-identical and record the speedup
//!        [--prof]                       run every job plain and then with the
//!                                       symbolized guest profiler attached; assert
//!                                       the two reports are byte-identical and
//!                                       write per-job profiles (.prof.json,
//!                                       .folded, .timeline.json) to results/prof/
//! ```
//!
//! When the `--perf` transparency assert, the `--warm` equality assert,
//! or the `--check` gate fails, the offending jobs' machine+kernel
//! snapshots are written as `results/divergence-*.json` for offline
//! triage with `snapreplay`.

use cheri_bench::cli::{self, Cli};
use cheri_bench::{all_or_fail, parse_workloads_csv};
use cheri_snap::Snapshot;
use cheri_sweep::{
    check_reports, comparisons, profile_matrix, render_drifts, run, run_indexed, run_many,
    run_matrix, Capture, JobRecord, JobResult, JobSpec, Profile, RunOpts, RunOutput, Start,
    SweepReport,
};
use cheri_trace::json::{self, Json};
use cheri_work::Workload;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "xsweep [--profile smoke|full|paper] [--workloads W1,W2,...] [--jobs N] \
     [--out PATH] [--check BASELINE] [--bless [PATH]] [--perf [PATH]] [--warm] [--prof]";

struct Args {
    profile: Profile,
    workloads: Option<Vec<Workload>>,
    jobs: usize,
    out: PathBuf,
    check: Option<PathBuf>,
    bless: Option<PathBuf>,
    perf: Option<PathBuf>,
    warm: bool,
    prof: bool,
}

/// A runtime failure on a well-formed invocation (unreadable baseline,
/// failed gate, divergence): exit 1, distinct from the scanner's exit 2
/// so scripts can tell "you called me wrong" from "the run found a
/// problem".
fn fail(msg: &str) -> ! {
    cli::fail("xsweep", msg)
}

fn parse_args() -> Args {
    let mut cli = Cli::new("xsweep", USAGE);
    let mut args = Args {
        profile: Profile::Full,
        workloads: None,
        jobs: cheri_sweep::default_threads(),
        out: PathBuf::from("results/sweep.json"),
        check: None,
        bless: None,
        perf: None,
        warm: false,
        prof: false,
    };
    let mut blessed = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--profile" => {
                let name = cli.value("--profile");
                args.profile = Profile::parse(&name)
                    .unwrap_or_else(|| cli.usage_exit(&format!("unknown profile '{name}'")));
            }
            "--workloads" => {
                let csv = cli.value("--workloads");
                args.workloads = Some(parse_workloads_csv(&cli, &csv));
            }
            "--jobs" => args.jobs = cli.positive("--jobs"),
            "--out" => args.out = PathBuf::from(cli.value("--out")),
            "--check" => args.check = Some(PathBuf::from(cli.value("--check"))),
            // --bless and --perf take an optional path operand.
            "--bless" => {
                blessed = true;
                args.bless = cli.opt_value().map(PathBuf::from);
            }
            "--perf" => {
                args.perf = Some(
                    cli.opt_value()
                        .map_or_else(|| PathBuf::from("results/perf.json"), PathBuf::from),
                );
            }
            "--warm" => args.warm = true,
            "--prof" => args.prof = true,
            other => cli.unknown(other),
        }
    }
    if blessed && args.bless.is_none() {
        args.bless = Some(PathBuf::from(format!("baselines/sweep-{}.json", args.profile.name())));
    }
    if blessed && args.workloads.is_some() {
        cli.usage_exit("--bless writes the whole matrix; it cannot be combined with --workloads");
    }
    if args.warm && args.perf.is_some() {
        cli.usage_exit("--warm and --perf are separate timing modes; pass one at a time");
    }
    if args.prof && (args.warm || args.perf.is_some()) {
        cli.usage_exit("--prof is its own mode; pass it without --perf/--warm");
    }
    args
}

fn write_report(path: &Path, text: &str) {
    cli::write_file("xsweep", path, text);
}

/// Expands the profile's matrix, restricted to the `--workloads`
/// selection when one was given. Every mode (default, `--perf`,
/// `--warm`, `--prof`) draws its specs from here, so the filter means
/// the same thing everywhere.
fn selected_matrix(args: &Args) -> Vec<JobSpec> {
    let specs = profile_matrix(args.profile);
    match &args.workloads {
        None => specs,
        Some(ws) => specs.into_iter().filter(|s| ws.contains(&s.workload)).collect(),
    }
}

/// Prints a mode's banner: `== xsweep{mode}: N jobs (P profile) on T
/// threads{what} ==`.
fn banner(args: &Args, jobs: usize, mode: &str, what: &str) {
    let plural = if args.jobs == 1 { "" } else { "s" };
    let (profile, threads) = (args.profile.name(), args.jobs);
    println!(
        "== xsweep{mode}: {jobs} jobs ({profile} profile) on {threads} thread{plural}{what} ==\n"
    );
}

/// The sweep report of one matrix pass; exits 1 naming the first failed
/// job.
fn report_of(args: &Args, outs: Vec<Result<RunOutput, String>>) -> SweepReport {
    let results: Vec<JobResult> =
        all_or_fail("xsweep", outs).into_iter().map(|o| o.result).collect();
    SweepReport::from_results(args.profile.name(), &results)
}

/// Writes a divergence snapshot under `results/` with the job key
/// flattened into the file name.
fn write_divergence(key: &str, suffix: &str, snap: &Snapshot) {
    let name = format!("divergence-{}{suffix}.json", key.replace('/', "-"));
    let path = Path::new("results").join(name);
    write_report(&path, &snap.to_json());
    eprintln!("xsweep: divergence snapshot: {}", path.display());
}

/// Re-runs the job `key` to completion once per `(block_cache, suffix)`
/// variant and writes each final machine+kernel snapshot as a
/// divergence file for `snapreplay`. Returns whether every dump was
/// written.
fn dump_divergence(specs: &[JobSpec], key: &str, variants: &[(Option<bool>, &str)]) -> bool {
    let Some(spec) = specs.iter().find(|s| s.key() == key) else { return false };
    let mut all = true;
    for &(block_cache, suffix) in variants {
        match run(spec, RunOpts { block_cache, capture: Capture::Final, ..RunOpts::default() }) {
            Ok(out) => write_divergence(key, suffix, &out.snapshot.expect("final snapshot")),
            Err(e) => {
                eprintln!("xsweep: re-run of {key} failed: {e}");
                all = false;
            }
        }
    }
    all
}

/// The timing sections of `results/perf.json`. Each timing mode owns
/// its own section and preserves the other's numbers when rewriting the
/// file (as long as the profile matches — timings from a different
/// matrix would be incomparable).
#[derive(Default)]
struct PerfDoc {
    /// `--perf`: (wall_ms, instr_per_sec) with the block cache on.
    block_cache: Option<(u64, u64)>,
    /// `--perf`: (wall_ms, instr_per_sec) with the block cache off.
    interpreter: Option<(u64, u64)>,
    /// `--warm`: (cold_job_ms, warm_job_ms, speedup_x100, snapshots).
    warm: Option<(u64, u64, u64, u64)>,
}

/// Reads the sections of an existing perf report so a `--perf` run does
/// not clobber `--warm` numbers and vice versa. Unreadable or
/// mismatched-profile files yield an empty doc (the new run rewrites
/// from scratch).
fn read_perf_doc(path: &Path, profile: &str) -> PerfDoc {
    let Ok(text) = std::fs::read_to_string(path) else { return PerfDoc::default() };
    let Ok(v) = json::parse(&text) else { return PerfDoc::default() };
    let Some(obj) = v.as_obj() else { return PerfDoc::default() };
    if obj.get("profile").and_then(Json::as_str) != Some(profile) {
        return PerfDoc::default();
    }
    let pair = |name: &str, a: &str, b: &str| -> Option<(u64, u64)> {
        let sec = obj.get(name)?.as_obj()?;
        Some((sec.get(a)?.as_u64()?, sec.get(b)?.as_u64()?))
    };
    let warm = || -> Option<(u64, u64, u64, u64)> {
        let sec = obj.get("warm")?.as_obj()?;
        Some((
            sec.get("cold_job_ms")?.as_u64()?,
            sec.get("warm_job_ms")?.as_u64()?,
            sec.get("speedup_x100")?.as_u64()?,
            sec.get("snapshots")?.as_u64()?,
        ))
    };
    PerfDoc {
        block_cache: pair("block_cache", "wall_ms", "instr_per_sec"),
        interpreter: pair("interpreter", "wall_ms", "instr_per_sec"),
        warm: warm(),
    }
}

/// Serialises the perf report. Integer-only JSON, matching the sweep
/// report's convention: wall times are host-dependent measurements, so
/// this file is NOT a regression-gate baseline — it is the recorded
/// evidence for the speedup claims in EXPERIMENTS.md.
fn write_perf_doc(
    path: &Path,
    profile: &str,
    jobs: usize,
    threads: usize,
    guest_instructions: u64,
    doc: &PerfDoc,
) {
    let mut text = format!(
        "{{\n  \"schema\": \"cheri-perf/v1\",\n  \"profile\": \"{profile}\",\n  \
         \"jobs\": {jobs},\n  \"threads\": {threads},\n  \
         \"guest_instructions\": {guest_instructions}"
    );
    let mut pair = |name: &str, a: &str, b: &str, v: Option<(u64, u64)>| {
        if let Some((x, y)) = v {
            text.push_str(&format!(
                ",\n  \"{name}\": {{\n    \"{a}\": {x},\n    \"{b}\": {y}\n  }}"
            ));
        }
    };
    pair("block_cache", "wall_ms", "instr_per_sec", doc.block_cache);
    pair("interpreter", "wall_ms", "instr_per_sec", doc.interpreter);
    if let Some((cold, warm, speedup, snaps)) = doc.warm {
        text.push_str(&format!(
            ",\n  \"warm\": {{\n    \"cold_job_ms\": {cold},\n    \"warm_job_ms\": {warm},\n    \
             \"speedup_x100\": {speedup},\n    \"snapshots\": {snaps}\n  }}"
        ));
    }
    text.push_str("\n}\n");
    write_report(path, &text);
    println!("perf report: {}", path.display());
}

/// `--perf`: times the whole matrix with the predecoded block cache on
/// and then off, insists the two reports are byte-identical (the cache
/// is architecturally transparent, so any divergence is a simulator
/// bug), and writes an integer-only throughput report. On divergence,
/// the first offending job is re-run under both settings and its final
/// machine+kernel snapshots land in `results/` for `snapreplay`.
fn run_perf(args: &Args, path: &Path) -> ! {
    let specs = selected_matrix(args);
    banner(args, specs.len(), " --perf", ", block cache on vs off");
    let time_matrix = |enabled: bool| {
        let t0 = Instant::now();
        let outs = run_many(&specs, args.jobs, |_| RunOpts {
            block_cache: Some(enabled),
            ..RunOpts::default()
        });
        let wall_ms = t0.elapsed().as_millis() as u64;
        (report_of(args, outs), wall_ms)
    };
    let (report_on, wall_on_ms) = time_matrix(true);
    println!("block cache on:  {:.2}s", wall_on_ms as f64 / 1e3);
    let (report_off, wall_off_ms) = time_matrix(false);
    println!("block cache off: {:.2}s", wall_off_ms as f64 / 1e3);
    if let Some(bad) = report_on.first_difference(&report_off) {
        dump_divergence(&specs, &bad, &[(Some(true), "-bc-on"), (Some(false), "-bc-off")]);
        fail(&format!(
            "block cache changed architectural results (first diverging job: {bad}) — \
             it must be transparent; triage with snapreplay"
        ));
    }
    println!("reports identical: yes (block cache is architecturally transparent)");

    let guest_instructions: u64 =
        report_on.jobs.iter().filter_map(|j| j.counters.get("sim.instructions")).sum();
    let ips = |wall_ms: u64| guest_instructions.saturating_mul(1000) / wall_ms.max(1);
    let speedup_x100 = wall_off_ms.saturating_mul(100) / wall_on_ms.max(1);
    println!(
        "\n{guest_instructions} guest instructions; {:.1} M instr/s with the block cache, \
         {:.1} M instr/s without ({}.{:02}x)",
        ips(wall_on_ms) as f64 / 1e6,
        ips(wall_off_ms) as f64 / 1e6,
        speedup_x100 / 100,
        speedup_x100 % 100,
    );

    let mut doc = read_perf_doc(path, args.profile.name());
    doc.block_cache = Some((wall_on_ms, ips(wall_on_ms)));
    doc.interpreter = Some((wall_off_ms, ips(wall_off_ms)));
    write_perf_doc(path, args.profile.name(), specs.len(), args.jobs, guest_instructions, &doc);
    std::process::exit(0);
}

/// One `--warm` cell: the cold run (which captured the warm-start
/// snapshot at the phase-2 boundary), the warm-started rerun, and the
/// per-job timings. The snapshot is retained only if the two runs
/// disagreed, so peak memory stays one snapshot per worker thread.
struct WarmCell {
    cold: JobResult,
    warm: JobResult,
    cold_ns: u64,
    warm_ns: u64,
    evidence: Option<Box<Snapshot>>,
}

/// `--warm`: runs every job cold (snapshotting once at the allocation →
/// computation boundary), then warm-started from its snapshot, asserts
/// the two reports are byte-identical in-process, and records the
/// aggregate warm-start speedup in the perf report.
fn run_warm(args: &Args) -> ! {
    let specs = selected_matrix(args);
    banner(args, specs.len(), " --warm", ", cold + warm-started");
    let cells = run_indexed(specs.len(), args.jobs, |i| -> Result<WarmCell, String> {
        let spec = &specs[i];
        let t0 = Instant::now();
        let RunOutput { result: cold, snapshot, .. } =
            run(spec, RunOpts { capture: Capture::Phase2, ..RunOpts::default() })
                .map_err(|e| format!("{}: {e}", spec.key()))?;
        let cold_ns = t0.elapsed().as_nanos() as u64;
        let Some(snap) = snapshot else {
            // Finished before the phase boundary: nothing to warm-start.
            return Ok(WarmCell { warm: cold.clone(), cold, cold_ns, warm_ns: 0, evidence: None });
        };
        let t1 = Instant::now();
        let warm = run(spec, RunOpts { start: Start::Resume(&snap), ..RunOpts::default() })
            .map_err(|e| format!("{} (warm): {e}", spec.key()))?
            .result;
        let warm_ns = t1.elapsed().as_nanos() as u64;
        let diverged = JobRecord::from_result(&cold) != JobRecord::from_result(&warm);
        Ok(WarmCell { cold, warm, cold_ns, warm_ns, evidence: diverged.then(|| Box::new(snap)) })
    });
    let cells: Vec<WarmCell> = cells.into_iter().map(|c| c.unwrap_or_else(|e| fail(&e))).collect();

    let diverged: Vec<&WarmCell> = cells.iter().filter(|c| c.evidence.is_some()).collect();
    for cell in &diverged {
        if let Some(snap) = &cell.evidence {
            write_divergence(&cell.cold.spec.key(), "", snap);
        }
    }
    if let Some(first) = diverged.first() {
        fail(&format!(
            "warm-started results diverged from cold on {} job(s), first: {} — \
             snapshot/restore must be exact; triage with snapreplay",
            diverged.len(),
            first.cold.spec.key()
        ));
    }

    let colds: Vec<JobResult> = cells.iter().map(|c| c.cold.clone()).collect();
    let warms: Vec<JobResult> = cells.iter().map(|c| c.warm.clone()).collect();
    let cold_report = SweepReport::from_results(args.profile.name(), &colds);
    let warm_report = SweepReport::from_results(args.profile.name(), &warms);
    assert_eq!(
        cold_report.to_json(),
        warm_report.to_json(),
        "per-job records agree but serialised reports differ — report serialisation bug"
    );
    println!("reports identical: yes (warm-started runs reproduce the cold runs byte-for-byte)");

    let snapshots = cells.iter().filter(|c| c.warm_ns != 0).count() as u64;
    let cold_job_ms: u64 = cells.iter().map(|c| c.cold_ns / 1_000_000).sum();
    let warm_job_ms: u64 =
        cells.iter().filter(|c| c.warm_ns != 0).map(|c| c.warm_ns / 1_000_000).sum();
    let speedup_x100 = cold_job_ms.saturating_mul(100) / warm_job_ms.max(1);
    let guest_instructions: u64 =
        cold_report.jobs.iter().filter_map(|j| j.counters.get("sim.instructions")).sum();
    println!(
        "\n{snapshots}/{} jobs warm-started; {:.2}s aggregate cold job time vs {:.2}s warm \
         ({}.{:02}x warm-start speedup)",
        cells.len(),
        cold_job_ms as f64 / 1e3,
        warm_job_ms as f64 / 1e3,
        speedup_x100 / 100,
        speedup_x100 % 100,
    );

    let text = cold_report.to_json();
    write_report(&args.out, &text);
    println!("report: {}", args.out.display());

    let path = Path::new("results/perf.json");
    let mut doc = read_perf_doc(path, args.profile.name());
    doc.warm = Some((cold_job_ms, warm_job_ms, speedup_x100, snapshots));
    write_perf_doc(path, args.profile.name(), specs.len(), args.jobs, guest_instructions, &doc);
    std::process::exit(0);
}

/// `--prof`: runs the whole matrix plain and then with a symbolized
/// guest profiler attached to every job, insists the two sweep reports
/// are byte-identical (profiling is observational — any divergence is
/// a profiler bug), and writes each job's profile as
/// `results/prof/<key>.prof.json` plus flamegraph collapsed stacks
/// (`.folded`) and the Perfetto/Chrome trace-event timeline
/// (`.timeline.json`). On divergence the first offending job's final
/// machine+kernel snapshot lands in `results/` for `snapreplay`.
fn run_prof(args: &Args) -> ! {
    let specs = selected_matrix(args);
    banner(args, specs.len(), " --prof", ", plain vs profiled");
    let report_plain = report_of(args, run_many(&specs, args.jobs, |_| RunOpts::default()));
    let profiled = all_or_fail(
        "xsweep",
        run_many(&specs, args.jobs, |_| RunOpts { profile: true, ..RunOpts::default() }),
    );
    let prof_results: Vec<JobResult> = profiled.iter().map(|out| out.result.clone()).collect();
    let report_prof = SweepReport::from_results(args.profile.name(), &prof_results);
    if let Some(bad) = report_plain.first_difference(&report_prof) {
        dump_divergence(&specs, &bad, &[(None, "-plain")]);
        fail(&format!(
            "profiling changed architectural results (first diverging job: {bad}) — \
             it must be observational; triage with snapreplay"
        ));
    }
    println!("reports identical: yes (profiling is observationally transparent)\n");

    let dir = Path::new("results/prof");
    println!("{:<28} {:>14} {:>6}  hottest function", "job", "retired", "funcs");
    for out in &profiled {
        let (key, profile) = (out.result.spec.key(), out.profile.as_ref().expect("profiled run"));
        let flat = key.replace('/', "-");
        write_report(&dir.join(format!("{flat}.prof.json")), &profile.to_json());
        write_report(&dir.join(format!("{flat}.folded")), &profile.folded_output());
        write_report(&dir.join(format!("{flat}.timeline.json")), &profile.timeline_json());
        let hottest = profile.functions.first().map_or("-", |f| f.name.as_str());
        println!(
            "{key:<28} {:>14} {:>6}  {hottest}",
            profile.total.retired,
            profile.functions.len()
        );
    }
    println!("\nper-job profiles: {}", dir.display());

    write_report(&args.out, &report_plain.to_json());
    println!("report: {}", args.out.display());
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if let Some(path) = args.perf.clone() {
        run_perf(&args, &path);
    }
    if args.warm {
        run_warm(&args);
    }
    if args.prof {
        run_prof(&args);
    }
    let specs = selected_matrix(&args);
    banner(&args, specs.len(), "", "");
    let t0 = Instant::now();
    // Unfiltered runs use the library form of this default mode — the
    // same call the cheri-serve transparency gate compares a served
    // sweep against. A --workloads selection runs just its specs.
    let report = match &args.workloads {
        None => run_matrix(args.profile, args.jobs).unwrap_or_else(|e| fail(&e)),
        Some(_) => report_of(&args, run_many(&specs, args.jobs, |_| RunOpts::default())),
    };
    let wall = t0.elapsed();

    println!("{:<28} {:>14} {:>14} {:>9} {:>9}", "job", "instructions", "cycles", "l1d%", "tag%");
    for job in &report.jobs {
        let bp = |name: &str| job.counters.get(name).copied().unwrap_or(0) as f64 / 100.0;
        println!(
            "{:<28} {:>14} {:>14} {:>8.2}% {:>8.2}%",
            job.key,
            job.counters.get("sim.instructions").copied().unwrap_or(0),
            job.counters.get("cycles.total").copied().unwrap_or(0),
            bp("cache.l1d.hit_rate_bp"),
            bp("tag.cache.hit_rate_bp"),
        );
    }
    let total_instr: u64 =
        report.jobs.iter().filter_map(|j| j.counters.get("sim.instructions")).sum();
    println!(
        "\n{} jobs, {total_instr} guest instructions in {:.2}s wall ({:.1} M instr/s aggregate)",
        report.jobs.len(),
        wall.as_secs_f64(),
        total_instr as f64 / wall.as_secs_f64() / 1e6,
    );

    let text = report.to_json();
    write_report(&args.out, &text);
    println!("report: {}", args.out.display());

    if let Some(path) = &args.bless {
        write_report(path, &text);
        println!("blessed baseline: {}", path.display());
    }

    if let Some(path) = &args.check {
        let baseline_text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read baseline {}: {e}", path.display())));
        let mut baseline = SweepReport::from_json(&baseline_text)
            .unwrap_or_else(|e| fail(&format!("bad baseline {}: {e}", path.display())));
        // Under a --workloads selection, gate only the selected
        // workloads' jobs: the deselected baseline entries are absent
        // by request, not structural drift.
        if let Some(ws) = &args.workloads {
            baseline
                .jobs
                .retain(|j| ws.iter().any(|w| j.key.starts_with(&format!("{}/", w.name()))));
        }
        let drifts = check_reports(&baseline, &report);
        if drifts.is_empty() {
            println!(
                "check: OK — {} comparisons against {} within tolerance",
                comparisons(&baseline),
                path.display()
            );
        } else {
            println!(
                "check: FAILED — {} drift{} vs {}\n",
                drifts.len(),
                if drifts.len() == 1 { "" } else { "s" },
                path.display()
            );
            print!("{}", render_drifts(&drifts));
            // Snapshot the final state of the first few drifting jobs
            // so the failure is triageable offline.
            let mut dumped = Vec::new();
            for drift in &drifts {
                if dumped.len() >= 3 || dumped.contains(&drift.job) {
                    continue;
                }
                if dump_divergence(&specs, &drift.job, &[(None, "")]) {
                    dumped.push(drift.job.clone());
                }
            }
            println!(
                "\n(intentional? re-bless with: xsweep --profile {} --bless)",
                args.profile.name()
            );
            std::process::exit(1);
        }
    }
}
