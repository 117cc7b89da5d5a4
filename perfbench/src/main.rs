//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-pointer|sim-resident|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end set, measured untraced;
//! with `--trace 1` the same untraced run is followed by a traced pass
//! and the metrics are the per-layer set. Every run also writes its
//! provenance (git rev or source digest, `nproc`, seed, job list) and
//! metrics to `perfbench/out/`, and a traced run its Chrome trace.
//!
//! Workloads:
//!
//! * `sim-pointer` — five Olden pointer-chaser jobs at full params
//!   under mips/cheri/cheri128, run in-process through the sweep's
//!   public runner on one thread, pass after pass until `--seconds`
//!   elapse. A traced run also serves the list once through a fresh
//!   server (each job cold, warm, then cached).
//! * `sim-resident` — `vmloop` and `allocstress` at full params under
//!   all five strategies with tag8, the same way.
//! * `serve-mix` — rounds of: a fresh server (default config, two
//!   workers) prewarming the smoke matrix, then two closed-loop
//!   connections sending 240 seeded requests (90 cold, 60 warm,
//!   90 cached) drawn from smoke params × 6 workloads × 5 strategies ×
//!   the tag-cache ablation sizes. Every round serves the seed's specs,
//!   dealt to the connections and ordered anew. At least three rounds,
//!   until `--seconds` elapse.
//!
//! Every timed call is bracketed by a fixed reference kernel (the probe,
//! see `stats::timed`) and its time is divided by the probe's slowdown
//! against its reference time, because on a shared host the speed swings
//! up to 2x within seconds. The host seconds are printed beside.
//!
//! End-to-end metrics (all workloads): `wall_s` (time for the job list
//! at the reference host speed: the sum of each batch job's fastest run,
//! or the mean serve-mix round), `minstr_per_s` (guest instructions of
//! the list's records per second of `wall_s`), `jobs_per_s`,
//! `peak_rss_mib` (peak resident memory of the process that simulates:
//! this one after its first batch pass, or the median over serve-mix
//! rounds of the server's) and `setup_s` (median set-up at the reference
//! host speed: compile and boot of the whole list for the batch
//! workloads; server bind to `health` ready for serve-mix).
//!
//! Per-layer metrics come from the traced pass, which takes the serve
//! cold path call by call with one span per call (job id = timeline
//! lane, parent = the job span): time totals over the job list per
//! layer, each layer's self-time share of traced job time, deterministic
//! counts summed from the records, and the tracing overhead (traced job
//! time, less the calls the plain runner does not make, minus the
//! untraced batch time of the same jobs). The serve layer
//! adds client latency per result origin (`serve.cold_*`/`serve.warm_*`
//! in ms, `serve.cached_*` in µs, nearest-rank p50/p90) and means from
//! the servers' own `metrics` scrapes.
//!
//! Correctness: every batch and traced record is byte-compared with the
//! committed baseline line for its key (`baselines/sweep-full.json`,
//! `baselines/sweep-smoke.json` for serve-mix tag8 specs), every serve
//! of a spec must be byte-identical whatever its origin, every origin
//! must equal the generator's prediction, and the deterministic counts
//! must equal those of the untraced run and of earlier runs.

mod batch;
mod served;
mod stats;

use batch::Done;
use cheri_sweep::{profile_matrix, JobSpec, Profile};
use stats::{median, percentile, Timing};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload sim-pointer|sim-resident|serve-mix \
                     --seed N --seconds S --trace 0|1";

/// The `sim-pointer` job list.
const SIM_POINTER: [&str; 5] = [
    "treeadd/mips/tag8",
    "treeadd/cheri/tag4",
    "mst/cheri/tag4",
    "perimeter/cheri128/tag8",
    "bisort/cheri128/tag4",
];

/// Set-ups of the batch job list per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 50;

const OUT_DIR: &str = "perfbench/out";
const FULL_BASELINE: &str = "baselines/sweep-full.json";
const SMOKE_BASELINE: &str = "baselines/sweep-smoke.json";
const COMMITTED_PERF: &str = "results/perf.json";

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    SimPointer,
    SimResident,
    ServeMix,
}

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |f: &str| flags.get(f).copied().ok_or(format!("missing {f}"));
    let name = get("--workload")?.to_string();
    let kind = match name.as_str() {
        "sim-pointer" => Kind::SimPointer,
        "sim-resident" => Kind::SimResident,
        "serve-mix" => Kind::ServeMix,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if flags.len() != 4 {
        return Err("unknown flag".into());
    }
    Ok(Args { kind, name, seed, seconds, trace })
}

/// The baseline record line for every key of a committed sweep report.
fn baseline_lines(path: &str) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut lines = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("{\"key\":")) {
        let line = line.strip_suffix(',').unwrap_or(line);
        let v = cheri_trace::json::parse(line)?;
        let key = cheri_sweep::JobRecord::from_json(&v)?.key;
        lines.insert(key, line.to_string());
    }
    if lines.is_empty() {
        return Err(format!("{path} holds no job records"));
    }
    Ok(lines)
}

fn spec_of(key: &str, profile: Profile) -> Result<JobSpec, String> {
    let mut parts = key.split('/');
    let (w, s, tag) = (parts.next(), parts.next(), parts.next());
    let kb = tag.and_then(|t| t.strip_prefix("tag")).and_then(|t| t.parse().ok());
    match (w, s, kb) {
        (Some(w), Some(s), Some(kb)) => {
            JobSpec::from_parts(w, s, kb, profile.params()).ok_or(format!("bad job key {key}"))
        }
        _ => Err(format!("bad job key {key}")),
    }
}

/// Failures, operation counts and metrics of one run.
struct Run {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Run {
    fn fail(&mut self, msg: String) {
        eprintln!("perfbench: FAILED: {msg}");
        self.failures.push(msg);
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Byte-compares each record with the expected line for its key, if
    /// `expected` has one.
    fn check_records(&mut self, what: &str, done: &[Done], expected: &BTreeMap<String, String>) {
        for d in done {
            if let Some(want) = expected.get(&d.key) {
                if *want != d.record {
                    self.fail(format!("{what}: {} record differs from {want:.60}...", d.key));
                }
            }
        }
    }
}

/// The deterministic counts the per-layer metrics report, summed over
/// distinct records.
fn counts(records: &BTreeMap<String, String>) -> Result<BTreeMap<&'static str, u64>, String> {
    const SUMS: [(&str, &[&str]); 11] = [
        ("sim.instructions", &["sim.instructions"]),
        ("sim.cap_instructions", &["sim.cap_instructions"]),
        ("sim.l1i_misses", &["cache.l1i.misses"]),
        ("sim.l1d_misses", &["cache.l1d.misses"]),
        ("sim.l2_misses", &["cache.l2.misses"]),
        ("sim.tlb_refills", &["tlb.refills"]),
        ("os.pages_touched", &["os.pages_touched"]),
        ("mem.refs", &["mem.loads", "mem.stores"]),
        ("mem.cap_refs", &["mem.cap_loads", "mem.cap_stores"]),
        ("mem.tag_cache_misses", &["tag.cache.misses"]),
        ("mem.tag_table_writes", &["tag.table.writes"]),
    ];
    let mut out: BTreeMap<&'static str, u64> = SUMS.iter().map(|(n, _)| (*n, 0)).collect();
    for record in records.values() {
        let rec = cheri_sweep::JobRecord::from_json(&cheri_trace::json::parse(record)?)?;
        for (name, fields) in SUMS {
            for f in fields {
                let v = rec.counters.get(*f).ok_or(format!("{}: no counter {f}", rec.key))?;
                *out.get_mut(name).expect("every sum is listed") += v;
            }
        }
    }
    Ok(out)
}

fn records_map(done: &[Done]) -> BTreeMap<String, String> {
    done.iter().map(|d| (d.key.clone(), d.record.clone())).collect()
}

/// What the clients and servers of a run measured.
#[derive(Default)]
struct Served {
    telem: served::ServeTelem,
    /// Client latency in seconds, by origin.
    latency: BTreeMap<&'static str, Vec<f64>>,
    /// One record per key.
    records: BTreeMap<String, String>,
    /// Guest instructions of every record served in the latest round.
    instructions: u64,
}

impl Served {
    fn merge(&mut self, run: &mut Run, clients: Vec<served::ClientRun>) {
        self.instructions = 0;
        for c in clients {
            run.attempted += c.attempted;
            for f in c.failures {
                run.fail(f);
            }
            for (origin, v) in c.latency {
                self.latency.entry(origin).or_default().extend(v);
            }
            for (key, rec) in c.records {
                let first = self.records.entry(key.clone()).or_insert_with(|| rec.clone());
                if *first != rec {
                    run.fail(format!("{key}: served record differs between servers"));
                }
            }
            self.instructions += c.instructions;
        }
    }

    /// The serve-layer metrics: latency per origin and telemetry means.
    fn metrics(&self, run: &mut Run) {
        for (origin, unit, scale) in
            [("cold", "ms", 1e3), ("warm", "ms", 1e3), ("cached", "us", 1e6)]
        {
            match self.latency.get(origin).filter(|v| !v.is_empty()) {
                Some(v) => {
                    run.metric(
                        &format!("serve.{origin}_p50_{unit}"),
                        percentile(v, 0.5) * scale,
                        unit,
                    );
                    run.metric(
                        &format!("serve.{origin}_p90_{unit}"),
                        percentile(v, 0.9) * scale,
                        unit,
                    );
                }
                None => run.fail(format!("no {origin} samples")),
            }
        }
        let s = &self.telem;
        for phase in ["queue_wait", "boot", "restore", "simulate", "serialize"] {
            run.metric(&format!("serve.{phase}_us"), s.mean_us(&format!("serve_{phase}_us")), "us");
        }
        let rtts: Vec<f64> = self.latency.values().flatten().copied().collect();
        let rtt_us = rtts.iter().sum::<f64>() * 1e6 / rtts.len().max(1) as f64;
        run.metric("serve.wire_us", rtt_us - s.mean_us("serve_job_latency_us"), "us");
        let lookups = s.cache_hits + s.cache_misses;
        run.metric("serve.cache_hit_ratio", s.cache_hits as f64 / lookups.max(1) as f64, "ratio");
        run.metric("serve.cache_lookups", lookups as f64, "count");
        let executed = s.warm_runs + s.cold_runs;
        run.metric("serve.pool_hit_ratio", s.warm_runs as f64 / executed.max(1) as f64, "ratio");
        run.metric("serve.executed_jobs", executed as f64, "count");
        for origin in ["cold", "warm", "cached"] {
            let n = s.counter(&format!("serve_jobs_{origin}_total"));
            run.metric(&format!("serve.jobs_{origin}"), n as f64, "count");
        }
    }
}

/// What the untraced stage of any workload hands to the traced stage.
struct Untraced {
    /// The distinct jobs, in list (or first-request) order.
    specs: Vec<JobSpec>,
    /// One record per key, from the untraced run.
    records: BTreeMap<String, String>,
    /// Untraced batch seconds for `specs` (`None`: measure it).
    batch_wall: Option<f64>,
    /// The served measurement (`None`: serve the list in the traced stage).
    served: Option<Served>,
    /// The job list, for provenance.
    job_list: Vec<String>,
}

fn sim_untraced(args: &Args, run: &mut Run) -> Result<Untraced, String> {
    let baseline = baseline_lines(FULL_BASELINE)?;
    let specs: Vec<JobSpec> = match args.kind {
        Kind::SimPointer => {
            SIM_POINTER.iter().map(|k| spec_of(k, Profile::Full)).collect::<Result<_, _>>()?
        }
        _ => profile_matrix(Profile::Full)
            .into_iter()
            .filter(|s| {
                matches!(s.workload.name(), "vmloop" | "allocstress")
                    && s.tag_cache_kb == cheri_sweep::DEFAULT_TAG_CACHE_KB
            })
            .collect(),
    };
    // Set-up: the whole list compiled and booted, repeated; median.
    let setups = (0..SETUP_REPEATS)
        .map(|_| batch::setup_once(&specs).map(|t| t.at_reference()))
        .collect::<Result<Vec<_>, _>>()?;

    // Jobs in list order, pass after pass (the allocator's high-water mark
    // depends on the order), until the time is up after at least one full
    // pass.
    let mut times: Vec<Vec<Timing>> = vec![Vec::new(); specs.len()];
    let mut records = BTreeMap::new();
    let mut instructions = 0;
    let mut peak_rss = 0.0;
    let mut first_pass = Vec::new();
    let t0 = Instant::now();
    for (i, spec) in specs.iter().enumerate().cycle() {
        if !records.is_empty() && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        run.attempted += 1;
        let (t, done) = batch::run_job(spec)?;
        times[i].push(t);
        if !records.is_empty() {
            run.check_records("batch repeat", std::slice::from_ref(&done), &records);
            continue;
        }
        first_pass.push(done);
        if first_pass.len() == specs.len() {
            run.check_records("batch", &first_pass, &baseline);
            // Read after the first pass: later passes only reuse the heap,
            // and how many fit in the time must not move the figure.
            peak_rss = stats::peak_rss_mib("self")?;
            records = records_map(&first_pass);
            instructions = counts(&records)?["sim.instructions"];
        }
    }
    // Each job's fastest run at the reference host speed, summed: the
    // probes track a swing of the host's speed only in part, and a
    // neighbour only ever adds time.
    let wall: f64 = times
        .iter()
        .map(|job| job.iter().map(Timing::at_reference).fold(f64::INFINITY, f64::min))
        .sum();
    let host_wall: f64 =
        times.iter().map(|job| job.iter().map(|t| t.secs).sum::<f64>() / job.len() as f64).sum();
    let ratios: Vec<f64> = times.iter().flatten().map(|t| t.probe_ratio).collect();

    run.metric("wall_s", wall, "s");
    run.metric("minstr_per_s", instructions as f64 / 1e6 / wall, "Minstr/s");
    run.metric("jobs_per_s", specs.len() as f64 / wall, "1/s");
    run.metric("peak_rss_mib", peak_rss, "MiB");
    run.metric("setup_s", median(&setups), "s");
    println!(
        "perfbench: {} set-ups; {} job runs, {} full pass(es) of {} jobs; {host_wall:.3} host \
         seconds per pass, probe at {:.3}x its reference time (median)",
        setups.len(),
        ratios.len(),
        times[specs.len() - 1].len(),
        specs.len(),
        median(&ratios)
    );
    Ok(Untraced {
        job_list: specs.iter().map(JobSpec::key).collect(),
        specs,
        records,
        batch_wall: Some(host_wall),
        served: None,
    })
}

/// The batch list served once through a fresh server on one connection:
/// each job cold, then warm, then from the cache.
fn sim_served(run: &mut Run, specs: &[JobSpec]) -> Result<Served, String> {
    let plan = served::list_plan(specs, Profile::Full);
    let mut out = Served::default();
    let round = served::round(false, std::slice::from_ref(&plan), &mut out.telem)?;
    out.merge(run, round.clients);
    run.check_records("served", &done_of(&out.records), &baseline_lines(FULL_BASELINE)?);
    Ok(out)
}

fn done_of(records: &BTreeMap<String, String>) -> Vec<Done> {
    records.iter().map(|(k, r)| Done { key: k.clone(), record: r.clone() }).collect()
}

fn mix_untraced(args: &Args, run: &mut Run) -> Result<Untraced, String> {
    let baseline = baseline_lines(SMOKE_BASELINE)?;
    let plans = served::mix_plan(args.seed, 0);
    let requests: usize = plans.iter().map(Vec::len).sum();
    let mut out = Served::default();
    let (mut setups, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while walls.len() < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        let plans = served::mix_plan(args.seed, walls.len() as u64);
        let round = served::round(true, &plans, &mut out.telem)?;
        out.merge(run, round.clients);
        setups.push(round.setup.at_reference());
        walls.push(round.wall);
        rss.push(round.peak_rss_mib);
    }
    run.check_records("served", &done_of(&out.records), &baseline);

    // A round's time at the reference host speed, the mean over rounds.
    let wall = walls.iter().map(Timing::at_reference).sum::<f64>() / walls.len() as f64;
    run.metric("wall_s", wall, "s");
    run.metric("minstr_per_s", out.instructions as f64 / 1e6 / wall, "Minstr/s");
    run.metric("jobs_per_s", requests as f64 / wall, "1/s");
    run.metric("peak_rss_mib", median(&rss), "MiB");
    run.metric("setup_s", median(&setups), "s");
    let host: Vec<f64> = walls.iter().map(|t| t.secs).collect();
    let ratios: Vec<f64> = walls.iter().map(|t| t.probe_ratio).collect();
    println!(
        "perfbench: {} round(s) of {requests} requests, host seconds {host:.3?}, probe at \
         {:.3}x its reference time (median)",
        walls.len(),
        median(&ratios)
    );

    // Round 0's lists; later rounds deal the same specs anew.
    let specs = served::distinct_specs(&plans);
    let job_list = plans
        .iter()
        .enumerate()
        .flat_map(|(c, p)| {
            p.iter().map(move |r| format!("c{c}:{}:{}", r.spec.key(), r.expect.name()))
        })
        .collect();
    Ok(Untraced {
        specs,
        records: out.records.clone(),
        batch_wall: None,
        served: Some(out),
        job_list,
    })
}

/// The traced stage: the per-layer metrics.
fn traced(args: &Args, run: &mut Run, u: &Untraced) -> Result<(), String> {
    let batch_wall = match u.batch_wall {
        Some(w) => w,
        None => {
            run.attempted += u.specs.len() as u64;
            let (times, done) = batch::batch_pass(&u.specs)?;
            run.check_records("untraced batch", &done, &u.records);
            times.iter().map(|t| t.secs).sum()
        }
    };
    let tracer = batch::Tracer::new();
    run.attempted += u.specs.len() as u64;
    let traced = batch::traced_pass(&u.specs, &tracer)?;
    std::fs::write(
        format!("{OUT_DIR}/{}-seed{}.trace.json", args.name, args.seed),
        tracer.chrome_json(),
    )
    .map_err(|e| format!("write trace: {e}"))?;
    run.check_records("traced", &traced.done, &u.records);
    run.check_records("block cache off", &traced.nobc, &u.records);
    let traced_records = records_map(&traced.done);
    if traced_records.len() != u.records.len() {
        run.fail(format!("traced {} jobs, untraced {}", traced_records.len(), u.records.len()));
    }
    let traced_counts = counts(&traced_records)?;
    if traced_counts != counts(&u.records)? {
        run.fail("deterministic counts differ between the traced and untraced runs".into());
    }

    let t = tracer.layer_times()?;
    let total = |layer: &str| t.get(layer).map_or(0.0, |v| v.0);
    let self_time = |layer: &str| t.get(layer).map_or(0.0, |v| v.1);
    let job = total("job");
    let sim_s = total("sim.alloc") + total("sim.compute");
    run.metric("cc.compile_ms", total("cc.compile") * 1e3, "ms");
    run.metric("os.boot_ms", (total("os.boot") - total("cc.compile")).max(0.0) * 1e3, "ms");
    run.metric("sim.alloc_ms", total("sim.alloc") * 1e3, "ms");
    run.metric("sim.compute_ms", total("sim.compute") * 1e3, "ms");
    run.metric("sim.ns_per_instr", sim_s * 1e9 / traced_counts["sim.instructions"] as f64, "ns");
    run.metric("sim.ns_per_mem_ref", sim_s * 1e9 / traced_counts["mem.refs"] as f64, "ns");
    run.metric("sim.block_cache_speedup", total("sim.compute_nobc") / total("sim.compute"), "x");
    for (name, v) in &traced_counts {
        run.metric(name, *v as f64, "count");
    }
    run.metric("snap.capture_ms", total("snap.capture") * 1e3, "ms");
    run.metric("snap.hash_ms", total("snap.hash") * 1e3, "ms");
    run.metric("snap.restore_ms", total("snap.restore") * 1e3, "ms");
    run.metric("snap.bytes", traced.snap_bytes as f64, "bytes");
    run.metric("sweep.record_us", total("sweep.record") * 1e6, "us");
    run.metric("traced.jobs", u.specs.len() as f64, "count");
    run.metric("job.traced_ms", job * 1e3, "ms");
    run.metric("job.self_ms", self_time("job") * 1e3, "ms");
    for layer in batch::LAYERS {
        run.metric(&format!("{layer}.share"), self_time(layer) / job * 100.0, "%");
    }
    // Tracing overhead: traced job time less the calls the untraced
    // runner never makes, minus the untraced time of the same jobs.
    let extra: f64 =
        ["cc.compile", "snap.capture", "snap.hash", "snap.restore"].map(total).iter().sum();
    let overhead = job - extra - batch_wall;
    run.metric("trace.overhead_s", overhead, "s");
    run.metric("trace.overhead_pct", overhead / batch_wall * 100.0, "%");

    match &u.served {
        Some(served) => served.metrics(run),
        None => sim_served(run, &u.specs)?.metrics(run),
    }

    // The committed single-shot figure, against this host's smoke matrix.
    let smoke = profile_matrix(Profile::Smoke);
    run.attempted += smoke.len() as u64;
    let (times, done) = batch::batch_pass(&smoke)?;
    let wall: f64 = times.iter().map(|t| t.secs).sum();
    run.check_records("smoke", &done, &baseline_lines(SMOKE_BASELINE)?);
    let minstr = counts(&records_map(&done))?["sim.instructions"] as f64 / 1e6 / wall;
    let committed = committed_minstr_per_s()?;
    println!(
        "perfbench: smoke matrix ({} jobs, 1 thread) runs at {minstr:.2} M instr/s; \
         {COMMITTED_PERF} records {committed:.2} M instr/s (ratio {:.3})",
        smoke.len(),
        minstr / committed
    );
    run.metric("smoke.minstr_per_s", minstr, "Minstr/s");
    run.metric("smoke.vs_committed", minstr / committed, "ratio");
    Ok(())
}

fn committed_minstr_per_s() -> Result<f64, String> {
    let text = std::fs::read_to_string(COMMITTED_PERF)
        .map_err(|e| format!("read {COMMITTED_PERF}: {e}"))?;
    let v = cheri_trace::json::parse(&text)?;
    v.as_obj()
        .and_then(|o| o.get("block_cache"))
        .and_then(|b| b.as_obj())
        .and_then(|b| b.get("instr_per_sec"))
        .and_then(cheri_trace::json::Json::as_u64)
        .map(|ips| ips as f64 / 1e6)
        .ok_or(format!("{COMMITTED_PERF} has no block_cache.instr_per_sec"))
}

/// Compares the deterministic counts with those an earlier run in this
/// checkout recorded, or records them for later runs.
fn check_counts_across_runs(
    args: &Args,
    run: &mut Run,
    records: &BTreeMap<String, String>,
) -> Result<(), String> {
    let mut now = String::new();
    for (name, v) in counts(records)? {
        let _ = writeln!(now, "{name} {v}");
    }
    let path = format!("{OUT_DIR}/counts-{}-seed{}.txt", args.name, args.seed);
    match std::fs::read_to_string(&path) {
        Ok(before) if before != now => {
            run.fail(format!("deterministic counts drifted from {path}:\n{before}now:\n{now}"));
        }
        Ok(_) => {}
        Err(_) => std::fs::write(&path, &now).map_err(|e| format!("write {path}: {e}"))?,
    }
    Ok(())
}

fn provenance(args: &Args, job_list: &[String]) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let mut w = cheri_trace::json::JsonWriter::object();
    w.str_field("git_rev", &git);
    w.str_field("source_fnv", &stats::source_digest());
    w.u64_field("nproc", cheri_sweep::default_threads() as u64);
    w.u64_field("seed", args.seed);
    w.str_field("workload", &args.name);
    w.raw_field("seconds", &args.seconds.to_string());
    w.bool_field("trace", args.trace);
    let jobs: Vec<String> = job_list.iter().map(|j| format!("\"{j}\"")).collect();
    w.raw_field("jobs", &format!("[{}]", jobs.join(",")));
    w.close()
}

fn result_line(run: &Run) -> String {
    let mut m = cheri_trace::json::JsonWriter::object();
    for (name, value, unit) in &run.metrics {
        let mut e = cheri_trace::json::JsonWriter::object();
        e.raw_field("value", &value.to_string());
        e.str_field("unit", unit);
        m.raw_field(name, &e.close());
    }
    let mut w = cheri_trace::json::JsonWriter::object();
    w.bool_field("correct", run.failures.is_empty());
    w.u64_field("attempted", run.attempted.max(1));
    w.u64_field("failed", run.failures.len() as u64);
    w.raw_field("metrics", &m.close());
    w.close()
}

fn execute(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let mut run = Run { attempted: 0, failures: Vec::new(), metrics: Vec::new() };
    let untraced = match args.kind {
        Kind::ServeMix => mix_untraced(args, &mut run)?,
        _ => sim_untraced(args, &mut run)?,
    };
    check_counts_across_runs(args, &mut run, &untraced.records)?;
    if args.trace {
        run.metrics.clear();
        traced(args, &mut run, &untraced)?;
    }
    for (name, value, unit) in &run.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        println!("perfbench: {name:<28} {value:>16.4} {unit}");
    }
    let prov = provenance(args, &untraced.job_list);
    println!("perfbench: provenance {prov}");
    let line = result_line(&run);
    let stamp = format!("{{\"provenance\":{prov},\"result\":{line}}}\n");
    let path =
        format!("{OUT_DIR}/{}-seed{}-trace{}.json", args.name, args.seed, u8::from(args.trace));
    std::fs::write(&path, stamp).map_err(|e| format!("write {path}: {e}"))?;
    Ok(line)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve-child") {
        if let Err(e) = served::serve_child(argv.iter().any(|a| a == "--prewarm")) {
            eprintln!("perfbench server: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match execute(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
