//! The served side: a fresh `cheri-serve` process per run (this binary
//! re-executed in server mode), closed-loop clients, and one telemetry
//! scrape per server.

use crate::stats::{peak_rss_mib, probe, Rng, Timing, PROBE_REF_S};
use cheri_serve::{Client, JobParts, Origin, Server, ServerConfig};
use cheri_sweep::{JobSpec, Profile, StrategyKind, DEFAULT_TAG_CACHE_KB, TAG_ABLATION_KB};
use cheri_work::Workload;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of every server the benchmark starts.
pub const WORKERS: usize = 2;

/// Server mode (`--serve-child`): the default service configuration
/// with [`WORKERS`] workers, optionally prewarming the smoke matrix in
/// the background, announcing its address on stdout. Exits once a
/// `shutdown` request has drained it.
pub fn serve_child(prewarm: bool) -> Result<(), String> {
    let cfg = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    if prewarm {
        server.prewarm_background(Profile::Smoke);
    }
    let mut out = std::io::stdout();
    writeln!(out, "listening on {addr}").and_then(|()| out.flush()).map_err(|e| e.to_string())?;
    server.serve().map_err(|e| format!("serve: {e}"))
}

/// A running server child. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    bound_at: Instant,
}

impl ServerProc {
    pub fn spawn(prewarm: bool) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--serve-child");
        if prewarm {
            cmd.arg("--prewarm");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let read = child.stdout.take().map(|s| BufReader::new(s).read_line(&mut line));
        let bound_at = Instant::now();
        let mut proc = ServerProc { child, addr: String::new(), bound_at };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Some(Ok(_)), Some(addr)) => {
                proc.addr = addr.to_string();
                Ok(proc)
            }
            _ => Err(format!("server did not announce its address (got {line:?})")),
        }
    }

    /// Polls `health` until it reports ready; returns seconds since bind.
    pub fn wait_ready(&self) -> Result<f64, String> {
        let mut client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        loop {
            if client.health()?.ready {
                return Ok(self.bound_at.elapsed().as_secs_f64());
            }
            if self.bound_at.elapsed() > Duration::from_secs(120) {
                return Err("server not ready after 120 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&self.child.id().to_string())
    }

    /// Asks the server to drain, then waits for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?.shutdown()?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        status.success().then_some(()).ok_or(format!("server exited with {status}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request of a plan, with the origin the generator predicts.
#[derive(Clone)]
pub struct Req {
    pub spec: JobSpec,
    pub profile: Profile,
    pub cache: bool,
    pub expect: Origin,
}

impl Req {
    fn parts(&self) -> JobParts {
        JobParts {
            workload: self.spec.workload.name().into(),
            strategy: self.spec.strategy.name().into(),
            tag_kb: self.spec.tag_cache_kb,
            profile: self.profile,
        }
    }
}

/// Result-cache repeats per job in the batch workloads' served pass.
pub const CACHED_REPEATS: usize = 20;
/// Warm re-runs of each prewarmed (tag8) spec per serve-mix round.
pub const WARM_REPEATS: usize = 2;

/// The batch workloads' served pass, one connection: each job cold,
/// then warm, then from the cache [`CACHED_REPEATS`] times.
pub fn list_plan(specs: &[JobSpec], profile: Profile) -> Vec<Req> {
    let mut plan = Vec::new();
    for &spec in specs {
        let req = |cache, expect| Req { spec, profile, cache, expect };
        plan.push(req(true, Origin::Cold));
        plan.push(req(false, Origin::Warm));
        plan.extend(std::iter::repeat_with(|| req(true, Origin::Cached)).take(CACHED_REPEATS));
    }
    plan
}

/// Tag sizes per workload × strategy cell that serve-mix touches cold.
pub const COLD_TAGS_PER_CELL: usize = 3;

/// The serve-mix request lists of one round, one per connection. The
/// seed draws each cell's cold tag sizes from the paper's ablation axis,
/// so every round of a seed serves the same specs. The seed and the round
/// number deal the 30 workload × strategy cells (smoke params) to the two
/// connections, 15 each, so their spec sets are disjoint, and order each
/// list; a run thus averages over several dealings. Per cell: the
/// prewarmed tag8 spec is re-run warm ([`WARM_REPEATS`] × `cache:false`);
/// each drawn tag size is touched once cold and repeated once from the
/// cache. How many requests of each origin exist never depends on the
/// seed, and every origin is predicted exactly.
pub fn mix_plan(seed: u64, round: u64) -> [Vec<Req>; 2] {
    let mut tags = Rng::new(seed);
    let mut rng = Rng::new(seed ^ (round + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    // Deal cells so both connections carry the same kind of work: one
    // of each similar-cost strategy pair per workload, and three of the
    // six mips cells each.
    let mut mips_first = [true, true, true, false, false, false];
    rng.shuffle(&mut mips_first);
    let mut plans = [Vec::new(), Vec::new()];
    for (workload, mips_first) in Workload::ALL.into_iter().zip(mips_first) {
        // Connection per strategy, in this fixed order, so the tag draws
        // below never depend on the dealing.
        let strategies = [
            StrategyKind::Mips,
            StrategyKind::Ccured,
            StrategyKind::CcuredElide,
            StrategyKind::Cheri256,
            StrategyKind::Cheri128,
        ];
        let mut conns = [usize::from(!mips_first), 0, 1, 0, 1];
        for pair in [1, 3] {
            if rng.below(2) == 1 {
                conns.swap(pair, pair + 1);
            }
        }
        for (strategy, conn) in strategies.into_iter().zip(conns) {
            let spec = |kb| JobSpec {
                tag_cache_kb: kb,
                ..JobSpec::new(workload, strategy, Profile::Smoke.params())
            };
            let req =
                |kb, cache, expect| Req { spec: spec(kb), profile: Profile::Smoke, cache, expect };
            let plan = &mut plans[conn];
            plan.extend(
                std::iter::repeat_with(|| req(DEFAULT_TAG_CACHE_KB, false, Origin::Warm))
                    .take(WARM_REPEATS),
            );
            let mut kbs: Vec<usize> =
                TAG_ABLATION_KB.into_iter().filter(|&kb| kb != DEFAULT_TAG_CACHE_KB).collect();
            tags.shuffle(&mut kbs);
            for &kb in &kbs[..COLD_TAGS_PER_CELL] {
                plan.push(req(kb, true, Origin::Cold));
                plan.push(req(kb, true, Origin::Cached));
            }
        }
    }
    for plan in &mut plans {
        rng.shuffle(plan);
        // A spec's first request must be its cold one.
        let mut seen = std::collections::BTreeSet::new();
        for r in plan.iter_mut() {
            if r.expect != Origin::Warm && seen.insert(r.spec.key()) {
                r.expect = Origin::Cold;
            } else if r.expect == Origin::Cold {
                r.expect = Origin::Cached;
            }
        }
    }
    plans
}

/// The distinct specs of a plan, in first-request order.
pub fn distinct_specs(plans: &[Vec<Req>]) -> Vec<JobSpec> {
    let mut seen = std::collections::BTreeSet::new();
    plans.iter().flatten().filter(|r| seen.insert(r.spec.key())).map(|r| r.spec).collect()
}

/// What one closed-loop client measured.
#[derive(Default)]
pub struct ClientRun {
    /// Seconds per request, by origin name.
    pub latency: BTreeMap<&'static str, Vec<f64>>,
    /// Each key's first served record.
    pub records: BTreeMap<String, String>,
    pub instructions: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

fn instructions_of(record: &str) -> u64 {
    record
        .split("\"sim.instructions\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Sends `plan` over one connection, each request only after the
/// previous reply (a closed loop), timing send to final event.
pub fn drive(addr: &str, plan: &[Req]) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.attempted = plan.len() as u64;
            run.failures.push(format!("connect {addr}: {e}"));
            return run;
        }
    };
    for req in plan {
        run.attempted += 1;
        let t0 = Instant::now();
        let reply = client.job(req.parts(), req.cache);
        let secs = t0.elapsed().as_secs_f64();
        let key = req.spec.key();
        match reply {
            Err(e) => run.failures.push(format!("{key}: {e}")),
            Ok((served_key, origin, record)) => {
                run.latency.entry(origin.name()).or_default().push(secs);
                run.instructions += instructions_of(&record);
                if served_key != key || origin != req.expect {
                    run.failures.push(format!(
                        "{key}: served {served_key} as {}, predicted {}",
                        origin.name(),
                        req.expect.name()
                    ));
                }
                let first = run.records.entry(key.clone()).or_insert_with(|| record.clone());
                if *first != record {
                    run.failures
                        .push(format!("{key}: {} record differs from the first", origin.name()));
                }
            }
        }
    }
    run
}

/// Sums of the server-side telemetry over every scrape of a run.
#[derive(Default)]
pub struct ServeTelem {
    /// (sum µs, count) per histogram.
    pub hist: BTreeMap<String, (u64, u64)>,
    pub counters: BTreeMap<String, u64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub warm_runs: u64,
    pub cold_runs: u64,
}

impl ServeTelem {
    /// Adds one `metrics` + `stats` scrape of the server at `addr`.
    pub fn scrape(&mut self, addr: &str) -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let exp = cheri_telem::parse_exposition(&client.metrics()?)?;
        for (name, h) in exp.histograms() {
            let slot = self.hist.entry(name.clone()).or_default();
            slot.0 += h.sum;
            slot.1 += h.count;
        }
        for (name, v) in exp.counters() {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        let stats = client.stats()?;
        self.cache_hits += stats.cache_hits;
        self.cache_misses += stats.cache_misses;
        self.warm_runs += stats.warm_runs;
        self.cold_runs += stats.cold_runs;
        Ok(())
    }

    /// Mean of a histogram in µs (0 when it has no observations).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.hist.get(name) {
            Some(&(sum, count)) if count > 0 => sum as f64 / count as f64,
            _ => 0.0,
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// One server lifetime: spawn, wait for readiness, drive the plans
/// concurrently (one connection each), scrape, record peak memory and
/// drain.
pub struct Round {
    /// Server bind to `health` ready.
    pub setup: Timing,
    /// Every plan's requests, sent and answered.
    pub wall: Timing,
    pub peak_rss_mib: f64,
    pub clients: Vec<ClientRun>,
}

pub fn round(prewarm: bool, plans: &[Vec<Req>], telem: &mut ServeTelem) -> Result<Round, String> {
    // Probes bracket both timed stretches; the server is idle while the
    // middle one runs.
    let before = probe();
    let server = ServerProc::spawn(prewarm)?;
    let setup_s = server.wait_ready()?;
    let ready = probe();
    let t0 = Instant::now();
    let clients: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = plans.iter().map(|p| s.spawn(|| drive(&server.addr, p))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = probe();
    telem.scrape(&server.addr)?;
    let peak_rss_mib = server.peak_rss_mib()?;
    server.shutdown()?;
    let timing = |secs, p0, p1| Timing { secs, probe_ratio: (p0 + p1) / 2.0 / PROBE_REF_S };
    Ok(Round {
        setup: timing(setup_s, before, ready),
        wall: timing(wall_s, ready, after),
        peak_rss_mib,
        clients,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_plan_is_seeded_disjoint_and_fixed_in_content() {
        let a = mix_plan(1, 0);
        assert_eq!(a[0].len() + a[1].len(), 30 * (WARM_REPEATS + 2 * COLD_TAGS_PER_CELL));
        let keys =
            |p: &[Req]| p.iter().map(|r| r.spec.key()).collect::<std::collections::BTreeSet<_>>();
        assert!(keys(&a[0]).is_disjoint(&keys(&a[1])));
        assert_eq!(a[0].len(), a[1].len());
        for plan in &a {
            let mut seen = std::collections::BTreeSet::new();
            for r in plan {
                let first = seen.insert(r.spec.key());
                assert_eq!(
                    r.expect == Origin::Cold,
                    first && r.spec.tag_cache_kb != 8,
                    "{}",
                    r.spec.key()
                );
            }
        }
        let count =
            |p: &[Vec<Req>; 2], o: Origin| p.iter().flatten().filter(|r| r.expect == o).count();
        let b = mix_plan(2, 0);
        for o in [Origin::Cold, Origin::Warm, Origin::Cached] {
            assert_eq!(count(&a, o), count(&b, o));
        }
        assert_eq!(count(&a, Origin::Cold), 90);
        assert_eq!(distinct_specs(&a).len(), 30 + 90);
        let order = |p: &[Vec<Req>; 2]| p[0].iter().map(|r| r.spec.key()).collect::<Vec<_>>();
        assert_eq!(order(&a), order(&mix_plan(1, 0)));
        assert_ne!(order(&a), order(&b));
        // Another round of one seed: the same specs, dealt and ordered anew.
        let next = mix_plan(1, 1);
        assert_ne!(order(&a), order(&next));
        let specs = |p: &[Vec<Req>; 2]| {
            distinct_specs(p).iter().map(JobSpec::key).collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(specs(&a), specs(&next));
        assert_ne!(specs(&a), specs(&b));
    }
}
