//! The transparency contract, end to end: a sweep served over real TCP
//! must deliver a report byte-identical to the cold batch path, and the
//! result cache must serve repeats without changing a byte — with
//! telemetry attached and recording throughout, since that is how the
//! service actually runs.

use cheri_serve::{
    transparency_gate, Client, JobEngine, Origin, Server, ServerConfig, WorkerPool,
    HIST_COUNTER_PAIRS,
};
use cheri_sweep::{run_matrix, Profile};
use std::sync::Arc;

fn spawn_server(cfg: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.serve()))
}

#[test]
fn served_sweep_is_byte_identical_to_batch() {
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let (addr, handle) = spawn_server(cfg);
    let mut client = Client::connect(&addr).unwrap();

    // First pass executes (warm or cold); progress must tick every job.
    let mut seen = 0u64;
    let (served, verified) = client
        .sweep(Profile::Smoke, true, false, |done, total, _key, _origin| {
            seen += 1;
            assert!(done <= total);
        })
        .unwrap();
    assert!(!verified);
    let batch = run_matrix(Profile::Smoke, 2).unwrap().to_json();
    assert_eq!(served, batch, "served sweep must reproduce the batch report byte-for-byte");
    assert_eq!(seen as usize, cheri_sweep::profile_matrix(Profile::Smoke).len());

    // Second pass: same matrix, now answered from the result cache —
    // and still the same bytes.
    let mut origins = Vec::new();
    let (cached, _) =
        client.sweep(Profile::Smoke, true, false, |_, _, _, origin| origins.push(origin)).unwrap();
    assert_eq!(cached, batch, "cached results must not change a byte");
    assert!(
        origins.iter().all(|o| *o == Origin::Cached),
        "second identical sweep must be fully deduped: {origins:?}"
    );

    let stats = client.stats().unwrap();
    assert!(stats.cache_hits >= origins.len() as u64);
    assert!(stats.pool_entries > 0, "phase-2 snapshots should have been pooled");
    assert_eq!(stats.workers, 2, "stats must echo the worker config");
    assert!(stats.cache_enabled && stats.warm_enabled, "stats must echo the cache/warm config");
    assert_eq!(stats.version, env!("CARGO_PKG_VERSION"));
    assert_eq!(client.last_req(), 2, "two sweeps -> request ids 1 and 2");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn single_job_record_matches_its_report_line() {
    let (addr, handle) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(&addr).unwrap();

    let batch = run_matrix(Profile::Smoke, 2).unwrap();
    let parts = cheri_serve::JobParts {
        workload: "treeadd".into(),
        strategy: "cheri".into(),
        tag_kb: 8,
        profile: Profile::Smoke,
    };
    let (key, _origin, record) = client.job(parts, true).unwrap();
    let expected = batch.job(&key).expect("job is part of the smoke matrix");
    assert_eq!(record, expected.to_json(), "served record must equal its batch report line");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The `cheri-work` runtime workloads served one job at a time over the
/// socket must reproduce their batch report lines byte-for-byte, and a
/// repeat of the same cell must come back from the result cache
/// unchanged — the transparency contract extends to the new workloads,
/// not just the Olden four.
#[test]
fn served_new_workload_jobs_match_batch_lines() {
    let (addr, handle) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(&addr).unwrap();

    let batch = run_matrix(Profile::Smoke, 2).unwrap();
    for (workload, strategy) in [("vmloop", "cheri128"), ("allocstress", "mips")] {
        let parts = cheri_serve::JobParts {
            workload: workload.into(),
            strategy: strategy.into(),
            tag_kb: 8,
            profile: Profile::Smoke,
        };
        let (key, _origin, record) = client.job(parts.clone(), true).unwrap();
        let expected = batch.job(&key).unwrap_or_else(|| panic!("{key} in the smoke matrix"));
        assert_eq!(record, expected.to_json(), "{key}: served record must equal the batch line");

        let (_, origin, repeat) = client.job(parts, true).unwrap();
        assert_eq!(origin, Origin::Cached, "{key}: repeat must be answered from the cache");
        assert_eq!(repeat, record, "{key}: cached record must not change a byte");
    }

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The in-process gate the `--selfcheck` flag and `verify: true` sweeps
/// run: served (cache + warm pool) vs cold batch, byte-compared — with
/// telemetry enabled, which is the acceptance form of "observation does
/// not perturb results". The span stream the gate produced must also
/// balance, and every phase histogram must agree with its counter.
#[test]
fn transparency_gate_passes_on_smoke_with_telemetry_attached() {
    let engine = Arc::new(JobEngine::new(true, true));
    assert!(engine.telem().enabled(), "the gate must run with telemetry recording");
    let workers = WorkerPool::new(2);
    let report = transparency_gate(&engine, &workers, Profile::Smoke).unwrap();
    assert_eq!(report.profile, "smoke");
    assert!(!report.jobs.is_empty());
    workers.shutdown();

    let telem = engine.telem();
    assert!(!telem.spans().is_empty(), "the served pass must have recorded phase spans");
    telem.spans().check_balance().expect("every span the gate opened must close");
    let snap = telem.registry().snapshot();
    assert_eq!(
        snap.counter("serve_jobs_total"),
        report.jobs.len() as u64,
        "one job_finished per matrix job"
    );
    for (hist, counter) in HIST_COUNTER_PAIRS {
        let count = snap.histogram(hist).map_or(0, cheri_telem::HistSnapshot::count);
        assert_eq!(count, snap.counter(counter), "{hist} count must equal {counter}");
    }
}
