//! The two properties the sweep subsystem exists to provide:
//!
//! 1. **Determinism** — the serialised report is byte-identical at any
//!    thread count (each job owns its machine; results are reassembled
//!    in spec order).
//! 2. **The gate bites** — a seeded counter drift fails the check with
//!    the drifting metric named; an unchanged report passes.

use cheri_sweep::{
    check_reports, profile_matrix, run_many, run_matrix, JobResult, JobSpec, Profile, RunOpts,
    SweepReport,
};

/// Runs `specs` on two threads with the block cache as given (`None`:
/// the default), failing the test on any job error.
fn run_jobs(specs: &[JobSpec], block_cache: Option<bool>) -> Vec<JobResult> {
    let outs = run_many(specs, 2, |_| RunOpts { block_cache, ..RunOpts::default() });
    outs.into_iter().map(|r| r.unwrap().result).collect()
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let serial = run_matrix(Profile::Smoke, 1).unwrap();
    let parallel = run_matrix(Profile::Smoke, 8).unwrap();
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "sweep report must not depend on thread count or scheduling"
    );
}

#[test]
fn self_check_passes_and_seeded_drift_fails() {
    let specs: Vec<_> = profile_matrix(Profile::Smoke)
        .into_iter()
        .filter(|s| s.workload.name() == "treeadd")
        .collect();
    let results = run_jobs(&specs, None);
    let report = SweepReport::from_results("smoke", &results);

    // Round-trip through the serialised form, as the CI gate does.
    let baseline = SweepReport::from_json(&report.to_json()).expect("own JSON parses");
    assert!(
        check_reports(&baseline, &report).is_empty(),
        "a run must pass against its own baseline"
    );

    // Seed a drift on an exact-match architectural counter.
    let mut drifted = baseline.clone();
    let job_key = drifted.jobs[0].key.clone();
    *drifted.jobs[0].counters.get_mut("sim.instructions").expect("counter present") += 1;
    let drifts = check_reports(&drifted, &report);
    assert_eq!(drifts.len(), 1, "exactly the seeded drift: {drifts:?}");
    assert_eq!(drifts[0].metric, "sim.instructions");
    assert_eq!(drifts[0].job, job_key);
}

#[test]
fn block_cache_is_architecturally_transparent_in_the_sweep() {
    // The simulator's predecoded block cache is a host-side
    // optimisation: forcing it on or off must leave every reported
    // counter of a real matrix job byte-identical. (`xsweep --perf`
    // asserts the same over the whole matrix; this is the tier-1 form.)
    let specs: Vec<_> = profile_matrix(Profile::Smoke)
        .into_iter()
        .filter(|s| s.workload.name() == "treeadd")
        .collect();
    let on = SweepReport::from_results("smoke", &run_jobs(&specs, Some(true)));
    let off = SweepReport::from_results("smoke", &run_jobs(&specs, Some(false)));
    assert_eq!(on.to_json(), off.to_json(), "block cache changed architectural results");
}

#[test]
fn report_carries_the_evaluations_headline_shape() {
    // A cheap semantic sanity check on real sweep data: CHERI's cycle
    // overhead over MIPS exists but stays under CCured's on treeadd —
    // the Figure 4 headline — visible straight from the report.
    let specs: Vec<_> = profile_matrix(Profile::Smoke)
        .into_iter()
        .filter(|s| s.workload.name() == "treeadd")
        .collect();
    let results = run_jobs(&specs, None);
    let report = SweepReport::from_results("smoke", &results);
    let cycles = |key: &str| report.job(key).expect(key).counters["cycles.total"];
    let (mips, ccured, cheri) =
        (cycles("treeadd/mips/tag8"), cycles("treeadd/ccured/tag8"), cycles("treeadd/cheri/tag8"));
    assert!(mips < cheri, "CHERI must cost something ({mips} vs {cheri})");
    assert!(cheri < ccured, "CHERI ({cheri}) must beat CCured ({ccured})");
}
