//! Counter snapshots saved by older builds carry a `"histograms"`
//! object next to `"counters"`. They must still load, and
//! `trace_report --diff` against a current snapshot must compare
//! counters only.

use std::process::Command;

use cheri_trace::{names, Snapshot};

/// A `trace_report --out` snapshot in the older format (scaled treeadd
/// under cheri, trimmed to four counters).
const OLD: &str = r#"{"counters":{"mem.loads":94192,"os.syscalls":5,"sim.instructions":458705,"tlb.refills":49},"histograms":{"latency.data_access":{"count":163814,"sum":148176,"buckets":[[0,139024],[2,141],[3,24649]]},"latency.syscall":{"count":5,"sum":600,"buckets":[[7,5]]},"latency.tlb_refill":{"count":49,"sum":1470,"buckets":[[5,49]]}}}"#;

#[test]
fn old_snapshots_load_and_diff_as_counters_only() {
    let old = Snapshot::from_json(OLD).expect("older snapshot loads");
    assert_eq!(old.counters().len(), 4);
    assert_eq!(old.counter(names::INSTRUCTIONS), 458_705);
    assert_eq!(old.counter(names::TLB_REFILLS), 49);

    let mut new = old.clone();
    new.set_counter(names::TLB_REFILLS, 50);
    new.set_counter("sim.cycles", 700_000);

    let dir = std::env::temp_dir().join(format!("snapshot_compat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("old.json"), dir.join("new.json"));
    std::fs::write(&a, OLD).unwrap();
    std::fs::write(&b, new.to_json()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg("--diff")
        .args([&a, &b])
        .output()
        .expect("run trace_report --diff");
    let _ = std::fs::remove_dir_all(&dir);

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(!stdout.contains("latency."), "histograms are not diffed:\n{stdout}");
    // Diff rows end in a signed delta (`+0`, `+1`, ...).
    let rows =
        stdout.lines().filter(|l| l.split_whitespace().last().is_some_and(|d| d.starts_with('+')));
    assert_eq!(rows.count(), 5, "one row per counter:\n{stdout}");
    assert!(stdout.contains("2 counter(s) changed, 5 total"), "{stdout}");
}
