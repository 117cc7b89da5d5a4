//! `trace_report` — runs one Olden workload under any pointer strategy
//! and prints the run's counter table (`Kernel::metrics`, the one
//! counter source) followed by the simulator's host-side work
//! (`Machine::host_stats`: host-TLB misses, architectural TLB scans),
//! optionally streaming every architectural event.
//!
//! ```text
//! trace_report <bench> [--strategy <name>] [--scaled|--paper]
//!              [--jsonl <path>] [--out <snapshot.json>]
//! trace_report --diff <a.json> <b.json>
//! ```
//!
//! `--jsonl` streams every event as a JSON line (the only case that
//! attaches a trace sink); `--out` saves the counter snapshot for later
//! comparison with `--diff`, which prints per-counter deltas between
//! two saved runs.

use cheri_bench::cli::{self, Cli};
use cheri_bench::{params_for, parse_bench_name, parse_scale};
use cheri_sweep::{run, JobSpec, RunOpts, StrategyKind};
use cheri_trace::{shared, JsonlSink, Snapshot};

const USAGE: &str = "trace_report <workload> [--strategy <name>]\n\
     \u{20}                   [--scaled|--paper] [--jsonl <path>] [--out <path>]\n\
     \u{20}      trace_report --diff <a.json> <b.json>\n\
     strategies: mips, ccured, ccured-elide, cheri (aka cap), cheri128";

fn load_snapshot(cli: &Cli, path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli.usage_exit(&format!("cannot read {path}: {e}")));
    Snapshot::from_json(&text)
        .unwrap_or_else(|e| cli.usage_exit(&format!("{path}: not a snapshot: {e}")))
}

fn main() {
    let mut cli = Cli::new("trace_report", USAGE);
    let mut strategy_name = String::from("cheri");
    let mut jsonl_path = None;
    let mut out_path = None;
    let mut diff_mode = false;
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--strategy" => strategy_name = cli.value("--strategy"),
            "--jsonl" => jsonl_path = Some(cli.value("--jsonl")),
            "--out" => out_path = Some(cli.value("--out")),
            "--diff" => diff_mode = true,
            // The scale flags are read by parse_scale (shared across
            // the harnesses); accept them here so they aren't unknown.
            "--scaled" | "--paper" => {}
            flag if flag.starts_with("--") => cli.unknown(flag),
            operand => positional.push(operand.to_string()),
        }
    }

    if diff_mode {
        if positional.len() != 2 {
            cli.usage_exit("--diff requires exactly two snapshot paths");
        }
        let (a, b) = (load_snapshot(&cli, &positional[0]), load_snapshot(&cli, &positional[1]));
        let diff = a.diff(&b);
        println!("== snapshot diff: {} vs {} ==\n", positional[0], positional[1]);
        print!("{diff}");
        let changed = diff.changed().count();
        println!("\n{changed} counter(s) changed, {} total", diff.entries().len());
        return;
    }

    let Some(bench) = positional.first().and_then(|n| parse_bench_name(n)) else {
        cli.usage_exit("a benchmark name is required");
    };
    let Some(strategy) = StrategyKind::parse(&strategy_name) else {
        cli.usage_exit(&format!("unknown strategy {strategy_name:?}"));
    };
    let spec = JobSpec::new(bench, strategy, params_for(parse_scale()));

    let sink = jsonl_path.as_ref().map(|path| {
        shared(
            JsonlSink::create(std::path::Path::new(path))
                .unwrap_or_else(|e| cli.usage_exit(&format!("cannot create {path}: {e}"))),
        )
    });

    // The runner writes the `run start: <workload>/<strategy>` marker.
    let out = run(&spec, RunOpts { sink: sink.clone(), ..RunOpts::default() })
        .unwrap_or_else(|e| cli::fail("trace_report", &format!("{}: {e}", spec.key())));
    let run = out.result.run;
    if let Some(sink) = &sink {
        let mut sink = sink.borrow_mut();
        sink.marker("run end");
        sink.flush();
    }

    let metrics = &run.outcome.metrics;
    println!("== trace_report: {} [{}] ==", bench.name(), strategy.name());
    println!("exit: {:?}   cycles: {}\n", run.outcome.exit, run.outcome.stats.cycles);
    print!("{}", metrics.render_table());
    println!("\n{}", out.host);

    if let Some(path) = &out_path {
        std::fs::write(path, metrics.to_json())
            .unwrap_or_else(|e| cli.usage_exit(&format!("cannot write {path}: {e}")));
        println!("snapshot written to {path}");
    }
}
