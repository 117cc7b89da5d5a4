//! `profbin` — guest-side profile of a single workload.
//!
//! Runs one workload × strategy cell of the experiment matrix with the
//! symbolized profiler attached and prints the hottest functions with
//! full miss attribution: retired instructions, L1/L2/tag-cache
//! misses, TLB refills, and capability exceptions, each charged to the
//! guest PC (and thus function) that incurred them.
//!
//! ```text
//! profbin [--workload bisort|mst|treeadd|perimeter]   (default: treeadd)
//!         [--strategy mips|ccured|ccured-elide|cheri|cheri128]
//!                                                     (default: cheri)
//!         [--tag-kb N]           tag-cache capacity in KB (default: 8)
//!         [--top N]              rows in the function table (default: 10)
//!         [--folded PATH]        write flamegraph collapsed stacks
//!         [--prof-timeline PATH] write the Chrome trace-event /
//!                                Perfetto timeline JSON
//!         [--json PATH]          write the full profile report JSON
//! ```
//!
//! The folded output feeds `flamegraph.pl` / speedscope directly; the
//! timeline JSON loads in `ui.perfetto.dev` or `chrome://tracing`.

use cheri_bench::cli::{self, Cli};
use cheri_olden::OldenParams;
use cheri_sweep::{check_tag_cache_kb, run, JobSpec, RunOpts, DEFAULT_TAG_CACHE_KB};
use std::path::{Path, PathBuf};

const USAGE: &str = "profbin [--workload NAME] [--strategy NAME] [--tag-kb N] [--top N] \
     [--folded PATH] [--prof-timeline PATH] [--json PATH]";

struct Args {
    workload: String,
    strategy: String,
    tag_kb: usize,
    top: usize,
    folded: Option<PathBuf>,
    timeline: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn fail(msg: &str) -> ! {
    cli::fail("profbin", msg)
}

fn parse_args() -> (Args, Cli) {
    let mut cli = Cli::new("profbin", USAGE);
    let mut args = Args {
        workload: "treeadd".into(),
        strategy: "cheri".into(),
        tag_kb: DEFAULT_TAG_CACHE_KB,
        top: 10,
        folded: None,
        timeline: None,
        json: None,
    };
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--workload" => args.workload = cli.value("--workload"),
            "--strategy" => args.strategy = cli.value("--strategy"),
            "--tag-kb" => args.tag_kb = cli.parsed("--tag-kb", "a non-negative integer"),
            "--top" => args.top = cli.positive("--top"),
            "--folded" => args.folded = Some(PathBuf::from(cli.value("--folded"))),
            "--prof-timeline" => args.timeline = Some(PathBuf::from(cli.value("--prof-timeline"))),
            "--json" => args.json = Some(PathBuf::from(cli.value("--json"))),
            other => cli.unknown(other),
        }
    }
    (args, cli)
}

fn write_out(path: &Path, text: &str, what: &str) {
    cli::write_file("profbin", path, text);
    println!("{what}: {}", path.display());
}

fn main() {
    let (args, cli) = parse_args();
    if let Err(e) = check_tag_cache_kb(args.tag_kb) {
        cli.usage_exit(&e);
    }
    // The same by-name constructor the cheri-serve protocol resolves
    // jobs through, so "profbin --workload X --strategy Y" and a served
    // profile request name exactly the same experiment.
    let spec =
        JobSpec::from_parts(&args.workload, &args.strategy, args.tag_kb, OldenParams::scaled())
            .unwrap_or_else(|| {
                cli.usage_exit(&format!(
                    "unknown workload/strategy '{}/{}'",
                    args.workload, args.strategy
                ))
            });
    let out = run(&spec, RunOpts { profile: true, ..RunOpts::default() })
        .unwrap_or_else(|e| fail(&format!("{}: {e}", spec.key())));
    let (result, profile) = (out.result, out.profile.expect("a profiled run returns its profile"));

    let stats = &result.run.outcome.stats;
    println!("== profbin: {} ==\n", spec.key());
    println!(
        "{} instructions retired in {} cycles; profile attributes {} of them across {} \
         functions\n",
        stats.instructions,
        stats.cycles,
        profile.total.retired,
        profile.functions.len()
    );

    println!(
        "{:<16} {:>12} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6}",
        "function", "retired", "l1i", "l1d", "l2", "tag", "tlb", "capex"
    );
    for f in profile.functions.iter().take(args.top) {
        println!(
            "{:<16} {:>12} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6}",
            f.name,
            f.counters.retired,
            f.counters.l1i_misses,
            f.counters.l1d_misses,
            f.counters.l2_misses,
            f.counters.tag_misses,
            f.counters.tlb_refills,
            f.counters.cap_exceptions,
        );
    }
    if profile.functions.len() > args.top {
        println!("... ({} more functions; --top to widen)", profile.functions.len() - args.top);
    }
    println!(
        "\n{} unique stacks, {} timeline events",
        profile.folded.len(),
        profile.timeline.events().len()
    );

    if let Some(path) = &args.folded {
        write_out(path, &profile.folded_output(), "folded stacks");
    }
    if let Some(path) = &args.timeline {
        write_out(path, &profile.timeline_json(), "timeline");
    }
    if let Some(path) = &args.json {
        write_out(path, &profile.to_json(), "profile report");
    }
}
