//! The `metrics` and `health` wire verbs: exposition validity, idle
//! byte-stability, the scrape-time consistency invariants, the
//! readiness flip after a background prewarm, and the counted rejection
//! of an oversize request line and of an invalid tag-cache size.

use cheri_serve::{
    Client, Event, JobParts, Origin, Server, ServerConfig, HIST_COUNTER_PAIRS, MAX_REQUEST_LINE,
};
use cheri_sweep::{run, JobRecord, Profile, RunOpts};
use cheri_telem::parse_exposition;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn spawn_server(cfg: ServerConfig) -> (String, Server) {
    Server::bind("127.0.0.1:0", cfg).map(|s| (s.local_addr().unwrap().to_string(), s)).unwrap()
}

/// An idle server's exposition is pinned byte-for-byte: the
/// protocol-error counter at 0 and the six scrape-time gauges, in name
/// order, and a second scrape changes nothing. Read-only verbs must not
/// create metrics — that is the whole byte-stability design.
#[test]
fn idle_scrape_is_golden_and_byte_stable() {
    let (addr, server) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&addr).unwrap();

    let first = client.metrics().unwrap();
    let golden = "\
# TYPE serve_protocol_errors_total counter
serve_protocol_errors_total 0
# TYPE serve_cached_results gauge
serve_cached_results 0
# TYPE serve_pool_entries gauge
serve_pool_entries 0
# TYPE serve_queue_depth gauge
serve_queue_depth 0
# TYPE serve_workers gauge
serve_workers 2
# TYPE serve_workers_alive gauge
serve_workers_alive 2
# TYPE serve_workers_busy gauge
serve_workers_busy 0
";
    assert_eq!(first, golden, "idle exposition must match the golden scrape exactly");

    // Interleave other read-only verbs, then scrape again: not a byte
    // may differ.
    let _ = client.ping().unwrap();
    let _ = client.health().unwrap();
    let _ = client.stats().unwrap();
    let second = client.metrics().unwrap();
    assert_eq!(first, second, "idle scrapes must be byte-identical");

    // And the exposition passes its own validating parser.
    parse_exposition(&first).expect("golden scrape must parse");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// After real work, every scrape must be internally consistent: each
/// phase histogram's `_count` (and the exposition's `+Inf` bucket)
/// equals its paired counter, and the per-origin job counters sum to
/// the total — the invariants the batched registry writes guarantee.
#[test]
fn scrape_invariants_hold_after_work() {
    let (addr, server) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&addr).unwrap();

    let parts = JobParts {
        workload: "treeadd".into(),
        strategy: "cheri".into(),
        tag_kb: 8,
        profile: Profile::Smoke,
    };
    // Cold, then cached: two origins exercised, histograms populated.
    let (_, first_origin, _) = client.job(parts.clone(), true).unwrap();
    assert_eq!(first_origin, Origin::Cold);
    let (_, repeat_origin, _) = client.job(parts, true).unwrap();
    assert_eq!(repeat_origin, Origin::Cached);

    let text = client.metrics().unwrap();
    let exp = parse_exposition(&text).expect("exposition must validate");

    let jobs = exp.counter("serve_jobs_total").expect("jobs counter present");
    assert_eq!(jobs, 2);
    let by_origin: u64 = ["cached", "warm", "cold"]
        .iter()
        .map(|o| exp.counter(&format!("serve_jobs_{o}_total")).unwrap_or(0))
        .sum();
    assert_eq!(by_origin, jobs, "per-origin counters must sum to the total");

    for (hist, counter) in HIST_COUNTER_PAIRS {
        let count = exp.counter(counter).unwrap_or(0);
        match exp.histogram(hist) {
            Some(h) => {
                assert_eq!(h.count, count, "{hist}._count must equal {counter}");
                let (_, inf) = h.buckets.last().expect("histograms end with +Inf");
                assert_eq!(*inf, count, "{hist} +Inf bucket must equal {counter}");
            }
            None => assert_eq!(count, 0, "{counter} without its histogram {hist}"),
        }
    }

    // The exact-max gauge is bounded below by the histogram's reach: it
    // came from the same batch as some latency observation.
    let max = exp.gauge("serve_job_latency_max_us").expect("max gauge present");
    assert!(max > 0);

    // Idle again: two consecutive scrapes are byte-identical.
    assert_eq!(text, client.metrics().unwrap(), "post-work idle scrapes must be byte-stable");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The CI startup sequence: a server prewarming in the background
/// answers `health` immediately with `ready: false` / `prewarm:
/// "running"`, and flips to `ready: true` / `"done"` once the pool is
/// booted — without ever refusing the probe.
#[test]
fn health_flips_ready_after_background_prewarm() {
    let (addr, server) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    server.prewarm_background(Profile::Smoke);
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&addr).unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_running = false;
    let final_health = loop {
        let h = client.health().unwrap();
        if h.prewarm == "running" {
            assert!(!h.ready, "a prewarming server must not report ready");
            saw_running = true;
        }
        if h.ready {
            break h;
        }
        assert!(Instant::now() < deadline, "prewarm did not finish in time");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(final_health.prewarm, "done");
    assert_eq!(final_health.workers_alive, final_health.workers);
    assert!(final_health.queue_depth < final_health.queue_limit);
    // The scheduling race (prewarm finishing before the first probe) is
    // legal but should be rare with a whole profile to boot; either way
    // the terminal state is what CI keys on.
    let _ = saw_running;

    // The pool the prewarm filled is visible in the next scrape.
    let exp = parse_exposition(&client.metrics().unwrap()).unwrap();
    assert!(exp.gauge("serve_pool_entries").unwrap_or(0) > 0, "prewarm must fill the pool");
    // Prewarm contributes nothing to job telemetry: no jobs ran.
    assert_eq!(exp.counter("serve_jobs_total"), None, "prewarm must not count as jobs");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A request line that reaches [`MAX_REQUEST_LINE`] without a newline
/// is answered with an `error` event and its connection closed — the
/// line buffer never grows past the limit — and is counted in
/// `serve_protocol_errors_total`. The next connection is served
/// normally: its job record equals the batch run's byte for byte.
#[test]
fn oversize_request_line_is_rejected_and_counted() {
    let (addr, server) = spawn_server(ServerConfig { workers: 1, ..ServerConfig::default() });
    let handle = std::thread::spawn(move || server.serve());

    // The longest request the client can form sits far below the limit.
    let longest = cheri_serve::encode_request(&cheri_serve::Request::Replay {
        parts: JobParts {
            workload: "allocstress".into(),
            strategy: "ccured-elide".into(),
            tag_kb: usize::MAX,
            profile: Profile::Smoke,
        },
    });
    assert!(longest.len() < 200, "{} bytes: {longest}", longest.len());

    let mut raw = TcpStream::connect(&addr).unwrap();
    // Exactly the limit, no newline: the server consumes every byte
    // sent, so its close is a clean FIN after the reply.
    raw.write_all(&vec![b'x'; MAX_REQUEST_LINE]).unwrap();
    let mut reply = String::new();
    BufReader::new(raw.try_clone().unwrap()).read_line(&mut reply).unwrap();
    match cheri_serve::decode_event(&reply).unwrap() {
        Event::Error { message } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected an error event, got {other:?}"),
    }

    let mut client = Client::connect(&addr).unwrap();
    let exp = parse_exposition(&client.metrics().unwrap()).unwrap();
    assert_eq!(exp.counter("serve_protocol_errors_total"), Some(1));

    let parts = JobParts {
        workload: "vmloop".into(),
        strategy: "cheri".into(),
        tag_kb: 8,
        profile: Profile::Smoke,
    };
    let spec = parts.spec().unwrap();
    let (_, _, record) = client.job(parts, true).unwrap();
    let batch = run(&spec, RunOpts::default()).unwrap().result;
    assert_eq!(record, JobRecord::from_result(&batch).to_json());

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A job asking for a tag cache the controller cannot model (3 KB is
/// not a power of two) is refused at the protocol edge with an `error`
/// event naming the size, and counted in `serve_protocol_errors_total`.
/// The server keeps serving: the next job's record equals the batch
/// run's byte for byte.
#[test]
fn bad_tag_cache_size_is_rejected_and_counted() {
    let (addr, server) = spawn_server(ServerConfig { workers: 1, ..ServerConfig::default() });
    let handle = std::thread::spawn(move || server.serve());

    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(
        b"{\"type\":\"job\",\"workload\":\"treeadd\",\"strategy\":\"cheri\",\"tag_kb\":3}\n",
    )
    .unwrap();
    let mut reply = String::new();
    BufReader::new(raw.try_clone().unwrap()).read_line(&mut reply).unwrap();
    match cheri_serve::decode_event(&reply).unwrap() {
        Event::Error { message } => assert!(message.contains("tag_kb 3"), "{message}"),
        other => panic!("expected an error event, got {other:?}"),
    }

    let mut client = Client::connect(&addr).unwrap();
    let exp = parse_exposition(&client.metrics().unwrap()).unwrap();
    assert_eq!(exp.counter("serve_protocol_errors_total"), Some(1));

    let parts = JobParts {
        workload: "treeadd".into(),
        strategy: "cheri".into(),
        tag_kb: 4,
        profile: Profile::Smoke,
    };
    let spec = parts.spec().unwrap();
    let (_, _, record) = client.job(parts, true).unwrap();
    let batch = run(&spec, RunOpts::default()).unwrap().result;
    assert_eq!(record, JobRecord::from_result(&batch).to_json());

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
