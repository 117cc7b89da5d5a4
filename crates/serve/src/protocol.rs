//! The `cheri-serve/v1` wire protocol: line-delimited JSON over TCP.
//!
//! Every message — request or event — is exactly one JSON object on one
//! line, terminated by `\n`, serialised with the workspace's hand-rolled
//! JSON ([`cheri_trace::json`]). A client sends one [`Request`] line and
//! then reads [`Event`] lines until a terminal event arrives (`report`,
//! `record`, `profile`, `stats`, `pong`, `ok`, or `error`); `progress`
//! events may precede the terminal event of a sweep.
//!
//! Payload reports ride *inside* the protocol as escaped JSON strings
//! rather than as nested objects: the transparency contract is
//! byte-identity with the batch `xsweep` report, and only a string
//! round-trip (escape on send, unescape on receive) preserves the exact
//! bytes of the inner document through the protocol layer.
//!
//! Job-shaped requests name their cell by the same strings the batch
//! binaries take on the command line (workload, strategy with aliases,
//! tag-cache KB) plus a problem-size [`Profile`]; they resolve to a
//! [`JobSpec`] through [`JobSpec::from_parts`], the one constructor all
//! by-name surfaces share, so a job spelled over the wire means exactly
//! the experiment the batch path would run.

use cheri_sweep::{check_tag_cache_kb, JobSpec, Profile};
use cheri_trace::json::{self, Json, JsonWriter};
use std::collections::BTreeMap;

/// Schema identifier exchanged in `ping`/`pong`.
pub const SCHEMA: &str = "cheri-serve/v1";

/// The longest request line the server reads, newline included. The
/// longest request a well-formed client sends (a `replay` or `job` with
/// the longest workload and strategy names and a 20-digit `tag_kb`) is
/// under 200 bytes; a line that reaches this limit without a newline
/// is answered with an `error` event and the connection is closed.
pub const MAX_REQUEST_LINE: usize = 4096;

/// How a served job result was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Returned from the content-hashed result cache; nothing executed.
    Cached,
    /// Executed warm: restored from the pooled phase-2 snapshot and run
    /// from the allocation → computation boundary.
    Warm,
    /// Executed cold: full boot + compile + exec + run.
    Cold,
}

impl Origin {
    /// The wire spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Origin::Cached => "cached",
            Origin::Warm => "warm",
            Origin::Cold => "cold",
        }
    }

    /// Parses the wire spelling.
    #[must_use]
    pub fn parse(name: &str) -> Option<Origin> {
        Some(match name {
            "cached" => Origin::Cached,
            "warm" => Origin::Warm,
            "cold" => Origin::Cold,
            _ => return None,
        })
    }
}

/// A job cell named by its command-line parts, as carried on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobParts {
    /// Workload name (`treeadd`, `bisort`, `mst`, `perimeter`,
    /// `vmloop`, `allocstress`).
    pub workload: String,
    /// Strategy name, aliases accepted (`cheri`, `c128`, ...).
    pub strategy: String,
    /// Tag-cache capacity in KB.
    pub tag_kb: usize,
    /// The problem-size preset the job runs at.
    pub profile: Profile,
}

impl JobParts {
    /// Resolves the parts to the canonical [`JobSpec`].
    ///
    /// # Errors
    ///
    /// Names a tag-cache size [`check_tag_cache_kb`] refuses, or the
    /// unknown workload/strategy.
    pub fn spec(&self) -> Result<JobSpec, String> {
        check_tag_cache_kb(self.tag_kb)?;
        JobSpec::from_parts(&self.workload, &self.strategy, self.tag_kb, self.profile.params())
            .ok_or_else(|| {
                format!("unknown workload/strategy '{}/{}'", self.workload, self.strategy)
            })
    }
}

/// A client request: one line, one job of work (or one admin action).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness + schema probe.
    Ping,
    /// Run a whole profile matrix; stream progress; end with `report`.
    Sweep {
        /// Matrix preset to expand and run.
        profile: Profile,
        /// Consult/populate the result cache (`false` forces execution —
        /// the load generator's hot-path mode).
        cache: bool,
        /// After serving, re-run the matrix through the cold batch path
        /// in-process and assert byte-identity (the transparency gate).
        verify: bool,
    },
    /// Run one cell; end with `record`.
    Job {
        /// The cell, by name.
        parts: JobParts,
        /// Consult/populate the result cache.
        cache: bool,
    },
    /// Run one cell with the guest profiler attached; end with `profile`.
    Profile {
        /// The cell, by name.
        parts: JobParts,
    },
    /// Re-execute one cell from its pooled snapshot, bypassing the
    /// cache; end with `record` carrying the snapshot's state hash.
    Replay {
        /// The cell, by name.
        parts: JobParts,
    },
    /// Server counters; end with `stats`.
    Stats,
    /// Prometheus text exposition of the telemetry registry; end with
    /// `metrics`.
    Metrics,
    /// Readiness probe; end with `health`.
    Health,
    /// Drain in-flight jobs and exit; end with `ok`.
    Shutdown,
}

/// A snapshot of the server's counters plus its build/config identity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests accepted (all kinds).
    pub requests: u64,
    /// Jobs executed or served from cache.
    pub jobs: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Entries resident in the result cache.
    pub cached_results: u64,
    /// Warm (snapshot-resumed) executions.
    pub warm_runs: u64,
    /// Cold (full-boot) executions.
    pub cold_runs: u64,
    /// Phase-2 snapshots resident in the pool.
    pub pool_entries: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Worker threads in the pool (config echo).
    pub workers: u64,
    /// Whether the result cache is enabled (config echo).
    pub cache_enabled: bool,
    /// Whether warm execution is enabled (config echo).
    pub warm_enabled: bool,
    /// The server's crate version.
    pub version: String,
}

/// The server's readiness, as answered by the `health` verb. `ready`
/// is the conjunction the CI probe keys on: every worker alive, any
/// requested prewarm finished, queue depth under the limit, and not
/// draining.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// The overall readiness verdict.
    pub ready: bool,
    /// Prewarm state: `none` (never requested — ready), `running`, or
    /// `done`.
    pub prewarm: String,
    /// Worker threads still running.
    pub workers_alive: u64,
    /// Worker threads configured.
    pub workers: u64,
    /// Tasks queued but not yet picked up.
    pub queue_depth: u64,
    /// Queue depth at or above which the server reports not ready.
    pub queue_limit: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

/// A server event: one line; terminal unless it is `progress`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Reply to `ping`.
    Pong {
        /// The server's protocol schema (must equal [`SCHEMA`]).
        schema: String,
    },
    /// One job of a sweep finished (emitted in completion order).
    Progress {
        /// Jobs finished so far.
        done: u64,
        /// Jobs in the sweep.
        total: u64,
        /// The finished job's key.
        key: String,
        /// How its result was obtained.
        origin: Origin,
    },
    /// A sweep finished: the full report, byte-exact.
    Report {
        /// Profile the report covers.
        profile: String,
        /// Whether the in-process transparency gate ran and passed.
        verified: bool,
        /// The serialised `SweepReport`, byte-identical to what the
        /// batch `xsweep` path writes for the same matrix.
        report: String,
        /// The server-assigned request id (the span lane in a telemetry
        /// dump; 0 from servers predating telemetry).
        req: u64,
    },
    /// A single job finished.
    Record {
        /// The job key.
        key: String,
        /// How the result was obtained.
        origin: Origin,
        /// For replay: the pooled snapshot's state hash (hex); empty
        /// otherwise.
        snap_hash: String,
        /// The serialised `JobRecord`.
        record: String,
        /// The server-assigned request id (see [`Event::Report`]).
        req: u64,
    },
    /// A profiled job finished.
    Profile {
        /// The job key.
        key: String,
        /// The serialised `JobRecord` (byte-identical to an unprofiled
        /// run — profiling is observational).
        record: String,
        /// The serialised `ProfileReport`.
        profile: String,
        /// The server-assigned request id (see [`Event::Report`]).
        req: u64,
    },
    /// Reply to `stats`.
    Stats(StatsSnapshot),
    /// Reply to `metrics`.
    Metrics {
        /// The Prometheus text exposition (format 0.0.4), byte-stable
        /// across idle scrapes.
        text: String,
    },
    /// Reply to `health`.
    Health(HealthSnapshot),
    /// Acknowledgement (shutdown accepted).
    Ok,
    /// The request failed; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

fn job_fields(w: &mut JsonWriter, parts: &JobParts) {
    w.str_field("workload", &parts.workload);
    w.str_field("strategy", &parts.strategy);
    w.u64_field("tag_kb", parts.tag_kb as u64);
    w.str_field("profile", parts.profile.name());
}

/// Serialises a request as one JSON line (no trailing newline).
#[must_use]
pub fn encode_request(req: &Request) -> String {
    let mut w = JsonWriter::object();
    match req {
        Request::Ping => w.str_field("type", "ping"),
        Request::Sweep { profile, cache, verify } => {
            w.str_field("type", "sweep");
            w.str_field("profile", profile.name());
            w.bool_field("cache", *cache);
            w.bool_field("verify", *verify);
        }
        Request::Job { parts, cache } => {
            w.str_field("type", "job");
            job_fields(&mut w, parts);
            w.bool_field("cache", *cache);
        }
        Request::Profile { parts } => {
            w.str_field("type", "profile");
            job_fields(&mut w, parts);
        }
        Request::Replay { parts } => {
            w.str_field("type", "replay");
            job_fields(&mut w, parts);
        }
        Request::Stats => w.str_field("type", "stats"),
        Request::Metrics => w.str_field("type", "metrics"),
        Request::Health => w.str_field("type", "health"),
        Request::Shutdown => w.str_field("type", "shutdown"),
    }
    w.close()
}

fn get_str(obj: &BTreeMap<String, Json>, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn get_bool(obj: &BTreeMap<String, Json>, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("field '{key}' must be a boolean")),
    }
}

fn get_u64(obj: &BTreeMap<String, Json>, key: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field '{key}'"))
}

/// Tolerant integer read for fields newer than the oldest speaker of
/// the schema: absent means `default`, present must be an integer.
fn get_u64_or(obj: &BTreeMap<String, Json>, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| format!("field '{key}' must be an integer")),
    }
}

/// As [`get_u64_or`] for strings.
fn get_str_or(obj: &BTreeMap<String, Json>, key: &str, default: &str) -> Result<String, String> {
    match obj.get(key) {
        None => Ok(default.to_string()),
        Some(v) => {
            v.as_str().map(str::to_string).ok_or_else(|| format!("field '{key}' must be a string"))
        }
    }
}

fn get_profile(obj: &BTreeMap<String, Json>, default: Profile) -> Result<Profile, String> {
    match obj.get("profile") {
        None => Ok(default),
        Some(v) => {
            let name = v.as_str().ok_or("field 'profile' must be a string")?;
            Profile::parse(name).ok_or_else(|| format!("unknown profile '{name}'"))
        }
    }
}

fn get_parts(obj: &BTreeMap<String, Json>) -> Result<JobParts, String> {
    let parts = JobParts {
        workload: get_str(obj, "workload")?,
        strategy: get_str(obj, "strategy")?,
        tag_kb: usize::try_from(get_u64(obj, "tag_kb")?).map_err(|_| "tag_kb out of range")?,
        profile: get_profile(obj, Profile::Smoke)?,
    };
    // Validate names at the protocol boundary so a bad request is
    // rejected before any work is scheduled.
    parts.spec()?;
    Ok(parts)
}

/// Parses one request line. Field order and whitespace are irrelevant —
/// the line goes through the JSON parser, and job identity is decided
/// by [`JobSpec::canonical_json`] downstream, never by the raw bytes.
///
/// # Errors
///
/// Describes the first malformation found (bad JSON, unknown `type`,
/// missing field, unknown workload/strategy/profile name).
pub fn decode_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line.trim())?;
    let obj = v.as_obj().ok_or("request must be a JSON object")?;
    let kind = get_str(obj, "type")?;
    Ok(match kind.as_str() {
        "ping" => Request::Ping,
        "sweep" => Request::Sweep {
            profile: get_profile(obj, Profile::Smoke)?,
            cache: get_bool(obj, "cache", true)?,
            verify: get_bool(obj, "verify", false)?,
        },
        "job" => Request::Job { parts: get_parts(obj)?, cache: get_bool(obj, "cache", true)? },
        "profile" => Request::Profile { parts: get_parts(obj)? },
        "replay" => Request::Replay { parts: get_parts(obj)? },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "health" => Request::Health,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown request type '{other}'")),
    })
}

/// Serialises an event as one JSON line (no trailing newline).
#[must_use]
pub fn encode_event(ev: &Event) -> String {
    let mut w = JsonWriter::object();
    match ev {
        Event::Pong { schema } => {
            w.str_field("type", "pong");
            w.str_field("schema", schema);
        }
        Event::Progress { done, total, key, origin } => {
            w.str_field("type", "progress");
            w.u64_field("done", *done);
            w.u64_field("total", *total);
            w.str_field("key", key);
            w.str_field("origin", origin.name());
        }
        Event::Report { profile, verified, report, req } => {
            w.str_field("type", "report");
            w.str_field("profile", profile);
            w.bool_field("verified", *verified);
            w.str_field("report", report);
            w.u64_field("req", *req);
        }
        Event::Record { key, origin, snap_hash, record, req } => {
            w.str_field("type", "record");
            w.str_field("key", key);
            w.str_field("origin", origin.name());
            w.str_field("snap_hash", snap_hash);
            w.str_field("record", record);
            w.u64_field("req", *req);
        }
        Event::Profile { key, record, profile, req } => {
            w.str_field("type", "profile");
            w.str_field("key", key);
            w.str_field("record", record);
            w.str_field("profile", profile);
            w.u64_field("req", *req);
        }
        Event::Stats(s) => {
            w.str_field("type", "stats");
            w.u64_field("requests", s.requests);
            w.u64_field("jobs", s.jobs);
            w.u64_field("cache_hits", s.cache_hits);
            w.u64_field("cache_misses", s.cache_misses);
            w.u64_field("cached_results", s.cached_results);
            w.u64_field("warm_runs", s.warm_runs);
            w.u64_field("cold_runs", s.cold_runs);
            w.u64_field("pool_entries", s.pool_entries);
            w.u64_field("uptime_ms", s.uptime_ms);
            w.u64_field("workers", s.workers);
            w.bool_field("cache_enabled", s.cache_enabled);
            w.bool_field("warm_enabled", s.warm_enabled);
            w.str_field("version", &s.version);
        }
        Event::Metrics { text } => {
            w.str_field("type", "metrics");
            w.str_field("text", text);
        }
        Event::Health(h) => {
            w.str_field("type", "health");
            w.bool_field("ready", h.ready);
            w.str_field("prewarm", &h.prewarm);
            w.u64_field("workers_alive", h.workers_alive);
            w.u64_field("workers", h.workers);
            w.u64_field("queue_depth", h.queue_depth);
            w.u64_field("queue_limit", h.queue_limit);
            w.u64_field("uptime_ms", h.uptime_ms);
        }
        Event::Ok => w.str_field("type", "ok"),
        Event::Error { message } => {
            w.str_field("type", "error");
            w.str_field("message", message);
        }
    }
    w.close()
}

/// Parses one event line.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_event(line: &str) -> Result<Event, String> {
    let v = json::parse(line.trim())?;
    let obj = v.as_obj().ok_or("event must be a JSON object")?;
    let kind = get_str(obj, "type")?;
    let origin = |o: &BTreeMap<String, Json>| -> Result<Origin, String> {
        let name = get_str(o, "origin")?;
        Origin::parse(&name).ok_or_else(|| format!("unknown origin '{name}'"))
    };
    Ok(match kind.as_str() {
        "pong" => Event::Pong { schema: get_str(obj, "schema")? },
        "progress" => Event::Progress {
            done: get_u64(obj, "done")?,
            total: get_u64(obj, "total")?,
            key: get_str(obj, "key")?,
            origin: origin(obj)?,
        },
        "report" => Event::Report {
            profile: get_str(obj, "profile")?,
            verified: get_bool(obj, "verified", false)?,
            report: get_str(obj, "report")?,
            req: get_u64_or(obj, "req", 0)?,
        },
        "record" => Event::Record {
            key: get_str(obj, "key")?,
            origin: origin(obj)?,
            snap_hash: get_str(obj, "snap_hash")?,
            record: get_str(obj, "record")?,
            req: get_u64_or(obj, "req", 0)?,
        },
        "profile" => Event::Profile {
            key: get_str(obj, "key")?,
            record: get_str(obj, "record")?,
            profile: get_str(obj, "profile")?,
            req: get_u64_or(obj, "req", 0)?,
        },
        "stats" => Event::Stats(StatsSnapshot {
            requests: get_u64(obj, "requests")?,
            jobs: get_u64(obj, "jobs")?,
            cache_hits: get_u64(obj, "cache_hits")?,
            cache_misses: get_u64(obj, "cache_misses")?,
            cached_results: get_u64(obj, "cached_results")?,
            warm_runs: get_u64(obj, "warm_runs")?,
            cold_runs: get_u64(obj, "cold_runs")?,
            pool_entries: get_u64(obj, "pool_entries")?,
            uptime_ms: get_u64_or(obj, "uptime_ms", 0)?,
            workers: get_u64_or(obj, "workers", 0)?,
            cache_enabled: get_bool(obj, "cache_enabled", false)?,
            warm_enabled: get_bool(obj, "warm_enabled", false)?,
            version: get_str_or(obj, "version", "")?,
        }),
        "metrics" => Event::Metrics { text: get_str(obj, "text")? },
        "health" => Event::Health(HealthSnapshot {
            ready: get_bool(obj, "ready", false)?,
            prewarm: get_str_or(obj, "prewarm", "none")?,
            workers_alive: get_u64_or(obj, "workers_alive", 0)?,
            workers: get_u64_or(obj, "workers", 0)?,
            queue_depth: get_u64_or(obj, "queue_depth", 0)?,
            queue_limit: get_u64_or(obj, "queue_limit", 0)?,
            uptime_ms: get_u64_or(obj, "uptime_ms", 0)?,
        }),
        "ok" => Event::Ok,
        "error" => Event::Error { message: get_str(obj, "message")? },
        other => return Err(format!("unknown event type '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Sweep { profile: Profile::Smoke, cache: true, verify: false },
            Request::Sweep { profile: Profile::Full, cache: false, verify: true },
            Request::Job {
                parts: JobParts {
                    workload: "treeadd".into(),
                    strategy: "cheri".into(),
                    tag_kb: 8,
                    profile: Profile::Smoke,
                },
                cache: true,
            },
            Request::Profile {
                parts: JobParts {
                    workload: "mst".into(),
                    strategy: "cheri128".into(),
                    tag_kb: 16,
                    profile: Profile::Smoke,
                },
            },
            Request::Replay {
                parts: JobParts {
                    workload: "bisort".into(),
                    strategy: "mips".into(),
                    tag_kb: 8,
                    profile: Profile::Smoke,
                },
            },
            Request::Stats,
            Request::Metrics,
            Request::Health,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = encode_request(&req);
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(decode_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn event_roundtrip() {
        let report = "{\"schema\":1,\"jobs\":[\n{\"key\":\"a/b\"}\n]}\n";
        let evs = [
            Event::Pong { schema: SCHEMA.into() },
            Event::Progress {
                done: 3,
                total: 20,
                key: "treeadd/cheri/tag8".into(),
                origin: Origin::Warm,
            },
            Event::Report {
                profile: "smoke".into(),
                verified: true,
                report: report.into(),
                req: 4,
            },
            Event::Record {
                key: "mst/mips/tag8".into(),
                origin: Origin::Cached,
                snap_hash: "00000000deadbeef".into(),
                record: "{\"key\":\"mst/mips/tag8\"}".into(),
                req: 17,
            },
            Event::Profile {
                key: "mst/cheri/tag8".into(),
                record: "{}".into(),
                profile: "{\"total\":{}}".into(),
                req: 0,
            },
            Event::Stats(StatsSnapshot {
                requests: 9,
                jobs: 40,
                cache_hits: 12,
                uptime_ms: 4321,
                workers: 2,
                cache_enabled: true,
                warm_enabled: true,
                version: "0.1.0".into(),
                ..StatsSnapshot::default()
            }),
            Event::Metrics { text: "# TYPE serve_jobs_total counter\nserve_jobs_total 3\n".into() },
            Event::Health(HealthSnapshot {
                ready: true,
                prewarm: "done".into(),
                workers_alive: 2,
                workers: 2,
                queue_depth: 0,
                queue_limit: 256,
                uptime_ms: 99,
            }),
            Event::Ok,
            Event::Error { message: "no pooled snapshot\nfor job".into() },
        ];
        for ev in evs {
            let line = encode_event(&ev);
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(decode_event(&line).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn embedded_report_bytes_survive_the_wire() {
        // Multi-line payload with quotes and tabs: the exact bytes must
        // come back out — this is what the byte-identity gate rides on.
        let payload = "{\"a\":1,\n\t\"b\":[2,3]}\n";
        let ev = Event::Report {
            profile: "full".into(),
            verified: false,
            report: payload.into(),
            req: 1,
        };
        match decode_event(&encode_event(&ev)).unwrap() {
            Event::Report { report, .. } => assert_eq!(report, payload),
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn decode_is_layout_insensitive() {
        // Same request, different field order and whitespace.
        let a = decode_request(
            "{\"type\":\"job\",\"workload\":\"treeadd\",\"strategy\":\"cheri\",\"tag_kb\":8}",
        )
        .unwrap();
        let b = decode_request(
            "  { \"tag_kb\" : 8 , \"strategy\" : \"cheri\" ,\n \"workload\" : \"treeadd\" , \"type\" : \"job\" } ",
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn decode_tolerates_pre_telemetry_lines() {
        // Lines from a server predating the telemetry fields decode with
        // defaults rather than erroring.
        match decode_event("{\"type\":\"record\",\"key\":\"k\",\"origin\":\"cold\",\"snap_hash\":\"\",\"record\":\"{}\"}")
            .unwrap()
        {
            Event::Record { req, .. } => assert_eq!(req, 0),
            other => panic!("wrong event: {other:?}"),
        }
        match decode_event(
            "{\"type\":\"stats\",\"requests\":1,\"jobs\":0,\"cache_hits\":0,\"cache_misses\":0,\
             \"cached_results\":0,\"warm_runs\":0,\"cold_runs\":0,\"pool_entries\":0}",
        )
        .unwrap()
        {
            Event::Stats(s) => {
                assert_eq!(s.uptime_ms, 0);
                assert_eq!(s.version, "");
                assert!(!s.cache_enabled);
            }
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_unknown_names() {
        assert!(decode_request("{\"type\":\"warp\"}").is_err());
        assert!(decode_request(
            "{\"type\":\"job\",\"workload\":\"nosuch\",\"strategy\":\"cheri\",\"tag_kb\":8}"
        )
        .is_err());
        assert!(decode_request("{\"type\":\"sweep\",\"profile\":\"gigantic\"}").is_err());
        let err = decode_request(
            "{\"type\":\"job\",\"workload\":\"treeadd\",\"strategy\":\"cheri\",\"tag_kb\":3}",
        )
        .unwrap_err();
        assert!(err.contains("tag_kb 3"), "{err}");
        assert!(decode_event("{\"type\":\"blip\"}").is_err());
    }
}
