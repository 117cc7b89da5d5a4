//! The TCP server: accept loop, per-connection request handling, and
//! graceful drain.
//!
//! One thread accepts connections (non-blocking, polling the [`Stop`]
//! token); each connection gets a thread that reads request lines and
//! writes event lines; all actual simulation is submitted to the shared
//! [`WorkerPool`]. Shutdown — a `shutdown` request, [`Stop::request`],
//! or (in the binary) SIGINT/SIGTERM — is cooperative: jobs already
//! executing on workers run to completion, queued jobs bail, sweeps
//! that lost jobs answer with an `error` event instead of a report, and
//! nothing partial is ever written: served reports are persisted by
//! writing to a `.tmp` sibling and renaming only after the full report
//! is on disk, and only for sweeps that completed every job.
//!
//! Telemetry rides alongside: every *work* request (sweep, job,
//! profile, replay) is assigned a monotonic request id, bracketed by a
//! request span, and threaded through the engine so queue-wait,
//! boot/restore, simulate, and serialize phases land in the shared
//! [`ServiceTelem`]. Read-only verbs — `ping`, `stats`, `metrics`,
//! `health` — take no id and record nothing, which is what keeps idle
//! `metrics` scrapes byte-identical. The final drain flushes the span
//! timeline and metric snapshot to `telem_out` with the same
//! `.tmp`-then-rename discipline as reports.

use crate::engine::{run_profile, verify_against_batch, JobEngine, Stop, WorkerPool};
use crate::protocol::{
    decode_request, encode_event, Event, HealthSnapshot, Origin, Request, MAX_REQUEST_LINE, SCHEMA,
};
use crate::telem::{self, elapsed_us, JobCtx, ServiceTelem};
use cheri_sweep::Profile;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How often blocked reads and the accept loop wake to poll the stop
/// token.
const POLL: Duration = Duration::from_millis(100);

/// Prewarm states for the readiness probe.
const PREWARM_NONE: u64 = 0;
const PREWARM_RUNNING: u64 = 1;
const PREWARM_DONE: u64 = 2;

/// Server construction parameters.
pub struct ServerConfig {
    /// Worker threads executing jobs (default: host parallelism).
    pub workers: usize,
    /// Enable the content-hashed result cache.
    pub cache: bool,
    /// Enable warm execution from the snapshot pool.
    pub warm: bool,
    /// Persist every completed served sweep report under this
    /// directory (atomically) when set.
    pub results_dir: Option<PathBuf>,
    /// Also trip the stop token on SIGINT/SIGTERM (the binary sets
    /// this; tests leave it off so a ^C to the test runner cannot leak
    /// into server state).
    pub watch_signals: bool,
    /// Record telemetry (spans + metrics). Off is the detached half of
    /// the overhead A/B: every telemetry operation becomes a no-op.
    pub telem: bool,
    /// Write the final telemetry flush (Chrome trace + metric snapshot)
    /// to this path on drain, atomically.
    pub telem_out: Option<PathBuf>,
    /// Queue depth at or above which `health` reports not ready.
    pub queue_limit: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: cheri_sweep::default_threads(),
            cache: true,
            warm: true,
            results_dir: None,
            watch_signals: false,
            telem: true,
            telem_out: None,
            queue_limit: 256,
        }
    }
}

struct Shared {
    engine: Arc<JobEngine>,
    workers: WorkerPool,
    stop: Stop,
    telem: Arc<ServiceTelem>,
    results_dir: Option<PathBuf>,
    telem_out: Option<PathBuf>,
    requests: AtomicU64,
    /// Allocator for work-request ids (1-based; 0 means "no request").
    work_reqs: AtomicU64,
    prewarm_state: AtomicU64,
    queue_limit: u64,
    start: Instant,
}

/// The listening server. [`Server::serve`] blocks until shutdown.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port; read the result
    /// back with [`Server::local_addr`]) and builds the engine and
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Socket errors from binding.
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let telem = Arc::new(ServiceTelem::new(cfg.telem));
        let shared = Arc::new(Shared {
            engine: Arc::new(JobEngine::with_telem(cfg.cache, cfg.warm, telem.clone())),
            workers: WorkerPool::new(cfg.workers),
            stop: Stop::new(cfg.watch_signals),
            telem,
            results_dir: cfg.results_dir,
            telem_out: cfg.telem_out,
            requests: AtomicU64::new(0),
            work_reqs: AtomicU64::new(0),
            prewarm_state: AtomicU64::new(PREWARM_NONE),
            queue_limit: cfg.queue_limit,
            start: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A stop token sharing this server's flag — trip it to initiate a
    /// drain from another thread (tests, embedders).
    #[must_use]
    pub fn stop_handle(&self) -> Stop {
        self.shared.stop.clone()
    }

    /// The engine (for prewarming and inspection).
    #[must_use]
    pub fn engine(&self) -> Arc<JobEngine> {
        self.shared.engine.clone()
    }

    /// The shared telemetry handle (for tests and embedders).
    #[must_use]
    pub fn telem(&self) -> Arc<ServiceTelem> {
        self.shared.telem.clone()
    }

    /// Pre-boots the snapshot pool for `profile` before serving;
    /// returns entries added. `health` reports not ready from the call
    /// to the return.
    #[must_use]
    pub fn prewarm(&self, profile: Profile) -> usize {
        self.shared.prewarm_state.store(PREWARM_RUNNING, Ordering::SeqCst);
        let added = self.shared.engine.prewarm(profile, &self.shared.workers, &self.shared.stop);
        self.shared.prewarm_state.store(PREWARM_DONE, Ordering::SeqCst);
        added
    }

    /// As [`Server::prewarm`], but in a background thread so the server
    /// can accept connections (answering `health` with `ready: false`,
    /// `prewarm: "running"`) while the pool boots.
    pub fn prewarm_background(&self, profile: Profile) {
        // Flip the state *before* the thread exists so no health probe
        // can observe "none"/ready in the gap.
        self.shared.prewarm_state.store(PREWARM_RUNNING, Ordering::SeqCst);
        let shared = self.shared.clone();
        std::thread::spawn(move || {
            let _ = shared.engine.prewarm(profile, &shared.workers, &shared.stop);
            shared.prewarm_state.store(PREWARM_DONE, Ordering::SeqCst);
        });
    }

    /// Accepts and serves connections until the stop token trips, then
    /// drains: in-flight jobs finish, queued jobs bail, workers and
    /// connection threads are joined, and — last, so it sees every
    /// span — the telemetry flush is written if configured. Returns
    /// `Ok(())` on a clean drain — the binary turns this into exit
    /// status 0.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only (per-connection errors close that
    /// connection).
    pub fn serve(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.stop.stopping() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = self.shared.clone();
                    conns.push(std::thread::spawn(move || handle_connection(stream, &shared)));
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) => return Err(e),
            }
        }
        // Drain: close the queue (queued jobs bail against the tripped
        // stop token), join workers, then the connection threads.
        self.shared.workers.shutdown();
        for h in conns {
            let _ = h.join();
        }
        // Every producer of spans has been joined; the flush is final.
        if let Some(path) = &self.shared.telem_out {
            flush_telem(path, &self.shared.telem);
        }
        Ok(())
    }
}

fn send(writer: &mut TcpStream, ev: &Event) -> bool {
    let mut line = encode_event(ev);
    line.push('\n');
    writer.write_all(line.as_bytes()).and_then(|()| writer.flush()).is_ok()
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Accepted sockets inherit the listener's non-blocking flag on some
    // platforms; force blocking reads with a timeout so the thread can
    // poll the stop token while idle.
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        // Never buffer more than one maximal line: the read stops at
        // the limit whether or not a newline has arrived.
        let room = (MAX_REQUEST_LINE - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return, // client closed
            Ok(_) if line.len() == MAX_REQUEST_LINE && !line.ends_with(b"\n") => {
                shared.telem.protocol_error();
                let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                send(&mut writer, &Event::Error { message });
                return;
            }
            Ok(_) => {
                let bytes = std::mem::take(&mut line);
                let text = String::from_utf8_lossy(&bytes);
                let text = text.trim();
                if text.is_empty() {
                    continue;
                }
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if handle_request(text, &mut writer, shared) {
                    return;
                }
            }
            // A timeout mid-line leaves the partial line in the buffer;
            // the retry continues appending where it left off.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stop.stopping() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Milliseconds since the server started.
fn uptime_ms(shared: &Shared) -> u64 {
    u64::try_from(shared.start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// The readiness conjunction behind the `health` verb.
fn health(shared: &Shared) -> HealthSnapshot {
    let workers = shared.workers.workers() as u64;
    let workers_alive = shared.workers.alive();
    let queue_depth = shared.workers.queue_depth();
    let prewarm = match shared.prewarm_state.load(Ordering::SeqCst) {
        PREWARM_RUNNING => "running",
        PREWARM_DONE => "done",
        _ => "none",
    };
    let ready = !shared.stop.stopping()
        && workers_alive == workers
        && prewarm != "running"
        && queue_depth < shared.queue_limit;
    HealthSnapshot {
        ready,
        prewarm: prewarm.to_string(),
        workers_alive,
        workers,
        queue_depth,
        queue_limit: shared.queue_limit,
        uptime_ms: uptime_ms(shared),
    }
}

/// One `metrics` scrape: live gauges refreshed, registry rendered.
fn scrape(shared: &Shared) -> String {
    shared.telem.scrape(&[
        (telem::QUEUE_DEPTH, shared.workers.queue_depth()),
        (telem::WORKERS, shared.workers.workers() as u64),
        (telem::WORKERS_ALIVE, shared.workers.alive()),
        (telem::WORKERS_BUSY, shared.workers.busy()),
        (telem::POOL_ENTRIES, shared.engine.pool().len() as u64),
        (telem::CACHED_RESULTS, shared.engine.cache().len() as u64),
    ])
}

/// Allocates the next work-request id (1-based).
fn next_req(shared: &Shared) -> u64 {
    shared.work_reqs.fetch_add(1, Ordering::Relaxed) + 1
}

/// The request span's closing tag, read off the outcome event.
fn end_tag(ev: &Event) -> &'static str {
    match ev {
        Event::Record { origin, .. } => origin.name(),
        Event::Report { .. } => "sweep",
        Event::Profile { .. } => "profile",
        Event::Error { .. } => "error",
        _ => "ok",
    }
}

/// Handles one request; returns `true` when the connection should
/// close (shutdown requested, or the client is unreachable).
fn handle_request(text: &str, writer: &mut TcpStream, shared: &Shared) -> bool {
    let req = match decode_request(text) {
        Ok(req) => req,
        Err(e) => {
            shared.telem.protocol_error();
            return !send(writer, &Event::Error { message: format!("bad request: {e}") });
        }
    };
    let observe_only =
        matches!(req, Request::Ping | Request::Stats | Request::Metrics | Request::Health);
    if shared.stop.stopping() && !observe_only {
        return !send(writer, &Event::Error { message: "server is shutting down".into() });
    }
    match req {
        Request::Ping => !send(writer, &Event::Pong { schema: SCHEMA.into() }),
        Request::Stats => {
            let mut stats = shared.engine.stats(shared.requests.load(Ordering::Relaxed));
            stats.uptime_ms = uptime_ms(shared);
            stats.workers = shared.workers.workers() as u64;
            stats.version = env!("CARGO_PKG_VERSION").to_string();
            !send(writer, &Event::Stats(stats))
        }
        Request::Metrics => !send(writer, &Event::Metrics { text: scrape(shared) }),
        Request::Health => !send(writer, &Event::Health(health(shared))),
        Request::Shutdown => {
            send(writer, &Event::Ok);
            shared.stop.request();
            true
        }
        Request::Sweep { profile, cache, verify } => {
            let req_id = next_req(shared);
            shared.telem.request_begin(req_id);
            handle_sweep(writer, shared, profile, cache, verify, req_id)
        }
        Request::Job { parts, cache } => {
            let ctx = JobCtx::single(next_req(shared));
            shared.telem.request_begin(ctx.req);
            let reply = run_on_pool(shared, ctx, move |engine| {
                let spec = parts.spec()?;
                let (record, origin) = engine.execute(&spec, cache, ctx)?;
                let json = engine.telem().serialize_span(ctx.req, || record.to_json());
                Ok(Event::Record {
                    key: record.key.clone(),
                    origin,
                    snap_hash: String::new(),
                    record: json,
                    req: ctx.req,
                })
            });
            shared.telem.request_end(ctx.req, end_tag(&reply));
            !send(writer, &reply)
        }
        Request::Profile { parts } => {
            let ctx = JobCtx::single(next_req(shared));
            shared.telem.request_begin(ctx.req);
            let reply = run_on_pool(shared, ctx, move |engine| {
                let spec = parts.spec()?;
                let (record, profile) = engine.execute_profiled(&spec)?;
                let json = engine.telem().serialize_span(ctx.req, || record.to_json());
                Ok(Event::Profile { key: record.key.clone(), record: json, profile, req: ctx.req })
            });
            shared.telem.request_end(ctx.req, end_tag(&reply));
            !send(writer, &reply)
        }
        Request::Replay { parts } => {
            let ctx = JobCtx::single(next_req(shared));
            shared.telem.request_begin(ctx.req);
            let reply = run_on_pool(shared, ctx, move |engine| {
                let spec = parts.spec()?;
                let (record, hash) = engine.execute_replay(&spec, ctx)?;
                let json = engine.telem().serialize_span(ctx.req, || record.to_json());
                Ok(Event::Record {
                    key: record.key.clone(),
                    origin: Origin::Warm,
                    snap_hash: hash.to_string(),
                    record: json,
                    req: ctx.req,
                })
            });
            shared.telem.request_end(ctx.req, end_tag(&reply));
            !send(writer, &reply)
        }
    }
}

/// Ships one closure to the worker pool and blocks this connection
/// thread for its outcome, so single-job requests obey the same global
/// parallelism bound as sweeps. The queue wait (submission to pickup)
/// is spanned and recorded; a refused submission closes the span
/// immediately so the stream stays balanced.
fn run_on_pool<F>(shared: &Shared, ctx: JobCtx, work: F) -> Event
where
    F: FnOnce(&JobEngine) -> Result<Event, String> + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<Result<Event, String>>();
    let engine = shared.engine.clone();
    let stop = shared.stop.clone();
    let worker_telem = shared.telem.clone();
    let queued_at = Instant::now();
    shared.telem.queue_begin(ctx);
    let submitted = shared.workers.submit(move || {
        worker_telem.queue_end(ctx, elapsed_us(queued_at));
        let out = if stop.stopping() {
            Err("server is shutting down".to_string())
        } else {
            work(&engine)
        };
        let _ = tx.send(out);
    });
    if !submitted {
        shared.telem.queue_end(ctx, elapsed_us(queued_at));
        return Event::Error { message: "server is shutting down".into() };
    }
    match rx.recv() {
        Ok(Ok(ev)) => ev,
        Ok(Err(msg)) => Event::Error { message: msg },
        Err(_) => Event::Error { message: "job was dropped during shutdown".into() },
    }
}

fn handle_sweep(
    writer: &mut TcpStream,
    shared: &Shared,
    profile: Profile,
    cache: bool,
    verify: bool,
    req: u64,
) -> bool {
    let fail = |writer: &mut TcpStream, message: String| {
        shared.telem.request_end(req, "error");
        !send(writer, &Event::Error { message })
    };
    let outcome = run_profile(
        &shared.engine,
        &shared.workers,
        profile,
        cache,
        &shared.stop,
        req,
        |done, total, key, origin| {
            // Progress is advisory; a vanished client must not stop the
            // jobs already queued, so write errors are ignored here and
            // surface on the terminal event instead.
            let _ = send(writer, &Event::Progress { done, total, key: key.to_string(), origin });
        },
    );
    let report = match outcome {
        Err(message) => return fail(writer, message),
        Ok(None) => {
            let message = "sweep aborted by server shutdown (drained, nothing written)".into();
            return fail(writer, message);
        }
        Ok(Some(report)) => report,
    };
    if verify {
        // The in-process transparency gate: the same matrix through the
        // cold batch path must serialise byte-identically.
        let verified = cheri_sweep::run_matrix(profile, shared.workers.workers())
            .and_then(|batch| verify_against_batch(&report, &batch));
        if let Err(message) = verified {
            return fail(writer, message);
        }
    }
    // One rendering feeds both the wire event and the persisted file,
    // so what lands on disk is byte-identical to what the client read.
    let rendered = shared.telem.serialize_span(req, || report.to_json());
    if let Some(dir) = &shared.results_dir {
        persist_report(dir, &report.profile, &rendered, shared.requests.load(Ordering::Relaxed));
    }
    let ev =
        Event::Report { profile: report.profile.clone(), verified: verify, report: rendered, req };
    shared.telem.request_end(req, "sweep");
    !send(writer, &ev)
}

/// Persists a *complete* report atomically: full write to a `.tmp`
/// sibling, then rename. A crash or shutdown at any point leaves either
/// nothing or a finished report — never a partial file.
fn persist_report(dir: &std::path::Path, profile: &str, rendered: &str, serial: u64) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let name = format!("serve-{profile}-{serial}.json");
    let path = dir.join(&name);
    let tmp = dir.join(format!("{name}.tmp"));
    if std::fs::write(&tmp, rendered).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Writes the final telemetry flush with the same atomicity discipline
/// as [`persist_report`]: the file either appears whole or not at all.
fn flush_telem(path: &std::path::Path, telem: &ServiceTelem) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() && std::fs::create_dir_all(dir).is_err() {
            return;
        }
    }
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else { return };
    let tmp = path.with_file_name(format!("{name}.tmp"));
    if std::fs::write(&tmp, telem.flush_json()).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}
