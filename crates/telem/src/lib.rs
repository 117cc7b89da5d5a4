//! `cheri-telem`: service-side telemetry for the CHERI reproduction.
//!
//! The guest side of the workspace is fully observable — per-event
//! traces (`cheri-trace`), per-PC profiles (`cheri-prof`) — but the
//! *host service* (`cheri-serve`) was a black box: a stuck worker or a
//! cold-cache stampede was invisible until the run ended. This crate is
//! the host-side counterpart, built on the same principles:
//!
//! * **u64-only, deterministic.** The [`TelemRegistry`] holds counters,
//!   gauges, and log2-bucket streaming histograms — all `u64`, snapshot
//!   in name order.
//! * **Hard invariants, not best-effort logging.** Correlated updates
//!   (a histogram observation and the counter that should count it) go
//!   through one [`TelemRegistry::batch`] critical section, so every
//!   scrape sees `histogram _count == counter` *exactly* — the
//!   consistency contract the metrics tests assert against a live
//!   server. Span streams ([`SpanLog`]) must balance begin/end per
//!   request id; [`SpanLog::check_balance`] is the machine check.
//! * **Cheap enough to leave on.** One short uncontended mutex per
//!   update, at *service* rate (per request/phase, not per retired
//!   instruction). The registry can also be constructed disabled, which
//!   turns every operation into a no-op — the A/B the telemetry
//!   overhead benchmark compares.
//!
//! Spans are begin/end pairs with a kind, an id, and a timestamp: the
//! kind is a [`SpanPhase`], the id is a (request, job) pair, and the
//! timestamp is host microseconds since the log was created. This is
//! the host-clock span mechanism; guest-cycle spans live in the
//! profiler's `cheri_prof::Timeline`. The log exports as a Chrome
//! trace-event / Perfetto timeline with one lane (`tid`) per request
//! id.
//!
//! [`prom`] renders a registry snapshot as a Prometheus text exposition
//! (stable ordering, `# TYPE` lines, `_bucket`/`_sum`/`_count`
//! triplets) and parses one back with the format invariants checked —
//! the parser is what the golden tests and the `servemon` dashboard
//! both consume.

pub mod prom;
pub mod registry;
pub mod span;

pub use prom::{parse_exposition, render_exposition, Exposition, PromHist};
pub use registry::{HistSnapshot, TelemBatch, TelemRegistry, TelemSnapshot};
pub use span::{SpanEvent, SpanLog, SpanPhase};
