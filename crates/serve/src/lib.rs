//! `cheri-serve`: a persistent sweep/profile simulation service with a
//! snapshot-warmed worker pool.
//!
//! The batch binaries (`xsweep`, `profbin`) pay a full boot + compile +
//! exec + allocation for every job of every invocation. This crate
//! keeps a simulator *resident*: a TCP server ([`Server`]) speaking
//! line-delimited JSON ([`protocol`], `cheri-serve/v1`) shards incoming
//! sweep/job/profile/replay requests across a persistent [`WorkerPool`],
//! executes them warm from a pool of pre-booted phase-2 snapshots
//! ([`SnapshotPool`]), and dedups identical work through a
//! content-hashed result cache ([`ResultCache`]) keyed on the job's
//! canonical configuration plus the [`cheri_snap::StateHash`] of the
//! snapshot it would run from.
//!
//! The service's contract is **transparency**: a served report must be
//! byte-identical to what the cold batch path (`xsweep`) writes for the
//! same matrix. Cache, pool, and sharding may change *where* a result
//! comes from, never *what* it is — [`transparency_gate`] asserts this
//! in-process, the `serveload --expect` flag asserts it end-to-end over
//! the wire, and CI pins a served smoke report against the blessed
//! baseline. The contract is only achievable because the simulator is
//! deterministic and both paths bottom out in the same `cheri-sweep`
//! runners; see DESIGN.md §4f.
//!
//! Shutdown (protocol `shutdown` request, or SIGINT/SIGTERM in the
//! binary via [`signal`]) is a cooperative drain: jobs already executing
//! finish, queued jobs bail, and served reports are only ever persisted
//! whole and atomically — a kill mid-sweep leaves no partial files.

pub mod cache;
pub mod client;
pub mod engine;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod telem;

pub use cache::{cache_key, cache_key_canonical, ResultCache, NO_SNAPSHOT};
pub use client::Client;
pub use engine::{
    run_profile, transparency_gate, verify_against_batch, JobEngine, Stop, WorkerPool,
};
pub use pool::{boot_snapshot, PoolEntry, SnapshotPool};
pub use protocol::{
    decode_event, decode_request, encode_event, encode_request, Event, HealthSnapshot, JobParts,
    Origin, Request, StatsSnapshot, MAX_REQUEST_LINE, SCHEMA,
};
pub use server::{Server, ServerConfig};
pub use telem::{JobCtx, PhaseRecorder, ServiceTelem, HIST_COUNTER_PAIRS};
