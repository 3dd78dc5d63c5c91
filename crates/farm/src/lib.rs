//! # adaptnoc-farm
//!
//! A crash-tolerant, long-running simulation service: the
//! `adaptnoc-farmd` daemon accepts scenario jobs over a local TCP or
//! Unix socket (length-prefixed JSON frames, spec in `docs/FARM.md`),
//! runs them on supervised worker threads, and survives panics, runaway
//! jobs, `SIGTERM`, and even `SIGKILL` without losing work:
//!
//! * [`config`] — TOML config with `ADAPTNOC__SECTION__KEY` env
//!   overrides.
//! * [`proto`] — the wire protocol's requests and responses (framing
//!   and the client live in `adaptnoc_bench::submit`).
//! * [`job`] — job specs, priorities, lifecycle states, and events.
//! * [`journal`] — the append-only on-disk job journal that makes the
//!   queue itself persistent across daemon restarts.
//! * [`queue`] — the bounded three-lane admission queue.
//! * [`worker`] — supervised execution: `catch_unwind` isolation,
//!   bounded exponential-backoff retries, deadline enforcement, and a
//!   per-job flight recorder.
//! * [`server`] — the accept loop, signal handling, and graceful
//!   shutdown (checkpoint, persist, exit).
//! * [`client`] — the logic behind the `farmctl` binary.
//! * [`corpus`] — the embedded named campaigns (`scenarios/*.scn`).
//!
//! Every job's sweep points go through the same checkpoint journal as
//! `gen-figures --checkpoint`, so a job interrupted at *any* moment —
//! graceful or not — resumes from its completed points and still
//! produces byte-identical results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod config;
pub mod corpus;
pub mod job;
pub mod journal;
pub mod proto;
pub mod queue;
pub mod server;
pub mod worker;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::config::FarmConfig;
    pub use crate::job::{JobId, JobSnapshot, JobSpec, JobState, Priority};
    pub use crate::server::Server;
}
