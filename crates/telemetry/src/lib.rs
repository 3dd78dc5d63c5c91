//! Unified telemetry for the Adapt-NoC reproduction: a metrics registry
//! (counters, gauges, log2-bucket histograms), span-style stage timers, a
//! bounded structured event log, and text exporters (Prometheus exposition
//! format and JSON-lines).
//!
//! # Design
//!
//! This crate is a **leaf**: it depends on nothing, and `adaptnoc-sim`,
//! `adaptnoc-faults`, `adaptnoc-core` and `adaptnoc-bench` all depend on
//! it. Instrumented code holds an `Option<Registry>` (or a wrapper around
//! one) — [`TelemetryMode::Off`] means the option is `None` and the hot
//! path pays exactly one branch per instrumentation site, which is what
//! "zero cost when disabled" means here (there is no compile-time feature
//! flag; the equivalence is proven behaviourally by
//! `crates/sim/tests/telemetry_equivalence.rs`).
//!
//! All handles ([`CounterId`], [`GaugeId`], [`HistogramId`], [`SpanId`])
//! are interned once at registration and recorded against with a plain
//! array index — no hashing on the hot path. Values are not atomic: one
//! registry belongs to one simulation (campaigns merge per-point
//! registries with [`Registry::merge`] after the fact), which keeps
//! recording branch-plus-add cheap and the export deterministic.
//!
//! Span *durations* are passed in by the caller (as nanoseconds), so
//! wall-clock time never enters this crate — deterministic tests and
//! golden files record fixed durations, while the simulator records real
//! `Instant` deltas on sampled cycles only.
//!
//! See `docs/OBSERVABILITY.md` at the repository root for the full metric
//! catalog and exporter format documentation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod mode;
pub mod registry;

pub use export::{json_lines, prometheus};
pub use mode::{Cadence, TelemetryMode};
pub use registry::{
    CounterId, Event, GaugeId, HistogramId, Labels, Registry, Snapshot, SpanId, HIST_BUCKETS,
};

/// Common imports: `use adaptnoc_telemetry::prelude::*;`.
pub mod prelude {
    pub use crate::export::{json_lines, prometheus};
    pub use crate::mode::TelemetryMode;
    pub use crate::registry::{
        CounterId, Event, GaugeId, HistogramId, Labels, Registry, Snapshot, SpanId,
    };
}
