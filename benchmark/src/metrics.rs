//! The benchmark's schema: every workload and every metric the runner
//! can emit, with unit, direction and (end to end only) regression bound.
//!
//! `BENCHMARK.json` at the repository root declares the same table;
//! `tests/schema.rs` fails when the two differ in either direction. The
//! runner can only emit names from this table ([`Values::set`] refuses
//! anything else), and it emits every one of them on every run.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end to end only).
    pub bound: Option<f64>,
    /// One-line definition (shown by `run --list`).
    pub what: &'static str,
}

/// One declared workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "mixed_closed",
        why: "closed-loop 8x8 paper chip under steady load: the router pipeline does ~5/6 of the work, the workload engine the rest; every kernel rewrite must show here",
    },
    WorkloadDef {
        name: "adapt_rl",
        why: "the paper's control loop with three online DQN agents and telemetry export: the only workload where core, rl, power, topology re-spec and telemetry do measurable work",
    },
    WorkloadDef {
        name: "scn_storm",
        why: "seed-generated .scn scripts (storm, drain, Zipf ramp, glitches, link kill, reconfigure): open-loop traffic, NACK/retry and the scenario runner use the kernel differently",
    },
    WorkloadDef {
        name: "scale_64",
        why: "64x64 mesh and 4x4x16 chiplet fabric, mostly idle: set-up, table fill, memory and the active-set worklists dominate instead of the VC scan",
    },
    WorkloadDef {
        name: "farm_jobs",
        why: "jobs through an in-process farm daemon over TCP: framing, journal fsync, admission queue and polling dominate and the kernel does almost nothing",
    },
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        what,
    }
}

const fn lo(name: &'static str, unit: &'static str, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        what,
    }
}

const fn hi(name: &'static str, unit: &'static str, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        what,
    }
}

/// End-to-end metrics: what a user of the system sees. Taken from the
/// untraced run only, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25, "everything before the first timed segment; reference-host seconds on simulator workloads, raw on farm_jobs; median of repeated set-ups where one is cheap"),
    e2e("norm_wall_s", "s", 0.15, "sum over phases of segments x first-quartile segment cost; reference-host seconds on simulator workloads, raw wall on farm_jobs (where a segment is a job's turnaround)"),
    e2e("peak_rss_mib", "MiB", 0.20, "VmHWM of the workload's process at exit"),
];

/// Per-layer metrics: the ledger from the traced run. Layers are the
/// crate names plus `host` for the benchmark's own.
pub const PER_LAYER: &[MetricDef] = &[
    // host
    lo("host.wall_s", "s", "raw wall of all timed segments (drifts with the host; continuity with BENCH_*.json only)"),
    hi("host.sim_kcps", "kc/s", "simulated kilocycles per raw wall second over the timed segments"),
    lo("host.cpu_s", "s", "utime+stime of the whole process from /proc/self/stat"),
    hi("host.calib_mops_median", "Mops/s", "median calibration-kernel rate during the run"),
    lo("host.calib_spread_pct", "%", "(max-min)/median of the calibration readings: a host too noisy to normalise shows here"),
    lo("host.trace_overhead_pct", "%", "traced / untraced normalised segment cost - 1"),
    lo("host.residual_share", "share", "segment self time / segment wall: the part no layer span accounts for"),
    hi("host.nproc", "count", "available parallelism; 2 on the bench host, so no thread claim can be read into any number"),
    // topology
    lo("topology.spec_build_s", "s", "mesh_chip / chiplet_chip during set-up (inside core.design_build_s on adapt_rl)"),
    lo("topology.build_chip_spec_us_p50", "us", "median build_chip_spec on the paper regions, 50 calls per topology kind (adapt_rl)"),
    // sim
    lo("sim.new_s", "s", "Network::new during set-up"),
    lo("sim.step_s", "s", "Network::step inside timed segments"),
    hi("sim.step_share", "share", "sim.step_s / segment wall"),
    lo("sim.step_ns_p50", "ns", "median Network::step"),
    lo("sim.step_ns_p99", "ns", "99th percentile Network::step"),
    lo("sim.idle_step_ns", "ns", "mean Network::step on the idle 64x64 mesh (scale_64)"),
    lo("sim.drain_s", "s", "stepping to in_flight()==0 after the loaded phases (scale_64)"),
    lo("sim.drain_cycles", "cycles", "simulated cycles those drains took (exact)"),
    lo("sim.take_epoch_s", "s", "Network::take_epoch at segment ends (inside workloads.epoch_telemetry_s on adapt_rl)"),
    lo("sim.ns_per_flit_hop", "ns", "sim.step_s / router flit forwards: host cost per simulated event"),
    hi("sim.packets_delivered", "count", "packets delivered (exact)"),
    hi("sim.flit_hops", "count", "flits forwarded by routers (exact)"),
    lo("sim.avg_latency_cycles", "cycles", "mean packet latency, simulated (exact)"),
    lo("sim.p99_latency_cycles", "cycles", "p99 packet latency, simulated (exact)"),
    lo("sim.avg_hops", "count", "mean hop count (exact)"),
    lo("sim.drops", "count", "packets dropped (exact)"),
    lo("sim.nacks", "count", "packets NACKed by a fault (exact)"),
    lo("sim.retries", "count", "re-injections after a NACK (exact)"),
    lo("sim.guard_violations", "count", "invariant violations at the end of the run (exact; must be 0)"),
    lo("sim.digest_changed", "count", "1 when the simulated-statistics digest differs from the reference stored for seed 1 at the default length"),
    lo("sim.stage.rc_va_ns", "ns", "program-reported RC+VA span per sampled cycle (mixed_closed; not comparable across a change to the span method)"),
    lo("sim.stage.sa_st_ns", "ns", "program-reported SA+ST span per sampled cycle"),
    lo("sim.stage.link_ns", "ns", "program-reported link span per sampled cycle"),
    lo("sim.stage.ni_inject_ns", "ns", "program-reported NI-inject span per sampled cycle"),
    lo("sim.stage.merge_ns", "ns", "program-reported sink-merge span per sampled cycle"),
    // workloads
    lo("workloads.tick_s", "s", "Workload::tick inside timed segments"),
    lo("workloads.tick_share", "share", "workloads.tick_s / segment wall"),
    lo("workloads.tick_ns_p50", "ns", "median Workload::tick"),
    lo("workloads.inject_s", "s", "SyntheticInjector::tick inside timed segments (scale_64)"),
    lo("workloads.epoch_telemetry_s", "s", "Workload::epoch_telemetry at epoch boundaries (adapt_rl)"),
    hi("workloads.offered_packets", "count", "packets offered to the network (exact)"),
    // core
    lo("core.design_build_s", "s", "Design::build during set-up (adapt_rl)"),
    lo("core.tick_s", "s", "per-cycle Design::tick inside timed segments"),
    lo("core.on_epoch_s", "s", "Design::on_epoch at epoch boundaries"),
    hi("core.reconfigs", "count", "completed subNoC reconfigurations (exact)"),
    lo("core.reconfig_cycles", "cycles", "simulated cycles spent reconfiguring (exact)"),
    // rl
    hi("rl.decisions", "count", "topology decisions taken (exact)"),
    hi("rl.train_steps", "count", "DQN training iterations (exact)"),
    lo("rl.train_step_us_p50", "us", "median DqnAgent::train_step on a full replay buffer (probe)"),
    lo("rl.forward_ns_p50", "ns", "median Mlp::forward on the paper's network (probe)"),
    // power
    lo("power.energy_s", "s", "EnergyModel::energy at epoch boundaries"),
    lo("power.energy_uj", "uJ", "simulated NoC energy over the measured window (exact)"),
    // telemetry
    lo("telemetry.snapshot_s", "s", "Registry::snapshot at segment ends (adapt_rl)"),
    lo("telemetry.export_s", "s", "bench::telemetry::write_metrics at segment ends"),
    lo("telemetry.export_bytes", "bytes", "size of the last exported telemetry.jsonl + telemetry.prom"),
    // scenario
    lo("scenario.parse_compile_s", "s", "bench::scenarios::load_scenario over the generated scripts"),
    lo("scenario.run_s", "s", "scenario::run over the generated scripts"),
    hi("scenario.run_kcps", "kc/s", "scripted kilocycles per raw second inside scenario::run"),
    hi("scenario.accepted_rate", "pkt/node/cyc", "mean accepted throughput over the scripts (exact)"),
    lo("scenario.p99_latency_cycles", "cycles", "largest per-script p99 latency (exact)"),
    lo("scenario.max_source_queue", "count", "largest sampled source-queue backlog (exact)"),
    lo("scenario.end_source_queue", "count", "source-queue backlog left at the end of the scripts (exact; must be 0)"),
    // faults
    hi("faults.fired", "count", "scripted faults fired (exact)"),
    hi("faults.recoveries", "count", "completed permanent-fault recoveries (exact)"),
    lo("faults.retries", "count", "packets queued for NACK retry (exact)"),
    lo("faults.drops", "count", "packets the fault layer abandoned (exact)"),
    // farm
    lo("farm.boot_s", "s", "Server::start + accept thread up + first ping answered"),
    lo("farm.replay_s", "s", "a second Server::start on the populated data dir (journal replay)"),
    lo("farm.job_ack_ms_p50", "ms", "median submit request to accepted over the sequential jobs"),
    lo("farm.job_turnaround_ms_p50", "ms", "median submit request to rows decoded over the sequential jobs"),
    lo("farm.job_turnaround_ms_p90", "ms", "90th percentile of the same"),
    lo("farm.status_rtt_ms_p50", "ms", "median status round trip"),
    lo("farm.result_rtt_ms_p50", "ms", "median result round trip, rows decoded"),
    lo("farm.polls_per_job", "count", "mean status polls per sequential job (1 ms sleep between polls bounds the quantisation)"),
    lo("farm.request_s", "s", "time inside request round trips during the timed phases"),
    lo("farm.poll_sleep_s", "s", "time asleep between status polls during the timed phases"),
    lo("farm.frame_codec_us_p50", "us", "median write_frame + read_frame of a result frame through a Vec, no socket (probe)"),
    lo("farm.overhead_ms_p50", "ms", "median turnaround minus the same job run in-process"),
    lo("farm.frames", "count", "frames sent and received by the client (exact)"),
    lo("farm.frame_bytes", "bytes", "bytes in those frames, headers included"),
    lo("farm.journal_bytes", "bytes", "size of the daemon's jobs.jsonl after the run"),
    hi("farm.burst_jobs_per_s", "1/s", "burst jobs completed per raw second"),
    lo("farm.jobs_failed", "count", "jobs not completed or with rows differing from the in-process run"),
    // bench
    lo("bench.job_sim_ms_p50", "ms", "median in-process scenario_point of the farm job's source"),
    lo("bench.checkpoint_append_us_p50", "us", "median per-point cost of run_checkpointed over trivial points (probe)"),
    // accuracy
    lo("accuracy.latency_vs_mesh_pct", "%", "adapt_rl mean packet latency against a Baseline run of the same seed (the model is unvalidated against hardware; informational)"),
    lo("accuracy.paper_latency_vs_mesh_pct", "%", "the paper's figure for the same comparison: -34"),
];

/// Whether `name` is a legal metric or workload name.
pub fn name_is_legal(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values keyed by declared metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`END_TO_END`] or
    /// [`PER_LAYER`]: the runner must not be able to emit a metric the
    /// schema does not know.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric `{name}` is not declared in metrics.rs"
        );
        self.0.insert(name, value);
    }

    /// Adds `value` to `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let cur = self.get(name);
        self.set(name, cur + value);
    }

    /// The value under `name`, 0 when the workload does not exercise it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Copies every value of `other` over this one's.
    pub fn extend(&mut self, other: &Values) {
        for (k, v) in &other.0 {
            self.0.insert(k, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        {
            assert!(name_is_legal(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some()));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Values::default().set("made.up", 1.0);
    }
}
