//! Telemetry probe: short deterministic instrumented runs whose merged
//! registry backs `gen-figures --metrics-out DIR`.
//!
//! Campaign points deliberately run with telemetry off (their JSON output
//! is byte-identical across thread counts and must stay that way), so the
//! exporter files are produced by two dedicated probe runs under
//! [`TelemetryMode::Strict`]:
//!
//! 1. an RL-controlled single-region run (simulator + RL metrics), and
//! 2. the fault sweep's own `mixed` point (fault and recovery metrics),
//!    run by the sweep's code with telemetry attached.
//!
//! Both are seeded and cycle-bounded, so the counter/gauge/histogram and
//! event portions of the merged snapshot are deterministic; only the
//! wall-clock span durations vary between hosts.

use adaptnoc_core::prelude::*;
use adaptnoc_rl::state::Observation;
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::flit::Packet;
use adaptnoc_sim::ids::NodeId;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::telemetry::{json_lines, prometheus, Registry, TelemetryMode};
use adaptnoc_topology::prelude::*;
use std::path::{Path, PathBuf};

/// Runs both probe scenarios under [`TelemetryMode::Strict`] and returns
/// the merged registry, covering the simulator, fault, and RL metric
/// families of `docs/OBSERVABILITY.md`.
pub fn telemetry_probe() -> Registry {
    let mut reg = rl_probe();
    reg.merge(&fault_probe());
    reg
}

/// Writes `contents` to `path` atomically: the bytes land in a
/// `.tmp`-suffixed sibling first and are renamed into place, so a reader
/// (or a Ctrl-C mid-write) never sees a partial file — it sees either
/// the previous complete version or the new one.
///
/// # Errors
///
/// Propagates I/O errors from the temporary write or the rename.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Writes the registry as `telemetry.jsonl` (JSON-lines) and
/// `telemetry.prom` (Prometheus text exposition 0.0.4) under `dir`,
/// creating the directory if needed. Returns both paths.
///
/// Both files are written atomically ([`atomic_write`]), so an
/// interrupted `gen-figures --metrics-out` run never leaves a torn
/// exporter file behind.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file writes.
pub fn write_metrics(dir: &Path, reg: &Registry) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let jsonl = dir.join("telemetry.jsonl");
    let prom = dir.join("telemetry.prom");
    atomic_write(&jsonl, &json_lines(reg))?;
    atomic_write(&prom, &prometheus(reg))?;
    Ok((jsonl, prom))
}

/// A three-epoch adaptive run on a single 4x4 region: exercises the
/// per-epoch simulator flush, the packet-latency histograms, and the RL
/// reward gauges / decision counters.
fn rl_probe() -> Registry {
    let layout = ChipLayout::single(Rect::new(0, 0, 4, 4), false);
    let region_nodes: Vec<NodeId> = layout.regions[0]
        .rect
        .iter()
        .map(|c| layout.grid.node(c))
        .collect();
    let mut ctl = AdaptController::new(
        layout,
        vec![TopologyPolicy::Fixed(TopologyKind::Torus)],
        SimConfig::adapt_noc(),
        7,
    );
    let spec = ctl.initial_spec().expect("initial spec");
    let mut net = Network::new(spec, SimConfig::adapt_noc()).expect("probe network");
    net.set_telemetry_mode(TelemetryMode::Strict);

    let mut next_id = 1u64;
    for epoch in 0..3u64 {
        for _ in 0..600u64 {
            let now = net.now();
            if now < 400 + epoch * 600 && now.is_multiple_of(8) {
                for (i, &src) in region_nodes.iter().enumerate() {
                    let dst = region_nodes[(i + 3) % region_nodes.len()];
                    net.inject(Packet::request(next_id, src, dst, 0))
                        .expect("probe inject");
                    next_id += 1;
                }
            }
            net.step();
            ctl.tick(&mut net).expect("controller tick");
        }
        let report = net.take_epoch();
        let t = RegionTelemetry {
            obs: Observation::default(),
            power_w: 0.4 + 0.1 * epoch as f64,
            network_latency: report.stats.avg_network_latency(),
            queuing_latency: report.stats.avg_queuing_latency(),
        };
        ctl.on_epoch(&mut net, &[t]).expect("epoch boundary");
    }
    for _ in 0..4_000u64 {
        if net.in_flight() == 0 {
            break;
        }
        net.step();
        ctl.tick(&mut net).expect("controller tick");
    }
    let _ = net.take_epoch();
    net.telemetry().expect("strict telemetry attached").clone()
}

/// The fault sweep's `mixed` scenario (transients + a permanent link) at
/// seed 9 with telemetry attached: exercises fault-injection counters,
/// retry/drop accounting, and the time-to-recover histogram.
fn fault_probe() -> Registry {
    let (_, reg) =
        crate::faults::run_point("mixed", 9, TelemetryMode::Strict).expect("fault controller tick");
    reg.expect("strict telemetry attached")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value(snapshot: &adaptnoc_sim::telemetry::Snapshot, name: &str) -> u64 {
        snapshot
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    #[test]
    fn probe_covers_sim_fault_and_rl_metrics() {
        let reg = telemetry_probe();
        let snap = reg.snapshot();
        assert!(sample_value(&snap, "adaptnoc_sim_packets_total") > 0);
        assert!(sample_value(&snap, "adaptnoc_faults_injected_total") > 0);
        assert!(sample_value(&snap, "adaptnoc_rl_decisions_total") > 0);
        assert!(
            snap.gauges
                .iter()
                .any(|g| g.name == "adaptnoc_rl_reward_power_watts"),
            "reward gauges present"
        );
        assert!(
            snap.histograms
                .iter()
                .any(|h| h.name == "adaptnoc_faults_time_to_recover_cycles" && h.count > 0),
            "a permanent-link recovery completed"
        );
    }

    #[test]
    fn probe_counters_are_deterministic() {
        let a = telemetry_probe().snapshot();
        let b = telemetry_probe().snapshot();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.histograms, b.histograms);
        assert_eq!(a.events, b.events);
    }
}
