//! Fault-sweep campaign: resilience metrics under seeded fault schedules.
//!
//! Four scenarios on a 4x4 mesh subNoC — a transient burst, a single
//! permanent link loss, a mixed schedule, and a router loss — each run for
//! every requested seed with the same closed-loop stride workload. The
//! whole campaign is deterministic: the same seed list always produces
//! byte-identical rows.

use adaptnoc_core::reconfig::ReconfigTiming;
use adaptnoc_faults::prelude::*;
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::flit::Packet;
use adaptnoc_sim::ids::NodeId;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::telemetry::{Registry, TelemetryMode};
use adaptnoc_topology::prelude::*;

/// One scenario x seed result row.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Scenario name (`transient-burst`, `single-link`, `mixed`,
    /// `router-down`).
    pub scenario: String,
    /// Schedule seed.
    pub seed: u64,
    /// Packets offered by the workload.
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// `delivered / offered`.
    pub delivery_ratio: f64,
    /// Packets NACKed back to their source NI.
    pub nacks: u64,
    /// Packet re-injections after a NACK.
    pub retries: u64,
    /// Packets dropped (retry budget exhausted or endpoint disconnected).
    pub drops: u64,
    /// Completed permanent-fault recoveries.
    pub recoveries: u64,
    /// Mean cycles from fault strike to recovered configuration (0 when no
    /// recovery ran).
    pub mean_time_to_recover: f64,
    /// Average end-to-end packet latency over the whole run.
    pub avg_packet_latency: f64,
    /// Nodes left disconnected at the end of the run.
    pub disconnected: u64,
}

fn scenario_params(name: &str) -> ScheduleParams {
    let base = ScheduleParams {
        transients: 0,
        permanent_links: 0,
        router_faults: 0,
        window_start: 300,
        window_end: 900,
        min_duration: 30,
        max_duration: 120,
    };
    match name {
        "transient-burst" => ScheduleParams {
            transients: 4,
            ..base
        },
        "single-link" => ScheduleParams {
            permanent_links: 1,
            ..base
        },
        "mixed" => ScheduleParams {
            transients: 2,
            permanent_links: 1,
            ..base
        },
        "router-down" => ScheduleParams {
            router_faults: 1,
            ..base
        },
        other => unreachable!("unknown fault scenario {other}"),
    }
}

/// Runs the fault-sweep campaign for every scenario x seed, with the grid
/// fanned across `threads` workers. Every point builds its own network
/// and schedule from its seed, so the rows are byte-identical at any
/// thread count.
///
/// # Errors
///
/// Propagates [`FaultError`] from the controller (a validation or protocol
/// failure, which indicates a bug rather than an unsurvivable fault).
pub fn fault_sweep_par(seeds: &[u64], threads: usize) -> Result<Vec<FaultRow>, FaultError> {
    let n = SCENARIOS.len() * seeds.len();
    let rows = crate::parallel::run_indexed(n, threads, |i| sweep_point(i, seeds));
    rows.into_iter().collect()
}

const SCENARIOS: [&str; 4] = ["transient-burst", "single-link", "mixed", "router-down"];

/// The sweep's `i`-th scenario x seed point, telemetry off.
fn sweep_point(i: usize, seeds: &[u64]) -> Result<FaultRow, FaultError> {
    let (scenario, seed) = (SCENARIOS[i / seeds.len()], seeds[i % seeds.len()]);
    run_point(scenario, seed, TelemetryMode::Off).map(|(row, _)| row)
}

/// Rebuilds a [`FaultRow`] from its [`ToJson`](crate::jsonrows::ToJson)
/// encoding. Numbers pass through `f64` Display/parse, which round-trips
/// exactly, so a replayed row is byte-identical to the freshly computed
/// one.
fn fault_row_from_json(v: &adaptnoc_sim::json::Value) -> Option<FaultRow> {
    Some(FaultRow {
        scenario: v.get("scenario")?.as_str()?.to_string(),
        seed: v.get("seed")?.as_u64()?,
        offered: v.get("offered")?.as_u64()?,
        delivered: v.get("delivered")?.as_u64()?,
        delivery_ratio: v.get("delivery_ratio")?.as_f64()?,
        nacks: v.get("nacks")?.as_u64()?,
        retries: v.get("retries")?.as_u64()?,
        drops: v.get("drops")?.as_u64()?,
        recoveries: v.get("recoveries")?.as_u64()?,
        mean_time_to_recover: v.get("mean_time_to_recover")?.as_f64()?,
        avg_packet_latency: v.get("avg_packet_latency")?.as_f64()?,
        disconnected: v.get("disconnected")?.as_u64()?,
    })
}

/// [`fault_sweep_par`] with a crash-tolerant checkpoint journal at
/// `path` (see [`run_checkpointed`](crate::parallel::run_checkpointed)):
/// completed scenario x seed points are journaled as they finish, a killed
/// sweep resumes from the completed points on the next invocation, and
/// the assembled rows are byte-identical to an uninterrupted run.
///
/// A [`FaultError`] inside a point indicates a bug (see [`fault_sweep_par`])
/// and panics the sweep; the journal keeps every point completed up to
/// that moment.
///
/// # Errors
///
/// Returns the I/O error if the journal cannot be opened for appending.
pub fn fault_sweep_checkpointed(
    seeds: &[u64],
    threads: usize,
    path: &std::path::Path,
) -> std::io::Result<Vec<FaultRow>> {
    use crate::jsonrows::ToJson;
    let n = SCENARIOS.len() * seeds.len();
    crate::parallel::run_checkpointed(
        n,
        threads,
        path,
        FaultRow::to_json,
        fault_row_from_json,
        |i| sweep_point(i, seeds).expect("fault scenario hit a controller bug"),
    )
}

/// Runs one fault point: `scenario`'s schedule at `seed` on the 4x4 mesh
/// under the stride workload, with the network's telemetry in `mode`.
/// Returns the row and, when `mode` attaches telemetry, the network's
/// registry after the last epoch is flushed into it (the telemetry probe
/// reads that; the sweep passes [`TelemetryMode::Off`] and keeps the row).
pub(crate) fn run_point(
    scenario: &str,
    seed: u64,
    mode: TelemetryMode,
) -> Result<(FaultRow, Option<Registry>), FaultError> {
    let grid = Grid::new(4, 4);
    let rect = Rect::new(0, 0, 4, 4);
    let cfg = SimConfig::baseline();
    let spec = mesh_chip(grid, &cfg).expect("mesh build");
    let mut net = Network::new(spec, cfg.clone()).expect("mesh net");
    net.set_telemetry_mode(mode);
    let schedule = FaultSchedule::random(net.spec(), &grid, rect, &scenario_params(scenario), seed);
    let mut ctl = FaultController::new(
        schedule,
        RetryPolicy::default(),
        grid,
        rect,
        cfg,
        ReconfigTiming::default(),
    );

    let mut next_id = 1u64;
    for _ in 0..6_000u64 {
        let now = net.now();
        if now < 2_000 && now.is_multiple_of(6) {
            let dead = ctl.disconnected();
            for i in 0..16u16 {
                let (src, dst) = (NodeId(i), NodeId((i + 5) % 16));
                // Cores on disconnected tiles stop generating traffic.
                if dead.contains(&src) {
                    continue;
                }
                net.inject(Packet::request(next_id, src, dst, 0))
                    .expect("inject");
                next_id += 1;
            }
        }
        net.step();
        ctl.tick(&mut net)?;
        if now >= 2_000 && net.in_flight() == 0 && ctl.settled() {
            break;
        }
    }

    let s = net.totals().stats;
    let st = ctl.stats();
    let ttr: Vec<u64> = st.recoveries.iter().map(|r| r.time_to_recover()).collect();
    let mean_ttr = if ttr.is_empty() {
        0.0
    } else {
        ttr.iter().sum::<u64>() as f64 / ttr.len() as f64
    };
    let row = FaultRow {
        scenario: scenario.to_string(),
        seed,
        offered: s.packets_offered,
        delivered: s.packets,
        delivery_ratio: s.delivery_ratio(),
        nacks: s.nacks,
        retries: s.retries,
        drops: s.drops,
        recoveries: st.recoveries.len() as u64,
        mean_time_to_recover: mean_ttr,
        avg_packet_latency: s.avg_packet_latency(),
        disconnected: ctl.disconnected().len() as u64,
    };
    let _ = net.take_epoch();
    Ok((row, net.telemetry().cloned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_transients_lose_nothing() {
        let a = fault_sweep_par(&[9], 1).unwrap();
        let b = fault_sweep_par(&[9], 1).unwrap();
        assert_eq!(a, b, "same seeds must give byte-identical rows");
        assert_eq!(a.len(), 4);
        let transient = &a[0];
        assert_eq!(transient.scenario, "transient-burst");
        assert_eq!(transient.drops, 0);
        assert!((transient.delivery_ratio - 1.0).abs() < 1e-12);
        let single = &a[1];
        assert_eq!(single.scenario, "single-link");
        assert_eq!(single.recoveries, 1);
        assert!(single.mean_time_to_recover > 0.0);
    }

    #[test]
    fn checkpointed_sweep_survives_a_mid_run_kill() {
        use crate::jsonrows::{rows_json, ToJson};
        let path =
            std::env::temp_dir().join(format!("adaptnoc-fault-sweep-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let reference = fault_sweep_par(&[9], 1).unwrap();
        let full = fault_sweep_checkpointed(&[9], 1, &path).unwrap();
        assert_eq!(full, reference, "journaled sweep matches the plain one");

        // Simulate a kill after two of the four points: truncate the
        // journal and append a torn half-written line.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        let kept: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(
            &path,
            format!("{}\n{{\"i\":3,\"v\":{{\"sc", kept.join("\n")),
        )
        .unwrap();

        let resumed = fault_sweep_checkpointed(&[9], 2, &path).unwrap();
        assert_eq!(
            resumed, reference,
            "resumed rows match the uninterrupted run"
        );
        assert_eq!(
            rows_json(&resumed).to_string_compact(),
            rows_json(&reference).to_string_compact(),
            "JSON output is byte-identical after the kill/resume cycle"
        );
        // Rebuilding every row from its journal encoding is lossless.
        for row in &reference {
            assert_eq!(fault_row_from_json(&row.to_json()).as_ref(), Some(row));
        }
        let _ = std::fs::remove_file(&path);
    }
}
