//! The experiment harness: runs one design on one workload and collects
//! every metric the paper's figures report.

use adaptnoc_core::prelude::*;
use adaptnoc_power::energy::{EnergyBreakdown, EnergyModel};
use adaptnoc_sim::health::{Watchdog, WatchdogConfig};
use adaptnoc_topology::prelude::*;
use adaptnoc_workloads::prelude::*;
use std::time::{Duration, Instant};

/// Simulated cycles without a delivery (while traffic is in flight)
/// before [`run_design`] declares its run wedged.
const WATCHDOG_WINDOW_CYCLES: u64 = 100_000;

/// Wall-clock budget of one [`run_design`] run, for wedges the cycle
/// window cannot see: a run that still makes token progress but will
/// never finish.
const WALL_BUDGET: Duration = Duration::from_secs(600);

/// Scale and measurement parameters of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Reconfiguration epoch length in cycles (50K in the paper).
    pub epoch_cycles: u64,
    /// Measured epochs after warmup.
    pub epochs: u64,
    /// Warmup epochs excluded from statistics.
    pub warmup_epochs: u64,
    /// RNG seed.
    pub seed: u64,
    /// Run until all applications hit their instruction targets
    /// (execution-time and energy experiments).
    pub run_to_completion: bool,
    /// Hard cycle cap.
    pub max_cycles: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            epoch_cycles: 50_000,
            epochs: 4,
            warmup_epochs: 1,
            seed: 42,
            run_to_completion: false,
            max_cycles: 3_000_000,
        }
    }
}

impl RunConfig {
    /// A fast configuration for smoke tests.
    pub fn quick() -> Self {
        RunConfig {
            epoch_cycles: 10_000,
            epochs: 2,
            warmup_epochs: 1,
            ..Default::default()
        }
    }
}

/// Per-application metrics of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppMetrics {
    /// Benchmark name.
    pub name: String,
    /// Mean network latency, cycles.
    pub network_latency: f64,
    /// Mean queuing latency, cycles.
    pub queuing_latency: f64,
    /// Mean hop count.
    pub hops: f64,
    /// Delivered packets in the measured window.
    pub delivered: u64,
    /// Requests issued.
    pub requests: u64,
}

impl AppMetrics {
    /// Mean total packet latency (network + queuing).
    pub fn packet_latency(&self) -> f64 {
        self.network_latency + self.queuing_latency
    }
}

/// The result of one design/workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Which design ran.
    pub design: DesignKind,
    /// Cycles measured (post-warmup).
    pub cycles: u64,
    /// Delivery-weighted mean network latency, cycles.
    pub network_latency: f64,
    /// Delivery-weighted mean queuing latency, cycles.
    pub queuing_latency: f64,
    /// Delivery-weighted mean hop count.
    pub hops: f64,
    /// NoC energy over the measured window.
    pub energy: EnergyBreakdown,
    /// Completion time when run to completion.
    pub execution_time: Option<u64>,
    /// Per-application metrics.
    pub apps: Vec<AppMetrics>,
    /// Topology-selection breakdown per region (adaptive designs).
    pub selections: Option<Vec<[f64; 4]>>,
    /// Completed reconfigurations (adaptive designs).
    pub reconfigs: u64,
}

impl RunResult {
    /// Mean total packet latency.
    pub fn packet_latency(&self) -> f64 {
        self.network_latency + self.queuing_latency
    }

    /// Energy-delay product over the measured window (J·s).
    pub fn edp(&self) -> f64 {
        let t = self.execution_time.unwrap_or(self.cycles) as f64 * 1e-9;
        self.energy.total_j() * t
    }
}

/// Derives the Shortcut design's traffic hint (core→MC flows weighted by
/// each profile's memory intensity).
pub fn traffic_hint(layout: &ChipLayout, profiles: &[AppProfile]) -> Vec<TrafficWeight> {
    let mut hint = Vec::new();
    for (region, profile) in layout.regions.iter().zip(profiles) {
        let ph = &profile.phases[0];
        let w = ph.mlp as f64 * ph.mc_fraction / (ph.think_time as f64 + 1.0);
        for c in region.rect.iter() {
            let n = layout.grid.node(c);
            if n != region.mc {
                hint.push(TrafficWeight {
                    src: n,
                    dst: region.mc,
                    weight: w,
                });
                hint.push(TrafficWeight {
                    src: region.mc,
                    dst: n,
                    weight: w * 2.0,
                });
            }
        }
    }
    hint
}

/// Runs one design on one workload.
///
/// Adaptive designs need one policy per region; others take an empty
/// vector.
///
/// # Errors
///
/// Propagates [`ControlError`] from design construction or reconfiguration.
pub fn run_design(
    kind: DesignKind,
    layout: &ChipLayout,
    profiles: &[AppProfile],
    policies: Vec<TopologyPolicy>,
    rc: &RunConfig,
) -> Result<RunResult, ControlError> {
    let hint = traffic_hint(layout, profiles);
    let mut design = Design::build(kind, layout.clone(), &hint, policies, rc.seed)?;
    let mut wl = Workload::new(layout, profiles, rc.seed ^ 0x9e3779b9);
    if !rc.run_to_completion {
        // Steady-state measurement: applications must keep generating
        // traffic for the whole window.
        wl.set_endless();
    }
    let model = EnergyModel::new(design.net.config());

    let n_apps = wl.apps.len();
    let mut acc: Vec<EpochCounters> = vec![EpochCounters::default(); n_apps];
    let mut energy = EnergyBreakdown::default();
    let mut measured_cycles = 0u64;
    let mut epoch = 0u64;
    let mut cycle = 0u64;

    // Campaign points run unattended for millions of cycles; a generous
    // watchdog turns a silent wedge into an immediate, diagnosable panic
    // instead of an hour of spinning into `max_cycles`.
    let mut watchdog = Watchdog::new(WatchdogConfig {
        window: WATCHDOG_WINDOW_CYCLES,
        ..WatchdogConfig::default()
    });
    let check_interval = watchdog.config().check_interval;
    let started = Instant::now();

    loop {
        wl.tick(&mut design.net);
        design.net.step();
        design.tick()?;
        let now = design.net.now();
        let stall = match watchdog.observe(&design.net) {
            Some(report) => Some(("sim_stall", report.to_string())),
            // The wall clock is read once per watchdog check interval.
            None if now.is_multiple_of(check_interval) && started.elapsed() > WALL_BUDGET => {
                Some((
                    "wall_clock",
                    format!("wall-clock budget of {WALL_BUDGET:?} exceeded after {now} cycles"),
                ))
            }
            None => None,
        };
        if let Some((stall_kind, detail)) = stall {
            if let Some(reg) = design.net.telemetry_mut() {
                // The event carries the first line; the panic carries all.
                let first = detail.lines().next().unwrap_or("stall");
                reg.event(
                    "harness.watchdog",
                    now,
                    &[("kind", stall_kind), ("detail", first)],
                );
            }
            panic!("harness run wedged ({kind} design): {detail}");
        }
        cycle += 1;

        if cycle.is_multiple_of(rc.epoch_cycles) {
            epoch += 1;
            let snaps: Vec<EpochCounters> = wl.apps.iter().map(|a| a.epoch).collect();
            let (report, telemetry) = wl.epoch_telemetry(&mut design.net, layout, &model);
            let measure = epoch > rc.warmup_epochs || rc.run_to_completion;
            if measure {
                measured_cycles += report.static_cycles.cycles;
                energy.accumulate(&model.energy(&report));
                for (a, s) in acc.iter_mut().zip(&snaps) {
                    merge(a, s);
                }
            }
            design.on_epoch(&report, &telemetry)?;
            if !rc.run_to_completion && epoch >= rc.warmup_epochs + rc.epochs {
                break;
            }
        }
        if rc.run_to_completion && wl.finished() {
            // Final partial epoch.
            let snaps: Vec<EpochCounters> = wl.apps.iter().map(|a| a.epoch).collect();
            let (report, _telemetry) = wl.epoch_telemetry(&mut design.net, layout, &model);
            measured_cycles += report.static_cycles.cycles;
            energy.accumulate(&model.energy(&report));
            for (a, s) in acc.iter_mut().zip(&snaps) {
                merge(a, s);
            }
            break;
        }
        if cycle >= rc.max_cycles {
            break;
        }
    }

    let apps: Vec<AppMetrics> = wl
        .apps
        .iter()
        .zip(&acc)
        .map(|(app, e)| AppMetrics {
            name: app.profile.name.to_string(),
            network_latency: e.avg_network_latency(),
            queuing_latency: e.avg_queuing_latency(),
            hops: e.avg_hops(),
            delivered: e.delivered,
            requests: e.requests,
        })
        .collect();
    let total_delivered: u64 = acc.iter().map(|e| e.delivered).sum();
    let wsum = |f: &dyn Fn(&EpochCounters) -> f64| -> f64 {
        if total_delivered == 0 {
            return 0.0;
        }
        acc.iter().map(|e| f(e) * e.delivered as f64).sum::<f64>() / total_delivered as f64
    };

    let (selections, reconfigs) = match design.controller() {
        Some(ctl) => (
            Some(
                (0..ctl.regions.len())
                    .map(|i| ctl.selection_breakdown(i))
                    .collect(),
            ),
            ctl.regions.iter().map(|r| r.reconfig_count).sum(),
        ),
        None => (None, 0),
    };

    Ok(RunResult {
        design: kind,
        cycles: measured_cycles,
        network_latency: wsum(&|e| e.avg_network_latency()),
        queuing_latency: wsum(&|e| e.avg_queuing_latency()),
        hops: wsum(&|e| e.avg_hops()),
        energy,
        execution_time: if rc.run_to_completion {
            wl.execution_time()
        } else {
            None
        },
        apps,
        selections,
        reconfigs,
    })
}

fn merge(a: &mut EpochCounters, s: &EpochCounters) {
    a.requests += s.requests;
    a.mc_requests += s.mc_requests;
    a.coherence_sent += s.coherence_sent;
    a.replies += s.replies;
    a.insts += s.insts;
    a.l1i += s.l1i;
    a.net_lat_sum += s.net_lat_sum;
    a.queue_lat_sum += s.queue_lat_sum;
    a.hops_sum += s.hops_sum;
    a.delivered += s.delivered;
    a.data_delivered += s.data_delivered;
    a.coherence_delivered += s.coherence_delivered;
    a.inj_queue_sum += s.inj_queue_sum;
    a.inj_queue_samples += s.inj_queue_samples;
}

/// Fixed-topology policies for an adaptive design (one per region).
pub fn fixed_policies(kinds: &[TopologyKind]) -> Vec<TopologyPolicy> {
    kinds.iter().map(|&k| TopologyPolicy::Fixed(k)).collect()
}

/// Determines the oracle static topology per region (Adapt-NoC-noRL):
/// evaluates each candidate on an isolated single-region chip and keeps
/// the one with the lowest mean packet latency (the paper's "optimal
/// performance among all topology choices").
///
/// The `region x candidate-topology` evaluation grid is fanned across
/// `threads` workers. Every evaluation is an isolated single-region run,
/// and the per-region argmin scans candidates in `TopologyKind::ACTIONS`
/// order (ties keep the earlier kind), so the result is the same at any
/// thread count.
///
/// # Errors
///
/// Propagates [`ControlError`] from the evaluation runs.
pub fn oracle_policies_par(
    layout: &ChipLayout,
    profiles: &[AppProfile],
    rc: &RunConfig,
    threads: usize,
) -> Result<Vec<TopologyPolicy>, ControlError> {
    let kinds = TopologyKind::ACTIONS;
    let regions = layout.regions.len().min(profiles.len());
    let lats = crate::parallel::run_indexed(regions * kinds.len(), threads, |i| {
        let (region, profile) = (&layout.regions[i / kinds.len()], &profiles[i / kinds.len()]);
        let kind = kinds[i % kinds.len()];
        let single = ChipLayout::single(region.rect, profile.class == AppClass::Gpu);
        run_design(
            DesignKind::AdaptNocNoRl,
            &single,
            std::slice::from_ref(profile),
            fixed_policies(&[kind]),
            rc,
        )
        .map(|r| r.packet_latency())
    });
    let lats = lats.into_iter().collect::<Result<Vec<f64>, _>>()?;
    Ok(lats
        .chunks(kinds.len())
        .map(|per_region| {
            let mut best = (f64::INFINITY, TopologyKind::Mesh);
            for (kind, &lat) in kinds.iter().zip(per_region) {
                if lat < best.0 {
                    best = (lat, *kind);
                }
            }
            TopologyPolicy::Fixed(best.1)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunConfig {
        RunConfig {
            epoch_cycles: 5_000,
            epochs: 2,
            warmup_epochs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_run_produces_metrics() {
        let layout = ChipLayout::single(Rect::new(0, 0, 4, 4), false);
        let profiles = vec![by_name("CA").unwrap()];
        let r = run_design(DesignKind::Baseline, &layout, &profiles, vec![], &quick()).unwrap();
        assert_eq!(r.design, DesignKind::Baseline);
        assert!(r.network_latency > 0.0);
        assert!(r.hops > 0.0);
        assert!(r.energy.total_j() > 0.0);
        assert!(r.energy.static_j > 0.0);
        assert!(r.energy.dynamic_j > 0.0);
        assert_eq!(r.apps.len(), 1);
        assert_eq!(r.apps[0].name, "CA");
        assert!(r.apps[0].delivered > 0);
        assert!(r.selections.is_none());
    }

    #[test]
    fn adaptive_run_records_selection() {
        let layout = ChipLayout::single(Rect::new(0, 0, 4, 4), false);
        let profiles = vec![by_name("BS").unwrap()];
        let r = run_design(
            DesignKind::AdaptNocNoRl,
            &layout,
            &profiles,
            fixed_policies(&[TopologyKind::Cmesh]),
            &quick(),
        )
        .unwrap();
        let sel = r.selections.unwrap();
        assert_eq!(sel[0][TopologyKind::Cmesh.action_index()], 1.0);
        assert!(r.reconfigs >= 1);
    }

    #[test]
    fn run_to_completion_reports_execution_time() {
        let layout = ChipLayout::single(Rect::new(0, 0, 4, 4), false);
        let mut profile = by_name("CA").unwrap();
        profile.insts_per_core = 2_000.0;
        let rc = RunConfig {
            run_to_completion: true,
            max_cycles: 1_000_000,
            ..quick()
        };
        let r = run_design(DesignKind::Baseline, &layout, &[profile], vec![], &rc).unwrap();
        assert!(r.execution_time.is_some());
        assert!(r.execution_time.unwrap() > 0);
    }

    #[test]
    fn mixed_workload_runs_all_designs() {
        let layout = ChipLayout::paper_mixed();
        let profiles = vec![
            by_name("BS").unwrap(),
            by_name("HS").unwrap(),
            by_name("NW").unwrap(),
        ];
        let rc = RunConfig {
            epoch_cycles: 4_000,
            epochs: 1,
            warmup_epochs: 1,
            ..Default::default()
        };
        for kind in DesignKind::ALL {
            let policies = if kind.is_adaptive() {
                fixed_policies(&[TopologyKind::Cmesh, TopologyKind::Tree, TopologyKind::Torus])
            } else {
                vec![]
            };
            let r = run_design(kind, &layout, &profiles, policies, &rc).unwrap();
            assert!(
                r.network_latency > 0.0,
                "{kind} produced no latency measurements"
            );
        }
    }

    #[test]
    fn oracle_picks_some_topology() {
        let layout = ChipLayout::single(Rect::new(0, 0, 4, 4), false);
        let profiles = vec![by_name("BS").unwrap()];
        let rc = RunConfig {
            epoch_cycles: 3_000,
            epochs: 1,
            warmup_epochs: 1,
            ..Default::default()
        };
        let p = oracle_policies_par(&layout, &profiles, &rc, 1).unwrap();
        assert_eq!(p.len(), 1);
        assert!(matches!(p[0], TopologyPolicy::Fixed(_)));
    }
}
