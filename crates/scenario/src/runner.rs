//! Deterministic scenario execution.
//!
//! Executes an [`ExecPlan`] cycle by cycle: open-loop engines generate
//! traffic per the active phase, the fault controller fires the scripted
//! [`FaultSchedule`](adaptnoc_faults::schedule::FaultSchedule) (with
//! NACK/retry and recovery), and reconfiguration triggers run the
//! pause-and-drain [`RegionReconfig`] protocol. Everything is seeded from
//! the plan, so the same plan + options always produces the same
//! [`ScenarioOutcome`] — byte-identical across thread counts (each run is
//! self-contained) and across telemetry modes (telemetry is
//! observation-only).
//!
//! Measurement follows the open-system convention: `warmup` cycles are
//! discarded, then per-epoch offered/accepted rates, latency quantiles
//! and source-queue depths are sampled. A scenario that reconfigures a
//! region should scope its traffic to regions beforehand — a reconfigured
//! region becomes an isolated subNoC, and cross-region packets still in
//! flight or queued will stall (they show up in the `unroutable` /
//! source-queue numbers rather than crashing the run).

use crate::rules::ExecPlan;
use adaptnoc_core::reconfig::{ReconfigTiming, RegionReconfig};
use adaptnoc_faults::controller::{FaultController, FaultError, RetryPolicy};
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::network::{Network, NetworkError};
use adaptnoc_sim::stats::NetStats;
use adaptnoc_sim::trace::{TraceBuffer, TraceEvent};
use adaptnoc_topology::chip::{build_chip_spec, mesh_chip};
use adaptnoc_topology::chiplet::chiplet_chip;
use adaptnoc_topology::geom::Rect;
use adaptnoc_topology::plan::BuildError;
use adaptnoc_topology::regions::RegionTopology;
use adaptnoc_workloads::open::OpenLoopEngine;
use std::collections::VecDeque;
use std::fmt;

/// How often (cycles) the runner samples NI source-queue depths.
const QUEUE_SAMPLE_INTERVAL: u64 = 64;

/// Per-engine seed spacing (golden-ratio stride, same idiom as the
/// in-tree RNG's `fork`).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Packet-id lanes shared by the source scopes' engines (see
/// [`OpenLoopEngine::with_id_lane`]): the scope's index is the lane, so no
/// two scopes ever hold the same packet id in the network.
const SCOPE_ID_LANES: u64 = 1 << 16;

/// A cooperative cancellation handle for a scenario run.
///
/// Clones share one flag: any clone calling [`cancel`](Self::cancel)
/// makes the running [`run`] return [`RunError::Cancelled`] at its next
/// check point (every `QUEUE_SAMPLE_INTERVAL` cycles and at every
/// epoch boundary), instead of running to the end of the plan. This is
/// what lets a supervisor — Ctrl-C handling in `gen-figures`, a job
/// deadline in the farm daemon — stop a multi-million-cycle run within
/// a bounded number of cycles without killing the thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// Options for one scenario run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Load substituted for `load sweep` placeholders. Required when the
    /// plan uses the placeholder.
    pub load: Option<f64>,
    /// Capacity of an attached packet tracer; 0 disables tracing.
    pub trace_capacity: usize,
    /// Cooperative cancellation: when the token fires, the run stops at
    /// its next sample/epoch boundary with [`RunError::Cancelled`]. The
    /// default token never fires.
    pub cancel: CancelToken,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            load: None,
            trace_capacity: 0,
            cancel: CancelToken::new(),
        }
    }
}

/// One measurement epoch of a scenario run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// Cycle at the end of the epoch.
    pub cycle: u64,
    /// Packets offered (entered source queues) this epoch.
    pub offered: u64,
    /// Packets delivered this epoch.
    pub delivered: u64,
    /// Offered load, packets per node per cycle.
    pub offered_rate: f64,
    /// Accepted throughput, packets per node per cycle.
    pub accepted_rate: f64,
    /// Mean total packet latency, cycles.
    pub avg_latency: f64,
    /// Median total packet latency, cycles.
    pub p50: f64,
    /// 99th-percentile total packet latency, cycles.
    pub p99: f64,
    /// Largest sampled sum of NI source-queue depths this epoch.
    pub source_queue: u64,
}

/// Fault-layer counters observed over the whole run (including warmup):
/// what the scripted schedule fired and what the recovery machinery —
/// NACK/retry plus the self-healing escalation ladder — did about it.
/// A supervisor (the farm daemon) surfaces these as job events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Transient link faults fired.
    pub transients_fired: u64,
    /// Permanent link faults fired.
    pub permanent_links_fired: u64,
    /// Router faults fired.
    pub routers_fired: u64,
    /// Packets re-queued for NACK retry.
    pub retries_queued: u64,
    /// Packets dropped (budget exhausted or endpoint disconnected).
    pub dropped: u64,
    /// Completed fault recoveries (strike → recovered configuration).
    pub recoveries: u64,
    /// Escalation-ladder interventions (re-routes + purges + rollbacks).
    pub escalations: u64,
    /// Stall episodes the ladder closed with progress restored.
    pub guard_recoveries: u64,
    /// Flight-recorder dumps rendered for unrecoverable stalls.
    pub dumps: u64,
}

impl FaultSummary {
    fn from_stats(s: &adaptnoc_faults::controller::FaultStats) -> Self {
        FaultSummary {
            transients_fired: s.transients_fired,
            permanent_links_fired: s.permanent_links_fired,
            routers_fired: s.routers_fired,
            retries_queued: s.retries_queued,
            dropped: s.dropped,
            recoveries: s.recoveries.len() as u64,
            escalations: s.guard.interventions(),
            guard_recoveries: s.guard.recoveries,
            dumps: s.guard.dumps,
        }
    }
}

/// The result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Measured cycles (duration).
    pub cycles: u64,
    /// Packets offered during measurement.
    pub offered: u64,
    /// Packets delivered during measurement.
    pub delivered: u64,
    /// Offered load, packets per node per cycle.
    pub offered_rate: f64,
    /// Accepted throughput, packets per node per cycle.
    pub accepted_rate: f64,
    /// Mean total packet latency, cycles.
    pub avg_latency: f64,
    /// Median total packet latency.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Largest sampled sum of NI source-queue depths (whole run,
    /// including warmup).
    pub max_source_queue: u64,
    /// Source-queue depth at the end of the run.
    pub end_source_queue: u64,
    /// Packets dropped (retry budget exhausted / disconnected endpoints).
    pub drops: u64,
    /// Fault-layer counters (schedule fires, retries, recoveries,
    /// escalation-ladder interventions) over the whole run.
    pub faults: FaultSummary,
    /// Per-epoch measurements.
    pub epochs: Vec<EpochRow>,
    /// Traced events, when [`RunOptions::trace_capacity`] was non-zero.
    pub trace: Vec<TraceEvent>,
}

/// A scenario execution error.
#[derive(Debug)]
pub enum RunError {
    /// Chip spec construction failed.
    Build(BuildError),
    /// The simulator rejected an operation.
    Network(NetworkError),
    /// The fault controller failed.
    Fault(FaultError),
    /// The plan needs a sweep load but none was provided.
    MissingLoad,
    /// The run was cancelled through [`RunOptions::cancel`] before it
    /// finished. Nothing about the simulation is preserved; re-running
    /// the same plan from scratch reproduces the uncancelled outcome.
    Cancelled,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Build(e) => write!(f, "chip build failed: {e}"),
            RunError::Network(e) => write!(f, "network error: {e}"),
            RunError::Fault(e) => write!(f, "fault controller error: {e}"),
            RunError::MissingLoad => {
                f.write_str("plan uses `load sweep` but RunOptions.load is None")
            }
            RunError::Cancelled => f.write_str("scenario run cancelled"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<BuildError> for RunError {
    fn from(e: BuildError) -> Self {
        RunError::Build(e)
    }
}

impl From<NetworkError> for RunError {
    fn from(e: NetworkError) -> Self {
        RunError::Network(e)
    }
}

impl From<FaultError> for RunError {
    fn from(e: FaultError) -> Self {
        RunError::Fault(e)
    }
}

fn source_queue_sum(net: &Network, tiles: usize) -> u64 {
    (0..tiles)
        .map(|n| net.ni_queue_len(adaptnoc_sim::ids::NodeId(n as u16)) as u64)
        .sum()
}

/// Executes a compiled scenario.
///
/// # Errors
///
/// Returns [`RunError`] when the chip cannot be built, the plan needs a
/// sweep load that was not provided, or the fault controller reports an
/// unrecoverable error.
pub fn run(plan: &ExecPlan, opts: &RunOptions) -> Result<ScenarioOutcome, RunError> {
    if plan.uses_sweep_load() && opts.load.is_none() {
        return Err(RunError::MissingLoad);
    }
    let cfg = SimConfig::baseline();
    let grid = plan.grid;
    let tiles = grid.tiles();
    let full = Rect::new(0, 0, grid.width, grid.height);

    // A chiplet scenario runs on the hierarchical fabric; everything
    // else on the flat whole-grid mesh. The compiler already rejected
    // recovery-triggering events on fabrics, so the fault controller's
    // rebuild path (which assumes a mesh) can never fire here.
    let spec = match &plan.fabric {
        Some(cc) => chiplet_chip(cc, &cfg)?,
        None => mesh_chip(grid, &cfg)?,
    };
    let mut net = Network::new(spec, cfg.clone())?;
    if opts.trace_capacity > 0 {
        net.set_tracer(Some(TraceBuffer::all(opts.trace_capacity)));
    }

    let mut fc = FaultController::new(
        plan.faults.clone(),
        RetryPolicy::default(),
        grid,
        full,
        cfg.clone(),
        ReconfigTiming::default(),
    );

    // Engines are created on first use of a source scope and keep their
    // identity (and RNG stream) across phase switches for that scope.
    let mut engines: Vec<OpenLoopEngine> = Vec::new();
    let mut next_traffic = 0usize;
    let mut next_reconfig = 0usize;
    let mut active_reconfig: Option<RegionReconfig> = None;
    let mut queued_reconfigs: VecDeque<crate::rules::ReconfigEvent> = VecDeque::new();

    let total = plan.total_cycles();
    let mut acc = NetStats::default();
    let mut epochs = Vec::new();
    let mut max_queue = 0u64;
    let mut epoch_queue = 0u64;
    let mut measured_cycles = 0u64;

    for cycle in 0..total {
        // 1. Phase switches scheduled for this cycle.
        while next_traffic < plan.traffic.len() && plan.traffic[next_traffic].at <= cycle {
            let ev = &plan.traffic[next_traffic];
            next_traffic += 1;
            let mut spec = ev.spec;
            if ev.sweep_load {
                spec.rate = opts.load.unwrap_or(0.0);
            }
            match engines.iter_mut().find(|e| e.rect() == ev.rect) {
                Some(e) => e.set_spec(spec),
                None => {
                    let seed = plan
                        .seed
                        .wrapping_add(SEED_STRIDE.wrapping_mul(engines.len() as u64 + 1));
                    let lane = engines.len() as u64;
                    engines.push(
                        OpenLoopEngine::new(grid, ev.rect, spec, seed)
                            .with_id_lane(lane, SCOPE_ID_LANES),
                    );
                }
            }
        }

        // 2. Reconfiguration triggers (run one protocol at a time; a
        // trigger firing while another drain is active queues behind it).
        while next_reconfig < plan.reconfigs.len() && plan.reconfigs[next_reconfig].at <= cycle {
            queued_reconfigs.push_back(plan.reconfigs[next_reconfig]);
            next_reconfig += 1;
        }
        if active_reconfig.is_none() {
            if let Some(ev) = queued_reconfigs.pop_front() {
                let target = build_chip_spec(grid, &[RegionTopology::new(ev.rect, ev.kind)], &cfg)?;
                active_reconfig = Some(RegionReconfig::start(
                    &net,
                    &grid,
                    ev.rect,
                    target,
                    None, // slow path: pause, drain, switch
                    ReconfigTiming::default(),
                ));
            }
        }

        // 3. Traffic generation and one simulator cycle.
        for e in engines.iter_mut() {
            e.tick(&mut net);
        }
        net.step();
        fc.tick(&mut net)?;
        if let Some(rc) = active_reconfig.as_mut() {
            if rc.tick(&mut net, &grid)? {
                active_reconfig = None;
            }
        }

        // 4. Sampling and epoch accounting. The sample boundary doubles
        // as the cooperative-cancellation check point: one atomic load
        // every QUEUE_SAMPLE_INTERVAL cycles bounds how long a cancelled
        // run keeps simulating without touching the hot loop.
        if cycle.is_multiple_of(QUEUE_SAMPLE_INTERVAL) {
            if opts.cancel.is_cancelled() {
                return Err(RunError::Cancelled);
            }
            let q = source_queue_sum(&net, tiles);
            max_queue = max_queue.max(q);
            epoch_queue = epoch_queue.max(q);
        }
        let done = cycle + 1;
        if done == plan.warmup {
            // Discard the warmup epoch; measurement starts clean.
            let _ = net.take_epoch();
            epoch_queue = 0;
        } else if done > plan.warmup
            && ((done - plan.warmup).is_multiple_of(plan.epoch) || done == total)
        {
            let report = net.take_epoch();
            let s = &report.stats;
            let cycles = s.cycles.max(1);
            epochs.push(EpochRow {
                cycle: done,
                offered: s.packets_offered,
                delivered: s.packets,
                offered_rate: s.packets_offered as f64 / (cycles as f64 * tiles as f64),
                accepted_rate: s.packets as f64 / (cycles as f64 * tiles as f64),
                avg_latency: if s.packets == 0 {
                    0.0
                } else {
                    s.latency_hist.sum() as f64 / s.packets as f64
                },
                p50: s.p50_latency(),
                p99: s.p99_latency(),
                source_queue: epoch_queue,
            });
            measured_cycles += s.cycles;
            acc.accumulate(s);
            epoch_queue = 0;
            if opts.cancel.is_cancelled() {
                return Err(RunError::Cancelled);
            }
        }
    }

    let end_queue = source_queue_sum(&net, tiles);
    let cycles = measured_cycles.max(1);
    Ok(ScenarioOutcome {
        cycles: measured_cycles,
        offered: acc.packets_offered,
        delivered: acc.packets,
        offered_rate: acc.packets_offered as f64 / (cycles as f64 * tiles as f64),
        accepted_rate: acc.packets as f64 / (cycles as f64 * tiles as f64),
        avg_latency: if acc.packets == 0 {
            0.0
        } else {
            acc.latency_hist.sum() as f64 / acc.packets as f64
        },
        p50: acc.p50_latency(),
        p95: acc.p95_latency(),
        p99: acc.p99_latency(),
        p999: acc.p999_latency(),
        max_source_queue: max_queue,
        end_source_queue: end_queue,
        drops: acc.drops,
        faults: FaultSummary::from_stats(fc.stats()),
        epochs,
        trace: net
            .tracer()
            .map(|t| t.events().cloned().collect())
            .unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::rules::compile;

    fn run_src(src: &str, opts: &RunOptions) -> ScenarioOutcome {
        run(&compile(&parse(src).unwrap()).unwrap(), opts).unwrap()
    }

    #[test]
    fn light_uniform_scenario_delivers_what_it_offers() {
        let out = run_src(
            "grid 4 4; warmup 2K; duration 10K; epoch 2K;\n\
             t=0 uniform load 0.05;",
            &RunOptions::default(),
        );
        assert_eq!(out.epochs.len(), 5);
        assert!(out.offered > 0);
        let ratio = out.accepted_rate / out.offered_rate;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "below saturation accepted ~= offered ({ratio})"
        );
        assert!(out.p99 >= out.p50);
    }

    #[test]
    fn overload_separates_offered_from_accepted() {
        let out = run_src(
            "grid 4 4; warmup 2K; duration 10K; epoch 2K;\n\
             t=0 uniform load 0.8;",
            &RunOptions::default(),
        );
        assert!(
            out.accepted_rate < out.offered_rate * 0.8,
            "0.8 load must saturate a 4x4 mesh: offered {} accepted {}",
            out.offered_rate,
            out.accepted_rate
        );
        assert!(out.max_source_queue > 100, "queues back up in overload");
        assert!(out.end_source_queue > 0);
    }

    /// Two scopes generate at the same rate, so their engines' packet
    /// counters stay level; a glitch then NACKs packets of both. With
    /// per-engine ids counting from 1, the purge-by-id took an innocent
    /// same-numbered packet of the other scope along, and nobody
    /// re-injected or dropped it.
    #[test]
    fn glitch_under_two_equal_rate_scopes_conserves_packets() {
        let out = run_src(
            "grid 4 4; warmup 0; duration 16K; epoch 4K;\n\
             region A 0 0 4 2; region B 0 2 4 2;\n\
             t=0 uniform load 0.2 in region A;\n\
             t=0 uniform load 0.2 in region B;\n\
             t=2K glitch link 5 -> 6 for 1K;\n\
             t=4K glitch link 9 -> 10 for 1K;\n\
             t=8K uniform load 0 in region A;\n\
             t=8K uniform load 0 in region B;",
            &RunOptions::default(),
        );
        assert!(out.faults.retries_queued > 0, "the glitches must NACK");
        assert_eq!(out.end_source_queue, 0, "drained");
        assert_eq!(
            out.offered,
            out.delivered + out.drops,
            "every offered packet is delivered or counted as dropped"
        );
    }

    #[test]
    fn scripted_fault_fires_and_run_survives() {
        let out = run_src(
            "grid 4 4; warmup 1K; duration 8K; epoch 2K;\n\
             t=0 uniform load 0.05;\n\
             t=3K kill router 5;",
            &RunOptions::default(),
        );
        assert!(out.delivered > 0);
    }

    #[test]
    fn reconfigure_trigger_completes() {
        let out = run_src(
            "grid 4 4; warmup 1K; duration 12K; epoch 3K;\n\
             region A 0 0 4 2; region B 0 2 4 2;\n\
             t=0 uniform load 0.05 in region A;\n\
             t=0 uniform load 0.05 in region B;\n\
             t=4K reconfigure region B to cmesh;",
            &RunOptions::default(),
        );
        assert!(out.delivered > 0);
    }

    #[test]
    fn sweep_placeholder_needs_a_load() {
        let plan =
            compile(&parse("sweep load 0.1 to 0.2 step 0.1; t=0 uniform load sweep;").unwrap())
                .unwrap();
        assert!(matches!(
            run(&plan, &RunOptions::default()),
            Err(RunError::MissingLoad)
        ));
    }

    #[test]
    fn runs_are_deterministic() {
        let src = "grid 4 4; warmup 1K; duration 6K; epoch 2K;\n\
                   t=0 zipf 1.1 load 0.2 poisson;\n\
                   t=2K glitch link 1 -> 2 for 500;";
        let base = run_src(src, &RunOptions::default());
        let again = run_src(src, &RunOptions::default());
        assert_eq!(base, again, "same plan, same outcome");
    }

    #[test]
    fn pre_cancelled_run_stops_immediately() {
        let plan = compile(
            &parse("grid 4 4; warmup 1K; duration 1M; epoch 1K; t=0 uniform load 0.05;").unwrap(),
        )
        .unwrap();
        let opts = RunOptions::default();
        opts.cancel.cancel();
        // A megacycle plan returns at the first check point instead of
        // simulating to the end — this completes in microseconds.
        assert!(matches!(run(&plan, &opts), Err(RunError::Cancelled)));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn fault_summary_reports_scripted_fires() {
        let out = run_src(
            "grid 4 4; warmup 1K; duration 8K; epoch 2K;\n\
             t=0 uniform load 0.05;\n\
             t=3K glitch link 1 -> 2 for 500;",
            &RunOptions::default(),
        );
        assert_eq!(out.faults.transients_fired, 1);
        let quiet = run_src(
            "grid 4 4; warmup 1K; duration 4K; epoch 2K; t=0 uniform load 0.05;",
            &RunOptions::default(),
        );
        assert_eq!(quiet.faults, FaultSummary::default());
    }

    #[test]
    fn tracing_captures_events() {
        let out = run_src(
            "grid 4 4; warmup 100; duration 400; epoch 200; t=0 uniform load 0.05;",
            &RunOptions {
                trace_capacity: 4096,
                ..RunOptions::default()
            },
        );
        assert!(!out.trace.is_empty());
    }
}
