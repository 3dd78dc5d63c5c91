//! `adapt_rl`: the paper's control loop. An Adapt-NoC design with three
//! online DQN agents (one per region of the mixed chip), the closed-loop
//! workload, the energy model and the epoch controller, with `Sampled`
//! telemetry exported at every segment end.
//!
//! [`Mirror`] repeats `bench::harness::run_design` call for call — the
//! harness keeps its loop private, and the benchmark has to time each
//! call — and `tests/mirror.rs` pins the two to the same `RunResult`.

use super::{check_drained_network, drain, paper_profiles, sim_values};
use crate::bench::{Bench, Outcome, Scratch};
use crate::digest::Digest;
use crate::stats::median;
use crate::trace::{Call, Tracer};
use adaptnoc_bench::harness::{run_design, traffic_hint, AppMetrics, RunConfig, RunResult};
use adaptnoc_bench::telemetry::write_metrics;
use adaptnoc_core::prelude::*;
use adaptnoc_power::energy::{EnergyBreakdown, EnergyModel};
use adaptnoc_rl::dqn::{DqnAgent, DqnConfig, Transition};
use adaptnoc_rl::mlp::Mlp;
use adaptnoc_sim::prelude::*;
use adaptnoc_topology::prelude::*;
use adaptnoc_workloads::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Timed segments at the default size.
const SEGMENTS: u64 = 24;
/// Epochs per segment.
const SEG_EPOCHS: u64 = 8;
/// Cycles per epoch. The paper's 50K would leave the controller, the
/// agents and the exporters a handful of calls per run; 2.5K makes their
/// work recur often enough to be resolved (and fills a replay buffer
/// past the 100-sample minibatch, so the agents really train).
const EPOCH_CYCLES: u64 = 2_500;
/// Telemetry sampling interval.
const TELEMETRY_EVERY: u32 = 256;
/// Set-up repetitions.
const SETUP_REPS: usize = 21;
/// The paper's headline: Adapt-NoC packet latency against the mesh.
const PAPER_LATENCY_VS_MESH_PCT: f64 = -34.0;

/// Seed of the agents' initial weights and exploration streams. It is
/// part of the configuration under test, not of the seeded inputs: which
/// topologies untrained agents favour decides how much a cycle costs to
/// simulate, and seeding it from `--seed` made the work of two seeds
/// differ by 30 %.
const AGENT_SEED: u64 = 0xADA9;

/// One fresh online-learning agent per region.
pub fn learning_policies(regions: usize) -> Vec<TopologyPolicy> {
    (0..regions as u64)
        .map(|i| TopologyPolicy::Learning(DqnAgent::new(DqnConfig::default(), AGENT_SEED + i)))
        .collect()
}

/// `bench::harness::run_design`, unrolled so each call can be timed.
#[derive(Debug)]
pub struct Mirror {
    kind: DesignKind,
    layout: ChipLayout,
    /// The design under test (public: the benchmark reads its network
    /// and controller).
    pub design: Design,
    wl: Workload,
    model: EnergyModel,
    rc: RunConfig,
    acc: Vec<EpochCounters>,
    energy: EnergyBreakdown,
    measured_cycles: u64,
    epoch: u64,
    /// Digest of every epoch report taken so far.
    pub digest: Digest,
    /// Network statistics summed over the measured epochs.
    pub window: NetStats,
}

impl Mirror {
    /// The construction half of `run_design`.
    ///
    /// # Errors
    ///
    /// Propagates [`ControlError`] from design construction.
    pub fn build(
        kind: DesignKind,
        layout: &ChipLayout,
        profiles: &[AppProfile],
        policies: Vec<TopologyPolicy>,
        rc: &RunConfig,
        tr: &mut Tracer,
    ) -> Result<Mirror, ControlError> {
        assert!(
            !rc.run_to_completion,
            "the mirror covers steady-state runs only"
        );
        let hint = traffic_hint(layout, profiles);
        let design = tr.timed("core.design_build", || {
            Design::build(kind, layout.clone(), &hint, policies, rc.seed)
        })?;
        let mut wl = Workload::new(layout, profiles, rc.seed ^ 0x9e37_79b9);
        wl.set_endless();
        let model = EnergyModel::new(design.net.config());
        let acc = vec![EpochCounters::default(); wl.apps.len()];
        Ok(Mirror {
            kind,
            layout: layout.clone(),
            design,
            wl,
            model,
            rc: *rc,
            acc,
            energy: EnergyBreakdown::default(),
            measured_cycles: 0,
            epoch: 0,
            digest: Digest::default(),
            window: NetStats::default(),
        })
    }

    /// Runs `epochs` whole epochs of the harness loop.
    ///
    /// # Errors
    ///
    /// Propagates [`ControlError`] from the controller.
    pub fn run_epochs(&mut self, epochs: u64, tr: &mut Tracer) -> Result<(), ControlError> {
        for _ in 0..epochs {
            let mut c = tr.clock();
            for _ in 0..self.rc.epoch_cycles {
                self.wl.tick(&mut self.design.net);
                c = tr.lap(Call::WorkloadsTick, c);
                self.design.net.step();
                c = tr.lap(Call::SimStep, c);
                self.design.tick()?;
                c = tr.lap(Call::CoreTick, c);
            }
            self.epoch += 1;
            let boundary = tr.begin("epoch");
            let snaps: Vec<EpochCounters> = self.wl.apps.iter().map(|a| a.epoch).collect();
            let (report, telemetry) = tr.timed("workloads.epoch_telemetry", || {
                self.wl
                    .epoch_telemetry(&mut self.design.net, &self.layout, &self.model)
            });
            self.digest.net_stats(&report.stats);
            if self.epoch > self.rc.warmup_epochs {
                self.measured_cycles += report.static_cycles.cycles;
                let e = tr.timed("power.energy", || self.model.energy(&report));
                self.energy.accumulate(&e);
                for (a, s) in self.acc.iter_mut().zip(&snaps) {
                    merge(a, s);
                }
                self.window.accumulate(&report.stats);
            }
            tr.timed("core.on_epoch", || {
                self.design.on_epoch(&report, &telemetry)
            })?;
            tr.end(boundary);
        }
        Ok(())
    }

    /// The reduction half of `run_design`.
    pub fn result(&self) -> RunResult {
        let acc = &self.acc;
        let apps: Vec<AppMetrics> = self
            .wl
            .apps
            .iter()
            .zip(acc)
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
        let (selections, reconfigs) = match self.design.controller() {
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
        RunResult {
            design: self.kind,
            cycles: self.measured_cycles,
            network_latency: wsum(&|e| e.avg_network_latency()),
            queuing_latency: wsum(&|e| e.avg_queuing_latency()),
            hops: wsum(&|e| e.avg_hops()),
            energy: self.energy,
            execution_time: None,
            apps,
            selections,
            reconfigs,
        }
    }
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

fn fold_result(d: &mut Digest, r: &RunResult) {
    d.u64(r.cycles);
    for v in [
        r.network_latency,
        r.queuing_latency,
        r.hops,
        r.energy.static_j,
        r.energy.dynamic_j,
    ] {
        d.f64(v);
    }
    for a in &r.apps {
        d.u64(a.delivered);
        d.u64(a.requests);
        d.f64(a.network_latency);
        d.f64(a.queuing_latency);
    }
    for s in r.selections.iter().flatten() {
        s.iter().for_each(|&x| d.f64(x));
    }
    d.u64(r.reconfigs);
}

/// Runs the workload.
pub fn run(b: &mut Bench) -> Outcome {
    let layout = ChipLayout::paper_mixed();
    let profiles = paper_profiles();
    let segments = b.scaled(SEGMENTS, 4);
    let rc = RunConfig {
        epoch_cycles: EPOCH_CYCLES,
        epochs: segments * SEG_EPOCHS,
        warmup_epochs: SEG_EPOCHS,
        seed: b.seed,
        run_to_completion: false,
        max_cycles: u64::MAX,
    };
    let scratch = Scratch::new("adapt_rl").expect("scratch directory");
    let mut out = Outcome::default();

    let mut m = b.setup(SETUP_REPS, |tr| {
        let policies = learning_policies(layout.regions.len());
        let mut m = Mirror::build(DesignKind::AdaptNoc, &layout, &profiles, policies, &rc, tr)
            .expect("the paper chip builds");
        m.design
            .net
            .set_telemetry_mode(TelemetryMode::Sampled(TELEMETRY_EVERY));
        m
    });

    // Warm-up segment: the harness's warm-up epochs.
    m.run_epochs(SEG_EPOCHS, &mut Tracer::new(false))
        .expect("warm-up epochs");

    let mut export_bytes = 0u64;
    let mut decisions = 0u64;
    for _ in 0..segments {
        b.segment("control_loop", |tr| {
            m.run_epochs(SEG_EPOCHS, tr).expect("control loop");
            let reg = m.design.net.telemetry().expect("telemetry is on");
            let snap = tr.timed("telemetry.snapshot", || reg.snapshot());
            let (jsonl, prom) = tr
                .timed("telemetry.export", || write_metrics(scratch.path(), reg))
                .expect("telemetry export");
            export_bytes = [jsonl, prom]
                .iter()
                .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
                .sum();
            decisions = snap
                .counters
                .iter()
                .filter(|c| c.name == "adaptnoc_rl_decisions_total")
                .map(|c| c.value)
                .sum();
        });
    }

    let result = m.result();
    out.sim_cycles = result.cycles;
    sim_values(&mut out.values, &m.window);
    out.values
        .set("telemetry.export_bytes", export_bytes as f64);
    out.values.set("rl.decisions", decisions as f64);
    out.values
        .set("power.energy_uj", result.energy.total_j() * 1e6);
    out.values.set("core.reconfigs", result.reconfigs as f64);
    let ctl = m.design.controller().expect("adaptive design");
    out.values.set(
        "core.reconfig_cycles",
        ctl.regions.iter().map(|r| r.reconfig_cycles).sum::<u64>() as f64,
    );
    out.values.set(
        "rl.train_steps",
        ctl.regions
            .iter()
            .map(|r| match &r.policy {
                TopologyPolicy::Learning(a) => a.iterations(),
                _ => 0,
            })
            .sum::<u64>() as f64,
    );

    // Stop issuing; keep the controller ticking so a reconfiguration in
    // progress finishes and releases the interfaces it paused.
    let Design { net, runtime, .. } = &mut m.design;
    drain(net, |net| {
        if let DesignRuntime::Adapt(ctl) = runtime {
            ctl.tick(net).expect("controller tick during the drain");
        }
    });
    check_drained_network(&mut out, &m.design.net);

    let mut digest = m.digest;
    fold_result(&mut digest, &result);
    digest.net_stats(&m.design.net.totals().stats);
    out.digest = digest.value();

    if b.tr.on() {
        probes(&mut out, &layout, &profiles, &rc, &result);
    }
    out
}

/// Layer probes and the accuracy row (traced run only): small timed
/// loops over public functions whose cost inside the control loop is
/// nested in `core.on_epoch_s`.
fn probes(
    out: &mut Outcome,
    layout: &ChipLayout,
    profiles: &[AppProfile],
    rc: &RunConfig,
    adapt: &RunResult,
) {
    let mut rng = Rng::seed_from_u64(rc.seed);

    // Mlp::forward is ~100 ns: time batches, not calls.
    let mlp = Mlp::paper_dqn(&mut rng);
    let state: Vec<f64> = (0..mlp.input_dim()).map(|_| rng.random_f64()).collect();
    let per_call: Vec<f64> = (0..101)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..64 {
                black_box(mlp.forward(black_box(&state)));
            }
            t.elapsed().as_nanos() as f64 / 64.0
        })
        .collect();
    out.values.set("rl.forward_ns_p50", median(&per_call));

    let cfg = DqnConfig::default();
    let mut agent = DqnAgent::new(cfg, rc.seed);
    let random_state =
        |rng: &mut Rng| -> Vec<f64> { (0..cfg.state_dim).map(|_| rng.random_f64()).collect() };
    for _ in 0..cfg.replay_capacity {
        agent.observe(Transition {
            state: random_state(&mut rng),
            action: rng.random_below(cfg.actions),
            reward: -rng.random_f64(),
            next_state: random_state(&mut rng),
        });
    }
    let steps: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            black_box(agent.train_step());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.values.set("rl.train_step_us_p50", median(&steps));

    let sim_cfg = SimConfig::adapt_noc();
    let mut builds = Vec::new();
    for kind in TopologyKind::ACTIONS {
        let regions: Vec<RegionTopology> = layout
            .regions
            .iter()
            .map(|r| RegionTopology::new(r.rect, kind))
            .collect();
        for _ in 0..50 {
            let t = Instant::now();
            black_box(build_chip_spec(layout.grid, &regions, &sim_cfg)).expect("paper regions");
            builds.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    out.values
        .set("topology.build_chip_spec_us_p50", median(&builds));

    // Accuracy: the same seed on the mesh baseline, over a window long
    // enough for a steady closed-loop latency.
    let base_rc = RunConfig {
        epochs: 3 * SEG_EPOCHS,
        ..*rc
    };
    let base =
        run_design(DesignKind::Baseline, layout, profiles, vec![], &base_rc).expect("baseline run");
    out.values.set(
        "accuracy.latency_vs_mesh_pct",
        (adapt.packet_latency() / base.packet_latency() - 1.0) * 100.0,
    );
    out.values.set(
        "accuracy.paper_latency_vs_mesh_pct",
        PAPER_LATENCY_VS_MESH_PCT,
    );
}
