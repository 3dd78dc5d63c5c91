//! `mixed_closed`: the historical `speed` headline. The paper's mixed
//! 8x8 chip (one CPU and two GPU regions) on a plain mesh, driven by the
//! closed-loop workload engine with telemetry off; every cycle is one
//! `Workload::tick` and one `Network::step`.

use super::{check_drained_network, drain, paper_profiles, sim_values};
use crate::bench::{Bench, Outcome};
use crate::digest::Digest;
use crate::trace::{Call, Tracer};
use adaptnoc_core::prelude::*;
use adaptnoc_sim::prelude::*;
use adaptnoc_topology::prelude::*;
use adaptnoc_workloads::prelude::*;

/// Timed segments at the default size.
const SEGMENTS: u64 = 24;
/// Cycles per segment (the paper's control window is 50K; shortened so
/// the whole benchmark fits its time cap).
const SEG_CYCLES: u64 = 20_000;
/// Set-up repetitions (one set-up is about a millisecond).
const SETUP_REPS: usize = 21;

fn run_cycles(tr: &mut Tracer, net: &mut Network, wl: &mut Workload, cycles: u64) {
    let mut c = tr.clock();
    for _ in 0..cycles {
        wl.tick(net);
        c = tr.lap(Call::WorkloadsTick, c);
        net.step();
        c = tr.lap(Call::SimStep, c);
    }
}

/// Runs the workload.
pub fn run(b: &mut Bench) -> Outcome {
    let cfg = SimConfig::baseline();
    let layout = ChipLayout::paper_mixed();
    let profiles = paper_profiles();
    let seed = b.seed;
    let (mut net, mut wl) = b.setup(SETUP_REPS, |tr| {
        let spec = tr
            .timed("topology.spec_build", || mesh_chip(layout.grid, &cfg))
            .expect("the paper mesh builds");
        let net = tr
            .timed("sim.new", || Network::new(spec, cfg.clone()))
            .expect("a validated spec makes a network");
        let mut wl = Workload::new(&layout, &profiles, seed);
        wl.set_endless();
        (net, wl)
    });

    // Warm-up: fill the buffers and the closed loop's outstanding slots.
    run_cycles(&mut Tracer::new(false), &mut net, &mut wl, SEG_CYCLES);
    let _ = net.take_epoch();

    let mut out = Outcome::default();
    let mut digest = Digest::default();
    let mut window = NetStats::default();
    for _ in 0..b.scaled(SEGMENTS, 4) {
        let report = b.segment("closed_loop", |tr| {
            run_cycles(tr, &mut net, &mut wl, SEG_CYCLES);
            tr.timed("sim.take_epoch", || net.take_epoch())
        });
        digest.net_stats(&report.stats);
        window.accumulate(&report.stats);
    }
    out.sim_cycles = window.cycles;
    sim_values(&mut out.values, &window);

    // Stop issuing, let every packet out, then check the books.
    drain(&mut net, |_| {});
    check_drained_network(&mut out, &net);
    digest.net_stats(&net.totals().stats);
    out.digest = digest.value();

    if b.tr.on() {
        stage_profile(&mut out, seed);
    }
    out
}

/// The program-reported stage spans: a short separate pass under
/// `Sampled(64)` telemetry, as `speed --json` does, so sampling cost
/// never touches the timed run.
fn stage_profile(out: &mut Outcome, seed: u64) {
    let cfg = SimConfig::baseline();
    let layout = ChipLayout::paper_mixed();
    let spec = mesh_chip(layout.grid, &cfg).expect("the paper mesh builds");
    let mut net = Network::new(spec, cfg).expect("a validated spec makes a network");
    net.set_telemetry_mode(TelemetryMode::Sampled(64));
    let mut wl = Workload::new(&layout, &paper_profiles(), seed);
    wl.set_endless();
    run_cycles(&mut Tracer::new(false), &mut net, &mut wl, SEG_CYCLES);
    let _ = net.take_epoch(); // flush the tail into the registry
    let snap = net.telemetry().expect("telemetry attached").snapshot();
    for (metric, span) in [
        ("sim.stage.rc_va_ns", "adaptnoc_sim_stage_rc_va_seconds"),
        ("sim.stage.sa_st_ns", "adaptnoc_sim_stage_sa_st_seconds"),
        ("sim.stage.link_ns", "adaptnoc_sim_stage_link_seconds"),
        (
            "sim.stage.ni_inject_ns",
            "adaptnoc_sim_stage_ni_inject_seconds",
        ),
        ("sim.stage.merge_ns", "adaptnoc_sim_stage_merge_seconds"),
    ] {
        if let Some(s) = snap.spans.iter().find(|s| s.name == span && s.count > 0) {
            out.values.set(metric, s.total_ns as f64 / s.count as f64);
        }
    }
}
