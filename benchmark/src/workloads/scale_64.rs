//! `scale_64`: chip scale. A flat 64x64 mesh (4096 routers, a working
//! set far beyond cache) stepped idle, then under light uniform load,
//! then drained; then the 4x4-chips-of-16x16 chiplet fabric under
//! cross-chip load, then drained. Set-up (spec build, table fill,
//! `Network::new`) and memory are large enough to matter here, and the
//! routers are mostly idle, so the active-set worklists dominate instead
//! of the VC scan.

use super::{check_drained_network, sim_values};
use crate::bench::{Bench, Outcome};
use crate::digest::Digest;
use crate::trace::{Call, Tracer};
use adaptnoc_sim::prelude::*;
use adaptnoc_topology::chiplet::{chiplet_chip, ChipletConfig};
use adaptnoc_topology::prelude::*;
use adaptnoc_workloads::traffic::{Pattern, SyntheticInjector};

/// Idle segments on the mesh, and cycles in each.
const IDLE: (u64, u64) = (8, 10_000);
/// Loaded segments on the mesh, and cycles in each (uniform, 0.01
/// packets per node per cycle: well below the 64x64 saturation point).
const LOADED: (u64, u64) = (24, 50);
/// Loaded segments on the chiplet fabric, and cycles in each (cross-chip,
/// 0.001: every packet crosses a SerDes boundary, and eight boundary
/// links carry all of it).
const FABRIC: (u64, u64) = (12, 300);

fn step_cycles(
    tr: &mut Tracer,
    net: &mut Network,
    mut inj: Option<&mut SyntheticInjector>,
    cycles: u64,
) {
    let mut c = tr.clock();
    for _ in 0..cycles {
        if let Some(inj) = inj.as_deref_mut() {
            inj.tick(net);
            c = tr.lap(Call::WorkloadsInject, c);
        }
        net.step();
        c = tr.lap(Call::SimStep, c);
    }
}

/// The state shared by the two fabrics' runs.
struct Books {
    digest: Digest,
    window: NetStats,
    drain_cycles: u64,
}

impl Books {
    /// Closes a segment: takes the epoch and folds it.
    fn close(&mut self, tr: &mut Tracer, net: &mut Network) {
        let report = tr.timed("sim.take_epoch", || net.take_epoch());
        self.digest.net_stats(&report.stats);
        self.window.accumulate(&report.stats);
    }
}

/// Loaded segments, then a timed drain, then the end-of-run checks.
fn load_and_drain(
    b: &mut Bench,
    out: &mut Outcome,
    books: &mut Books,
    net: &mut Network,
    inj: &mut SyntheticInjector,
    phase: (&'static str, &'static str),
    (segments, cycles): (u64, u64),
) {
    // Warm-up: fill the pipeline before timing.
    step_cycles(&mut Tracer::new(false), net, Some(inj), 4 * cycles);
    let _ = net.take_epoch();
    for _ in 0..b.scaled(segments, 2) {
        b.segment(phase.0, |tr| {
            step_cycles(tr, net, Some(inj), cycles);
            books.close(tr, net);
        });
    }
    b.segment(phase.1, |tr| {
        let span = tr.begin("sim.drain");
        books.drain_cycles += super::drain(net, |_| {});
        tr.end(span);
        books.close(tr, net);
    });
    check_drained_network(out, net);
    books.digest.net_stats(&net.totals().stats);
}

/// Runs the workload.
pub fn run(b: &mut Bench) -> Outcome {
    let cfg = SimConfig::baseline();
    let seed = b.seed;
    let mut out = Outcome::default();
    let mut books = Books {
        digest: Digest::default(),
        window: NetStats::default(),
        drain_cycles: 0,
    };

    // One construction each: a 64x64 set-up takes seconds.
    let grid = Grid::new(64, 64);
    let mut net = b.setup(1, |tr| {
        let spec = tr
            .timed("topology.spec_build", || mesh_chip(grid, &cfg))
            .expect("the 64x64 mesh builds");
        tr.timed("sim.new", || Network::new(spec, cfg.clone()))
            .expect("a validated spec makes a network")
    });

    step_cycles(&mut Tracer::new(false), &mut net, None, IDLE.1);
    let _ = net.take_epoch();
    for _ in 0..b.scaled(IDLE.0, 2) {
        b.segment("mesh_idle", |tr| {
            step_cycles(tr, &mut net, None, IDLE.1);
            books.close(tr, &mut net);
        });
    }
    if b.tr.on() {
        let idle_s = b.tr.total_s(Call::SimStep.name());
        let idle_steps = b.tr.count(Call::SimStep.name());
        out.values
            .set("sim.idle_step_ns", idle_s * 1e9 / idle_steps.max(1) as f64);
    }

    let full = Rect::new(0, 0, grid.width, grid.height);
    let mut inj = SyntheticInjector::new(grid, full, Pattern::Uniform, 0.01, seed);
    load_and_drain(
        b,
        &mut out,
        &mut books,
        &mut net,
        &mut inj,
        ("mesh_loaded", "mesh_drain"),
        LOADED,
    );
    drop(net);

    let cc = ChipletConfig::new(4, 4, 16, 16);
    let mut net = b.setup(1, |tr| {
        let spec = tr
            .timed("topology.spec_build", || chiplet_chip(&cc, &cfg))
            .expect("the chiplet fabric builds");
        tr.timed("sim.new", || Network::new(spec, cfg.clone()))
            .expect("a validated spec makes a network")
    });
    let pattern = Pattern::CrossChip {
        chip_w: cc.chip_w,
        chip_h: cc.chip_h,
    };
    let mut inj = SyntheticInjector::new(cc.grid(), full, pattern, 0.001, seed ^ 0xC41F);
    load_and_drain(
        b,
        &mut out,
        &mut books,
        &mut net,
        &mut inj,
        ("fabric_loaded", "fabric_drain"),
        FABRIC,
    );

    out.sim_cycles = books.window.cycles;
    sim_values(&mut out.values, &books.window);
    out.values
        .set("sim.drain_cycles", books.drain_cycles as f64);
    out.digest = books.digest.value();
    out
}
