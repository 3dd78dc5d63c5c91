//! The five workloads. Each takes a [`Bench`] (seed, size, tracer,
//! timing harness), does its set-up through [`Bench::setup`], its timed
//! work through [`Bench::segment`], checks its own outputs and returns
//! an [`Outcome`].

use crate::bench::{Bench, Outcome};
use crate::calib::Kernel;
use crate::metrics::Values;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::stats::NetStats;

pub mod adapt_rl;
pub mod farm_jobs;
pub mod mixed_closed;
pub mod scale_64;
pub mod scn_storm;

/// The paper's mixed workload: one Parsec and two Rodinia applications,
/// one per region of `ChipLayout::paper_mixed()`.
pub fn paper_profiles() -> Vec<adaptnoc_workloads::profiles::AppProfile> {
    ["CA", "KM", "BP"]
        .iter()
        .map(|n| adaptnoc_workloads::profiles::by_name(n).expect("paper profile"))
        .collect()
}

/// Runs the named workload on `b`; `None` for an unknown name.
pub fn run(name: &str, b: &mut Bench) -> Option<Outcome> {
    Some(match name {
        "mixed_closed" => mixed_closed::run(b),
        "adapt_rl" => adapt_rl::run(b),
        "scn_storm" => scn_storm::run(b),
        "scale_64" => scale_64::run(b),
        "farm_jobs" => farm_jobs::run(b),
        _ => return None,
    })
}

/// The calibration kernel that normalises the workload's costs:
/// farm_jobs is dominated by socket and fsync waits, which no kernel
/// predicts, and stays raw; scale_64's 90 MiB working set feels the
/// memory system, not the core clock; the 8x8 chips live in cache.
pub fn calibration(name: &str) -> Option<Kernel> {
    match name {
        "farm_jobs" => None,
        "scale_64" => Some(Kernel::Memory),
        _ => Some(Kernel::Cache),
    }
}

/// Files the exact simulated counters of the timed window.
fn sim_values(v: &mut Values, s: &NetStats) {
    v.set("sim.packets_delivered", s.packets as f64);
    v.set("sim.flit_hops", s.flits_forwarded as f64);
    v.set("sim.avg_latency_cycles", s.avg_packet_latency());
    v.set("sim.p99_latency_cycles", s.p99_latency());
    v.set("sim.avg_hops", s.avg_hops());
    v.set("sim.drops", s.drops as f64);
    v.set("sim.nacks", s.nacks as f64);
    v.set("sim.retries", s.retries as f64);
    v.set("workloads.offered_packets", s.packets_offered as f64);
}

/// The end-of-run checks every workload that owns its network makes,
/// after it has drained the network: packet conservation over the whole
/// run, no invariant violated, no guard tripped. Fills `attempted` and
/// `failed`.
fn check_drained_network(out: &mut Outcome, net: &Network) {
    let t = net.totals().stats;
    let in_flight = net.in_flight();
    out.check(in_flight == 0, || {
        format!("{in_flight} flits or queued packets left after the drain")
    });
    out.check(t.packets_offered == t.packets + t.drops, || {
        format!(
            "packet conservation: offered {} != delivered {} + dropped {}",
            t.packets_offered, t.packets, t.drops
        )
    });
    let broken = net.check_invariants();
    out.check(broken.is_empty(), || {
        format!("invariants violated: {broken:?}")
    });
    let guard = net.guard_violations().len() + net.totals().health.violations as usize;
    out.check(guard == 0, || format!("{guard} guard violations"));
    out.values
        .add("sim.guard_violations", (broken.len() + guard) as f64);
    out.attempted += t.packets_offered;
    out.failed += t.packets_offered - t.packets.min(t.packets_offered);
}

/// Steps `net` until nothing is in flight (bounded: the fabrics are
/// deadlock-free, so running out of budget is a bug worth reporting).
/// `each` runs after every step. Returns the cycles taken.
fn drain(net: &mut Network, mut each: impl FnMut(&mut Network)) -> u64 {
    let mut cycles = 0u64;
    while net.in_flight() > 0 && cycles < 2_000_000 {
        net.step();
        each(net);
        cycles += 1;
    }
    cycles
}
