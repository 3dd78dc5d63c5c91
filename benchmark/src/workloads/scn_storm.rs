//! `scn_storm`: open-loop scripted scenarios. A dozen `.scn` scripts are
//! generated from the seed by one template and each is loaded with
//! `bench::scenarios::load_scenario` and replayed with `scenario::run`;
//! one script is one segment (and one job).
//!
//! Every script has two regions with scoped Poisson background traffic
//! below saturation, an MMPP hotspot storm that overloads region B and
//! then lifts so the backlog drains, a Zipf ramp in region A, periodic
//! link glitches, and a final quiet phase in which every queue empties.
//! Two scripts in three kill a link in region A (degraded-graph
//! re-route, NACK/retry); the third reconfigures region B to a
//! concentrated mesh. The two are never combined on one chip: the fault
//! controller recomputes routes for the whole grid as one mesh region,
//! which strands traffic once a region has left the mesh.
//!
//! Region B always generates packets at more than twice region A's rate
//! and all faults strike links inside region A. The scenario runner gives
//! every source scope its own packet-id counter starting at zero, and a
//! fault NACK purges packets *by id*: when a glitch hits while the two
//! scopes have packets with equal ids in the network, the innocent
//! packet is purged too and only one is re-injected (one packet lost,
//! `ops_failed = 1`). Keeping the scopes' id windows apart keeps the
//! workload free of failed operations without hiding the accounting —
//! packet conservation is still checked on every script.

use crate::bench::{Bench, Outcome};
use crate::digest::Digest;
use adaptnoc_bench::scenarios::load_scenario;
use adaptnoc_scenario::prelude::{ExecPlan, FaultSummary, RunOptions, ScenarioOutcome};
use adaptnoc_scenario::runner::run as replay;
use adaptnoc_sim::rng::Rng;

/// Scripts at the default size.
const SCRIPTS: u64 = 12;
/// Simulated cycles per script.
const SCRIPT_CYCLES: u64 = 40_000;
/// Set-up repetitions (generate + parse + compile every script).
const SETUP_REPS: usize = 21;

/// Generates script `index` of the run seeded with `seed`. Loads and
/// phase lengths are fixed, so every seed simulates nearly the same
/// amount of work; the seed moves the hotspot, the faulted links and all
/// the traffic randomness.
pub fn script(seed: u64, index: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index);
    let d = SCRIPT_CYCLES;
    let at = |share: f64| (d as f64 * share) as u64;
    // Region A is the top half (rows 0-3), region B the bottom half.
    // The horizontal links inside A, router (x, y) -> (x + 1, y), drawn
    // without replacement: a glitch on a link that a recovery has already
    // removed from the fabric is an error, not a fault.
    let mut links: Vec<(u64, u64)> = (0..4u64)
        .flat_map(|y| (0..7u64).map(move |x| (y * 8 + x, y * 8 + x + 1)))
        .collect();
    let mut link_in_a = |rng: &mut Rng| links.swap_remove(rng.random_below(links.len()));
    let (hx, hy) = (rng.random_below(7), 4 + rng.random_below(3));

    let mut s = format!(
        "# scn_storm script {index} (benchmark seed {seed})\n\
         grid 8 8;\nseed {};\nwarmup 0;\nduration {d};\nepoch {};\n\
         region A 0 0 8 4;\nregion B 0 4 8 4;\nregion H {hx} {hy} 2 2;\n\
         t=0 uniform load 0.03 poisson in region A;\n\
         t=0 uniform load 0.07 poisson in region B;\n",
        rng.next_u64() >> 16,
        d / 8,
    );
    for share in [0.10, 0.28, 0.46, 0.80] {
        let (a, b) = link_in_a(&mut rng);
        s += &format!("t={} glitch link {a} -> {b} for {};\n", at(share), d / 50);
    }
    s += &format!(
        "t={} hotspot region H load 0.12 mmpp 4 0.02 0.1 in region B;\n\
         t={} uniform load 0.07 poisson in region B;\n\
         t={} zipf 1.2 load 0.03 ramp to 0.09 over {} in region A;\n\
         t={} uniform load 0.03 poisson in region A;\n",
        at(0.20),
        at(0.32),
        at(0.40),
        at(0.20),
        at(0.62),
    );
    if kills_a_link(index) {
        let (a, b) = link_in_a(&mut rng);
        s += &format!("t={} kill link {a} -> {b};\n", at(0.66));
    } else {
        s += &format!("t={} reconfigure region B to cmesh;\n", at(0.55));
    }
    s += &format!(
        "t={0} uniform load 0 in region A;\nt={0} uniform load 0 in region B;\n",
        at(0.88)
    );
    s
}

/// Two scripts in three kill a link, the third reconfigures. A killed
/// link costs about 1.6x as much host time to replay, so with an uneven
/// split the median job is a link-kill script instead of the gap between
/// the two kinds.
fn kills_a_link(index: u64) -> bool {
    index % 3 != 2
}

fn fold_outcome(d: &mut Digest, o: &ScenarioOutcome) {
    for v in [
        o.cycles,
        o.offered,
        o.delivered,
        o.max_source_queue,
        o.end_source_queue,
        o.drops,
        o.faults.transients_fired,
        o.faults.permanent_links_fired,
        o.faults.retries_queued,
        o.faults.dropped,
        o.faults.recoveries,
        o.faults.escalations,
    ] {
        d.u64(v);
    }
    for v in [o.avg_latency, o.p50, o.p95, o.p99, o.p999] {
        d.f64(v);
    }
    for e in &o.epochs {
        d.u64(e.offered);
        d.u64(e.delivered);
        d.f64(e.avg_latency);
        d.u64(e.source_queue);
    }
}

/// Runs the workload.
pub fn run(b: &mut Bench) -> Outcome {
    let seed = b.seed;
    let scripts = b.scaled(SCRIPTS, 2);
    let mut out = Outcome::default();

    // Set-up: generate, parse and compile every script. A script the
    // loader refuses is a correctness failure of the generator.
    let plans: Vec<Option<ExecPlan>> = b.setup(SETUP_REPS, |tr| {
        let sources: Vec<String> = (0..scripts).map(|i| script(seed, i)).collect();
        tr.timed("scenario.parse_compile", || {
            sources.iter().map(|src| load_scenario(src).ok()).collect()
        })
    });
    let refused = plans.iter().filter(|p| p.is_none()).count();
    out.check(refused == 0, || {
        format!("{refused} generated scripts refused by load_scenario")
    });
    let plans: Vec<ExecPlan> = plans.into_iter().flatten().collect();
    let opts = RunOptions::default();

    // Warm-up: one untimed replay.
    if let Some(plan) = plans.first() {
        let _ = replay(plan, &opts);
    }

    let mut digest = Digest::default();
    let (mut accepted, mut p99, mut max_q, mut end_q) = (0.0, 0.0f64, 0u64, 0u64);
    let mut faults = FaultSummary::default();
    for (i, plan) in plans.iter().enumerate() {
        let phase = if kills_a_link(i as u64) {
            "kill_link_scripts"
        } else {
            "reconfigure_scripts"
        };
        let result = b.segment(phase, |tr| tr.timed("scenario.run", || replay(plan, &opts)));
        let o = match result {
            Ok(o) => o,
            Err(e) => {
                out.errors.push(format!("script {i} did not run: {e}"));
                continue;
            }
        };
        fold_outcome(&mut digest, &o);
        out.sim_cycles += plan.total_cycles();
        out.attempted += o.offered;
        out.failed += o.offered - o.delivered.min(o.offered);
        out.check(o.offered == o.delivered + o.drops, || {
            format!(
                "script {i}: offered {} != delivered {} + dropped {} (packets lost or stranded)",
                o.offered, o.delivered, o.drops
            )
        });
        out.check(o.end_source_queue == 0, || {
            format!(
                "script {i}: {} packets still queued at the end",
                o.end_source_queue
            )
        });
        out.check(o.faults.dumps == 0, || {
            format!("script {i}: {} unrecoverable stalls", o.faults.dumps)
        });
        accepted += o.accepted_rate / plans.len() as f64;
        p99 = p99.max(o.p99);
        max_q = max_q.max(o.max_source_queue);
        end_q += o.end_source_queue;
        out.values.add("sim.packets_delivered", o.delivered as f64);
        out.values
            .add("workloads.offered_packets", o.offered as f64);
        out.values.add("sim.drops", o.drops as f64);
        faults.transients_fired += o.faults.transients_fired;
        faults.permanent_links_fired += o.faults.permanent_links_fired;
        faults.recoveries += o.faults.recoveries;
        faults.retries_queued += o.faults.retries_queued;
        faults.dropped += o.faults.dropped;
    }
    out.digest = digest.value();

    let v = &mut out.values;
    v.set("scenario.accepted_rate", accepted);
    v.set("scenario.p99_latency_cycles", p99);
    v.set("sim.p99_latency_cycles", p99);
    v.set("scenario.max_source_queue", max_q as f64);
    v.set("scenario.end_source_queue", end_q as f64);
    v.set(
        "faults.fired",
        (faults.transients_fired + faults.permanent_links_fired) as f64,
    );
    v.set("faults.recoveries", faults.recoveries as f64);
    v.set("faults.retries", faults.retries_queued as f64);
    v.set("sim.retries", faults.retries_queued as f64);
    v.set("faults.drops", faults.dropped as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_seed_dependent() {
        assert_eq!(script(1, 0), script(1, 0));
        assert_ne!(script(1, 0), script(2, 0));
        assert_ne!(script(1, 0), script(1, 1));
    }

    #[test]
    fn every_generated_script_loads() {
        for seed in 1..=20 {
            for i in 0..SCRIPTS {
                let src = script(seed, i);
                if let Err(e) = load_scenario(&src) {
                    panic!("seed {seed} script {i}: {e}\n{src}");
                }
            }
        }
    }
}
