//! Region-parallel stepping vs. the serial stepper: the observable history
//! — delivered packets, aggregate statistics, the full trace stream, and
//! the in-flight count — must be **byte-identical at every thread count**,
//! under power gating, channel faults, router failures, purges, and
//! mid-run structural reconfiguration.
//!
//! This is the determinism contract of [`adaptnoc_sim::par`]: bands defer
//! their side effects into per-band sinks and merge them in ascending band
//! order, so parallelism is an implementation detail that no observer can
//! detect.

mod common;

use adaptnoc_sim::prelude::*;
use common::{
    mesh_spec, mesh_spec_yx, random_script, run_script, run_script_parallel, run_script_stepped,
};

const W: usize = 4;
const H: usize = 4;
const CYCLES: u64 = 900;

fn net(spec: &NetworkSpec) -> Network {
    Network::new(spec.clone(), SimConfig::baseline()).expect("valid mesh spec")
}

#[test]
fn parallel_matches_serial_across_thread_counts() {
    let spec = mesh_spec(W, H);
    let mut rng = Rng::seed_from_u64(0xBA2D);
    for _case in 0..6 {
        let script = random_script(&mut rng, &spec, true);
        let serial = run_script(net(&spec), &script, CYCLES);
        for threads in [1usize, 2, 4] {
            let parallel = run_script_parallel(net(&spec), &script, CYCLES, threads);
            assert_eq!(
                serial.0, parallel.0,
                "delivered packets diverged at {threads} threads"
            );
            assert_eq!(serial.1, parallel.1, "report diverged at {threads} threads");
            assert_eq!(serial.2, parallel.2, "trace diverged at {threads} threads");
            assert_eq!(
                serial.3, parallel.3,
                "in-flight count diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn parallel_matches_serial_with_midrun_reconfig() {
    let spec = mesh_spec(W, H);
    let target = mesh_spec_yx(W, H);
    let mut rng = Rng::seed_from_u64(0x51CA);
    for _case in 0..4 {
        let script = random_script(&mut rng, &spec, true);
        let reconfig_at = 200 + 100 * (rng.random_below(4) as u64);
        let serial = run_script_stepped(
            net(&spec),
            &script,
            CYCLES,
            Some((reconfig_at, target.clone())),
            |n| n.step(),
        );
        for threads in [2usize, 4] {
            let mut pool = StepPool::new(threads);
            let parallel = run_script_stepped(
                net(&spec),
                &script,
                CYCLES,
                Some((reconfig_at, target.clone())),
                move |n| n.step_parallel(&mut pool),
            );
            assert_eq!(
                serial, parallel,
                "history diverged at {threads} threads with reconfig at {reconfig_at}"
            );
        }
    }
}

#[test]
fn custom_region_map_preserves_equivalence() {
    let spec = mesh_spec(W, H);
    let mut rng = Rng::seed_from_u64(0x4E61);
    let script = random_script(&mut rng, &spec, true);
    let serial = run_script(net(&spec), &script, CYCLES);
    // A deliberately lopsided band split: 3 routers vs 13.
    let mut pool = StepPool::new(2);
    pool.set_regions(Some(RegionMap::from_bounds(vec![0, 3, W * H])));
    let parallel = run_script_stepped(net(&spec), &script, CYCLES, None, move |n| {
        n.step_parallel(&mut pool)
    });
    assert_eq!(serial, parallel, "lopsided band split changed the history");
}
