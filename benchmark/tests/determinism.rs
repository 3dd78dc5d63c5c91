//! Same seed, same simulation; another seed, another simulation. Sizes
//! are the smallest the workloads allow (`--seconds 1`); the heavy ones
//! only run in optimised builds.

use adaptnoc_benchmark::bench::{Bench, Outcome};
use adaptnoc_benchmark::cli::EXACT;
use adaptnoc_benchmark::workloads;

fn outcome(name: &str, seed: u64) -> Outcome {
    // Raw costs: timings are not under test here, and the memory kernel's
    // helper process only exists inside the benchmark binary.
    let mut b = Bench::new(seed, 1, false, None).expect("no helper needed");
    let out = workloads::run(name, &mut b).expect("known workload");
    assert!(
        out.errors.is_empty(),
        "{name} seed {seed}: {:?}",
        out.errors
    );
    assert_eq!(out.failed, 0, "{name} seed {seed}");
    assert!(out.attempted > 0, "{name} seed {seed}");
    out
}

fn check(name: &str) {
    let (a, again, other) = (outcome(name, 1), outcome(name, 1), outcome(name, 2));
    assert_eq!(a.digest, again.digest, "{name}: same seed, same digest");
    for counter in EXACT {
        let (x, y) = (a.values.get(counter), again.values.get(counter));
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name}: {counter} differs for one seed"
        );
    }
    assert_eq!(a.attempted, again.attempted);
    assert_ne!(
        a.digest, other.digest,
        "{name}: another seed, another digest"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "simulates millions of cycles; run with --release"
)]
fn mixed_closed_is_deterministic() {
    check("mixed_closed");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "simulates millions of cycles; run with --release"
)]
fn adapt_rl_is_deterministic() {
    check("adapt_rl");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "simulates millions of cycles; run with --release"
)]
fn scn_storm_is_deterministic() {
    check("scn_storm");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "builds 64x64 fabrics six times; run with --release"
)]
fn scale_64_is_deterministic() {
    check("scale_64");
}

/// One test for all the farm passes: the daemon's stop flag is a static,
/// so only one daemon may run in the process at a time.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "boots the farm daemon repeatedly; run with --release"
)]
fn farm_jobs_is_deterministic_and_cleans_up() {
    let scratch_dirs = || {
        let exe = std::env::current_exe().expect("test executable");
        std::fs::read_dir(exe.parent().expect("target directory"))
            .expect("target directory is readable")
            .filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("bench-scratch-farm_jobs")
            })
            .count()
    };
    check("farm_jobs");
    assert_eq!(
        scratch_dirs(),
        0,
        "the farm's data directory was left behind"
    );
    for dir in ["farm-data", "results"] {
        assert!(
            !std::path::Path::new(dir).exists(),
            "the benchmark must never write to `{dir}`"
        );
    }
}
