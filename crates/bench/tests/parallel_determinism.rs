//! Parallel campaigns must be byte-identical to serial runs.
//!
//! Every campaign point derives its state from its own seed, so fanning
//! points across threads must not change a single byte of the JSON rows.
//! These tests render each campaign's rows with the same
//! `rows_json(..).to_string_pretty()` path `gen-figures` uses and compare
//! a serial run against a 4-thread run.

use adaptnoc_bench::jsonrows::rows_json;
use adaptnoc_bench::prelude::*;
use adaptnoc_core::prelude::{ChipLayout, TopologyPolicy};
use adaptnoc_topology::prelude::Rect;
use adaptnoc_workloads::prelude::by_name;

fn quick_rc() -> RunConfig {
    RunConfig {
        epoch_cycles: 3_000,
        epochs: 1,
        warmup_epochs: 1,
        ..Default::default()
    }
}

#[test]
fn fault_sweep_parallel_is_byte_identical() {
    let seeds = [1u64, 2, 3, 4, 5, 6];
    let serial = fault_sweep_par(&seeds, 1).unwrap();
    let par = fault_sweep_par(&seeds, 4).unwrap();
    assert_eq!(serial, par, "fault rows diverged under parallel execution");
    assert_eq!(
        rows_json(&serial).to_string_pretty(),
        rows_json(&par).to_string_pretty()
    );
}

#[test]
fn ablation_sweep_parallel_is_byte_identical() {
    let rc = quick_rc();
    let seeds = [7u64, 8];
    let serial = ablation_sweep(&seeds, &rc, 1).unwrap();
    let par = ablation_sweep(&seeds, &rc, 4).unwrap();
    assert_eq!(
        serial, par,
        "ablation rows diverged under parallel execution"
    );
    assert_eq!(
        rows_json(&serial).to_string_pretty(),
        rows_json(&par).to_string_pretty()
    );
}

/// The figure campaigns' shared primitive: the oracle's region x topology
/// evaluation grid must pick identical policies at any thread count
/// (tie-breaking included).
#[test]
fn oracle_policies_parallel_matches_serial() {
    let layout = ChipLayout::single(Rect::new(0, 0, 4, 4), false);
    let profiles = vec![by_name("BS").unwrap()];
    let rc = quick_rc();
    let serial = oracle_policies_par(&layout, &profiles, &rc, 1).unwrap();
    let par = oracle_policies_par(&layout, &profiles, &rc, 4).unwrap();
    let kind = |p: &TopologyPolicy| match p {
        TopologyPolicy::Fixed(k) => *k,
        _ => unreachable!("oracle returns fixed policies"),
    };
    assert_eq!(serial.len(), par.len());
    for (s, p) in serial.iter().zip(&par) {
        assert_eq!(kind(s), kind(p), "oracle policy diverged");
    }
}

/// A full figure campaign (Fig. 16's size sweep, quick scale) fanned over
/// threads renders byte-identical JSON. The trained-policy cache is
/// cleared first so both runs train from the same fresh state.
#[test]
fn fig16_parallel_is_byte_identical() {
    std::fs::remove_file("results/policy.json").ok();
    let serial_scale = FigScale::quick();
    let serial = fig16(&serial_scale).unwrap();
    // Clear the cache again so the parallel run trains identically fresh
    // rather than reading the serialized policy back.
    std::fs::remove_file("results/policy.json").ok();
    let par_scale = FigScale {
        threads: 4,
        ..FigScale::quick()
    };
    let par = fig16(&par_scale).unwrap();
    let render = |rows: &[adaptnoc_bench::figs::SizeRow]| rows_json(rows).to_string_pretty();
    assert_eq!(
        render(&serial),
        render(&par),
        "fig16 rows diverged under parallel execution"
    );
}
