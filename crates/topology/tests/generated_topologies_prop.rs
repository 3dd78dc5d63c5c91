//! Property tests over the *generated* topology families: every sparse
//! Hamming design point and every chiplet fabric drawn from the seeded
//! PRNG must be connected (all-pairs routes terminate), deadlock-free
//! (acyclic channel dependency graph per vnet), and wiring-feasible
//! under the generalized per-edge budget. 240 seeded cases — rerunning
//! is byte-for-byte the same draw, so a failure names a reproducible
//! design point.

mod common;

use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::NodeId;
use adaptnoc_sim::rng::Rng;
use adaptnoc_sim::spec::NetworkSpec;
use adaptnoc_topology::prelude::*;

/// Connectivity + deadlock freedom + wiring feasibility in one pass.
/// Returns the observed max hops so callers can sanity-bound diameter.
fn check(name: &str, spec: &NetworkSpec, grid: Grid) -> usize {
    let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
    let stats = check_routes_and_deadlock(spec, &all_pairs(&nodes))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        stats.routes,
        2 * nodes.len() * (nodes.len() - 1),
        "{name}: every ordered pair must route on both vnets"
    );
    let report = wiring_feasible(spec, &grid, &WiringLimits::paper());
    assert!(report.fits, "{name}: wiring budget exceeded ({report:?})");
    stats.max_hops
}

#[test]
fn random_chiplet_fabrics_are_connected_deadlock_free_and_wirable() {
    let cfg = SimConfig::baseline();
    let mut rng = Rng::seed_from_u64(0xC417FAB);
    for case in 0..120 {
        let cc = common::draw_chiplet(&mut rng);
        let name = format!(
            "case {case}: chiplet {}x{} chips of {}x{}, {} links @ {} cycles",
            cc.chips_x, cc.chips_y, cc.chip_w, cc.chip_h, cc.links_per_edge, cc.link_latency
        );
        let spec = chiplet_chip(&cc, &cfg).unwrap_or_else(|e| panic!("{name}: build: {e}"));
        let max_hops = check(&name, &spec, cc.grid());
        // Up*/down* through the chip tree is bounded by a full traversal
        // of the chip graph plus intra-chip meshes.
        let bound = (cc.grid().width as usize + cc.grid().height as usize)
            * (cc.chips_x as usize * cc.chips_y as usize);
        assert!(max_hops <= bound, "{name}: max hops {max_hops} > {bound}");
    }
}

#[test]
fn random_sparse_hamming_points_are_connected_deadlock_free_and_wirable() {
    let cfg = SimConfig::baseline();
    let mut rng = Rng::seed_from_u64(0x5BA125E);
    for case in 0..120 {
        let (grid, params) = common::draw_sparse(&mut rng);
        let (w, h) = (grid.width, grid.height);
        let name = format!(
            "case {case}: sparse {w}x{h} rows {:?} cols {:?}",
            params.row_offsets, params.col_offsets
        );
        let spec = sparse_hamming_chip(grid, &params, &cfg)
            .unwrap_or_else(|e| panic!("{name}: build: {e}"));
        let max_hops = check(&name, &spec, grid);
        // Skip links only ever shorten routes: the mesh diameter bounds
        // every sparse design point.
        let mesh_diameter = (w - 1) as usize + (h - 1) as usize;
        assert!(
            max_hops <= mesh_diameter,
            "{name}: max hops {max_hops} exceeds the mesh diameter {mesh_diameter}"
        );
    }
}
