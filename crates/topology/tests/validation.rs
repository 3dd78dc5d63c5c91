//! Cross-topology validation: every composed topology must produce
//! terminating routes, an acyclic channel-dependency graph, and deliver
//! real traffic end-to-end in the simulator.

use adaptnoc_sim::prelude::*;
use adaptnoc_topology::prelude::*;

fn region_nodes(grid: &Grid, rect: Rect) -> Vec<NodeId> {
    rect.iter().map(|c| grid.node(c)).collect()
}

/// Builds a single-region chip and returns (spec, region nodes).
fn single_region(
    rect: Rect,
    kind: TopologyKind,
    cfg: &SimConfig,
) -> (adaptnoc_sim::spec::NetworkSpec, Vec<NodeId>) {
    let grid = Grid::paper();
    let spec = build_chip_spec(grid, &[RegionTopology::new(rect, kind)], cfg).unwrap();
    (spec, region_nodes(&grid, rect))
}

fn exercise(spec: adaptnoc_sim::spec::NetworkSpec, nodes: &[NodeId], cfg: SimConfig) {
    // Static validation.
    let stats = check_routes_and_deadlock(&spec, &all_pairs(nodes)).unwrap();
    assert!(stats.routes > 0);

    // Dynamic: all-pairs traffic drains with no loss.
    let mut net = Network::new(spec, cfg).unwrap();
    let mut id = 0u64;
    for &s in nodes {
        for &d in nodes {
            if s != d {
                id += 1;
                net.inject(Packet::request(id, s, d, 0)).unwrap();
                id += 1;
                net.inject(Packet::reply(id, d, s, 0)).unwrap();
            }
        }
    }
    let mut cycles = 0u64;
    while net.in_flight() > 0 && cycles < 400_000 {
        net.step();
        cycles += 1;
    }
    assert_eq!(net.in_flight(), 0, "network failed to drain");
    assert_eq!(net.totals().stats.packets, id);
    assert_eq!(net.unroutable_events(), 0);
}

#[test]
fn mesh_region_4x4_is_sound() {
    let cfg = SimConfig::adapt_noc();
    let (spec, nodes) = single_region(Rect::new(0, 0, 4, 4), TopologyKind::Mesh, &cfg);
    exercise(spec, &nodes, cfg);
}

#[test]
fn cmesh_region_4x4_is_sound() {
    let cfg = SimConfig::adapt_noc();
    let (spec, nodes) = single_region(Rect::new(0, 0, 4, 4), TopologyKind::Cmesh, &cfg);
    exercise(spec, &nodes, cfg);
}

#[test]
fn torus_region_4x4_is_sound() {
    let cfg = SimConfig::adapt_noc();
    let (spec, nodes) = single_region(Rect::new(0, 0, 4, 4), TopologyKind::Torus, &cfg);
    exercise(spec, &nodes, cfg);
}

#[test]
fn tree_region_4x4_is_sound() {
    let cfg = SimConfig::adapt_noc();
    let (spec, nodes) = single_region(Rect::new(0, 0, 4, 4), TopologyKind::Tree, &cfg);
    exercise(spec, &nodes, cfg);
}

#[test]
fn torus_tree_region_4x4_is_sound() {
    let cfg = SimConfig::adapt_noc();
    let (spec, nodes) = single_region(Rect::new(0, 0, 4, 4), TopologyKind::TorusTree, &cfg);
    exercise(spec, &nodes, cfg);
}

#[test]
fn all_topologies_sound_in_offset_regions() {
    // Regions not at the grid origin, including non-square shapes.
    let cfg = SimConfig::adapt_noc();
    let grid = Grid::paper();
    for kind in [
        TopologyKind::Mesh,
        TopologyKind::Cmesh,
        TopologyKind::Torus,
        TopologyKind::Tree,
    ] {
        for rect in [
            Rect::new(4, 4, 4, 4),
            Rect::new(0, 4, 4, 2),
            Rect::new(2, 0, 4, 8),
            Rect::new(0, 0, 8, 2),
        ] {
            let spec = build_chip_spec(grid, &[RegionTopology::new(rect, kind)], &cfg).unwrap();
            let nodes = region_nodes(&grid, rect);
            let stats = check_routes_and_deadlock(&spec, &all_pairs(&nodes))
                .unwrap_or_else(|e| panic!("{kind} in {rect}: {e}"));
            assert!(stats.routes > 0, "{kind} in {rect}");
        }
    }
}

#[test]
fn multi_region_chip_is_sound_per_region() {
    // The paper's mixed-workload layout: three apps in disjoint subNoCs.
    let cfg = SimConfig::adapt_noc();
    let grid = Grid::paper();
    let r1 = Rect::new(0, 0, 4, 4);
    let r2 = Rect::new(4, 0, 4, 4);
    let r3 = Rect::new(0, 4, 8, 4);
    let regions = [
        RegionTopology::new(r1, TopologyKind::Cmesh),
        RegionTopology::new(r2, TopologyKind::Torus),
        RegionTopology::new(r3, TopologyKind::Tree).with_root(grid.node(Coord::new(0, 4))),
    ];
    let spec = build_chip_spec(grid, &regions, &cfg).unwrap();
    for rect in [r1, r2, r3] {
        let nodes = region_nodes(&grid, rect);
        check_routes_and_deadlock(&spec, &all_pairs(&nodes))
            .unwrap_or_else(|e| panic!("region {rect}: {e}"));
    }
}

#[test]
fn ftby_chip_is_sound() {
    let cfg = SimConfig::flattened_butterfly();
    let grid = Grid::paper();
    let spec = ftby_chip(grid, &cfg).unwrap();
    let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
    let stats = check_routes_and_deadlock(&spec, &all_pairs(&nodes)).unwrap();
    // FTBY: at most 1 row hop + 1 column hop.
    assert!(stats.max_hops <= 2, "max hops {}", stats.max_hops);

    // Dynamic spot check on a subset (full all-pairs is covered above).
    let mut net = Network::new(spec, cfg).unwrap();
    let mut id = 0;
    for &s in nodes.iter().step_by(7) {
        for &d in nodes.iter().step_by(5) {
            if s != d {
                id += 1;
                net.inject(Packet::reply(id, s, d, 0)).unwrap();
            }
        }
    }
    net.run(20_000);
    assert_eq!(net.in_flight(), 0);
    assert_eq!(net.totals().stats.packets, id);
}

#[test]
fn shortcut_chip_is_sound() {
    let cfg = SimConfig::baseline();
    let grid = Grid::paper();
    let links = [
        (Coord::new(0, 0), Coord::new(7, 0)),
        (Coord::new(0, 7), Coord::new(7, 7)),
        (Coord::new(0, 1), Coord::new(0, 6)),
        (Coord::new(7, 1), Coord::new(7, 6)),
    ];
    let spec = shortcut_chip(grid, &links, &cfg).unwrap();
    let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
    check_routes_and_deadlock(&spec, &all_pairs(&nodes)).unwrap();
}

#[test]
fn tree_cuts_reply_hops_from_root() {
    // The tree's purpose: replies from the MC reach leaves in fewer hops
    // than the mesh.
    let cfg = SimConfig::adapt_noc();
    let grid = Grid::paper();
    let rect = Rect::new(0, 0, 4, 4);
    let root = grid.node(Coord::new(0, 0));

    let hops = |kind: TopologyKind| -> f64 {
        let spec = build_chip_spec(
            grid,
            &[RegionTopology::new(rect, kind).with_root(root)],
            &cfg,
        )
        .unwrap();
        let pairs: Vec<(NodeId, NodeId)> = region_nodes(&grid, rect)
            .into_iter()
            .filter(|&n| n != root)
            .map(|n| (root, n))
            .collect();
        let mut total = 0usize;
        for &(s, d) in &pairs {
            total += walk_route(&spec, Vnet::REPLY, s, d).unwrap().hops;
        }
        total as f64 / pairs.len() as f64
    };

    let mesh = hops(TopologyKind::Mesh);
    let tree = hops(TopologyKind::Tree);
    assert!(
        tree < mesh,
        "tree reply hops {tree} should beat mesh {mesh}"
    );
}

#[test]
fn torus_cuts_cross_region_hops() {
    let cfg = SimConfig::adapt_noc();
    let grid = Grid::paper();
    let rect = Rect::new(0, 0, 4, 8);
    let avg = |kind: TopologyKind| -> f64 {
        let spec = build_chip_spec(grid, &[RegionTopology::new(rect, kind)], &cfg).unwrap();
        let nodes = region_nodes(&grid, rect);
        check_routes_and_deadlock(&spec, &all_pairs(&nodes))
            .unwrap()
            .avg_hops()
    };
    let mesh = avg(TopologyKind::Mesh);
    let torus = avg(TopologyKind::Torus);
    assert!(
        torus < mesh,
        "torus avg hops {torus} should beat mesh {mesh}"
    );
}

#[test]
fn cmesh_cuts_hops_via_concentration() {
    let cfg = SimConfig::adapt_noc();
    let grid = Grid::paper();
    let rect = Rect::new(0, 0, 4, 4);
    let avg = |kind: TopologyKind| -> f64 {
        let spec = build_chip_spec(grid, &[RegionTopology::new(rect, kind)], &cfg).unwrap();
        let nodes = region_nodes(&grid, rect);
        check_routes_and_deadlock(&spec, &all_pairs(&nodes))
            .unwrap()
            .avg_hops()
    };
    let mesh = avg(TopologyKind::Mesh);
    let cmesh = avg(TopologyKind::Cmesh);
    assert!(
        cmesh < mesh,
        "cmesh avg hops {cmesh} should beat mesh {mesh}"
    );
}
