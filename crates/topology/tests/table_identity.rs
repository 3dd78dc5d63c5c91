//! Entry identity of the routing tables: the production fills
//! (`dor::fill_dor_tables*`, the chiplet builder), which commit factored
//! rows — a class map per router column plus a few port bytes per router
//! — against the per-entry reference fills of `tests/common`, which `set`
//! every entry and so build dense rows: on every topology kind over the
//! paper's regions, the seeded generators of
//! `generated_topologies_prop.rs`, and hand-picked chiplet fabrics — plus
//! pinned hashes of the two chip-scale tables, too large for a dense copy
//! in a debug test run, and bounds on what the factored form may cost.
//! The same release-only step also bounds what a whole chip-scale
//! simulator may hold (`Network::heap_bytes`): `sim` cannot dev-depend on
//! the builders, so that gate lives here beside the table bound.

mod common;

use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::{NodeId, RouterId, Vnet};
use adaptnoc_sim::rng::Rng;
use adaptnoc_sim::routing::RoutingTables;
use adaptnoc_sim::spec::NetworkSpec;
use adaptnoc_topology::prelude::*;
use common::{reference_chiplet_tables, reference_fill_dor, table_hash};

const KINDS: [TopologyKind; 7] = [
    TopologyKind::Mesh,
    TopologyKind::Cmesh,
    TopologyKind::Torus,
    TopologyKind::Tree,
    TopologyKind::TorusTree,
    TopologyKind::ExpressMesh,
    TopologyKind::SparseHamming,
];

/// The paper's region footprints on the 8x8 chip: the five training
/// sizes, each alone (the rest of the chip is best-effort leftover mesh),
/// and the three-application mixed layout.
fn paper_layouts() -> Vec<Vec<Rect>> {
    let mut layouts: Vec<Vec<Rect>> = [(2, 4), (4, 4), (4, 6), (4, 8), (8, 8)]
        .iter()
        .map(|&(w, h)| vec![Rect::new(0, 0, w, h)])
        .collect();
    layouts.push(vec![
        Rect::new(0, 0, 4, 4),
        Rect::new(4, 0, 4, 4),
        Rect::new(0, 4, 8, 4),
    ]);
    layouts
}

fn routers_in(grid: &Grid, rect: Rect, spec: &NetworkSpec, active_only: bool) -> Vec<RouterId> {
    rect.iter()
        .map(|c| grid.router(c))
        .filter(|r| !active_only || spec.routers[r.index()].active)
        .collect()
}

fn nodes_in(grid: &Grid, rect: Rect) -> Vec<NodeId> {
    rect.iter().map(|c| grid.node(c)).collect()
}

/// Runs the production and the reference fill over the channel graph of
/// `spec` with the same arguments and requires the same result (including
/// the first unreachable pair) and the same table bytes. Tables start from
/// the spec's own, so entries a fill must leave alone are covered too.
fn assert_fills_agree(
    name: &str,
    spec: &NetworkSpec,
    grid: &Grid,
    routers: &[RouterId],
    nodes: &[NodeId],
) {
    for vnet in (0..spec.tables.vnets()).map(|v| Vnet(v as u8)) {
        for monotone in [false, true] {
            for best_effort in [false, true] {
                let mut new = spec.clone();
                let mut old = spec.clone();
                let got = if monotone {
                    fill_dor_tables_monotone(&mut new, grid, vnet, routers, nodes, best_effort)
                } else {
                    fill_dor_tables(&mut new, grid, vnet, routers, nodes, best_effort)
                };
                let want =
                    reference_fill_dor(&mut old, grid, vnet, routers, nodes, best_effort, monotone);
                let case =
                    format!("{name}: {vnet:?} monotone={monotone} best_effort={best_effort}");
                assert_eq!(got, want, "{case}: results differ");
                assert!(new.tables == old.tables, "{case}: tables differ");
                assert!(new.tables.iter().eq(old.tables.iter()), "{case}: iter");
            }
        }
    }
}

#[test]
fn fills_agree_for_every_topology_kind_on_the_paper_regions() {
    let cfg = SimConfig::adapt_noc();
    let grid = Grid::paper();
    let whole = Rect::new(0, 0, 8, 8);
    let mut built = 0;
    for kind in KINDS {
        for rects in paper_layouts() {
            let regions: Vec<RegionTopology> = rects
                .iter()
                .map(|&rect| RegionTopology::new(rect, kind))
                .collect();
            let Ok(spec) = build_chip_spec(grid, &regions, &cfg) else {
                continue;
            };
            built += 1;
            let name = format!("{kind} on {rects:?}");
            // The builder's own call shape (one region's routers and
            // nodes), the whole chip across region boundaries, and the
            // powered routers only (cmesh hubs).
            for &rect in &rects {
                let routers = routers_in(&grid, rect, &spec, false);
                assert_fills_agree(&name, &spec, &grid, &routers, &nodes_in(&grid, rect));
            }
            let all = routers_in(&grid, whole, &spec, false);
            assert_fills_agree(&name, &spec, &grid, &all, &nodes_in(&grid, whole));
            let powered = routers_in(&grid, whole, &spec, true);
            assert_fills_agree(&name, &spec, &grid, &powered, &nodes_in(&grid, whole));
        }
    }
    assert!(built >= 36, "only {built} of 42 paper layouts built");
}

/// For the kinds whose tables are nothing but dimension-ordered fills of
/// the finished channel graph, the reference fill from empty tables must
/// reproduce the builder's tables whole.
#[test]
fn reference_fill_reproduces_the_pure_dor_builders() {
    let cfg = SimConfig::adapt_noc();
    let grid = Grid::paper();
    let whole = Rect::new(0, 0, 8, 8);
    for (kind, monotone) in [
        (TopologyKind::Mesh, false),
        (TopologyKind::Cmesh, false),
        (TopologyKind::ExpressMesh, false),
        (TopologyKind::SparseHamming, true),
    ] {
        let spec = build_chip_spec(grid, &[RegionTopology::new(whole, kind)], &cfg).unwrap();
        let mut refilled = spec.clone();
        refilled.tables = RoutingTables::new(cfg.vnets as usize, grid.tiles(), grid.tiles());
        let routers = routers_in(&grid, whole, &spec, true);
        for v in 0..cfg.vnets {
            reference_fill_dor(
                &mut refilled,
                &grid,
                Vnet(v),
                &routers,
                &nodes_in(&grid, whole),
                false,
                monotone,
            )
            .unwrap();
        }
        assert!(refilled.tables == spec.tables, "{kind}: tables differ");
    }
}

#[test]
fn fills_agree_on_the_seeded_sparse_hamming_points() {
    let cfg = SimConfig::baseline();
    let mut rng = Rng::seed_from_u64(0x5BA125E);
    for case in 0..120 {
        let (grid, params) = common::draw_sparse(&mut rng);
        let spec = sparse_hamming_chip(grid, &params, &cfg).unwrap();
        let whole = Rect::new(0, 0, grid.width, grid.height);
        let name = format!(
            "case {case}: sparse {}x{} {params:?}",
            grid.width, grid.height
        );
        let routers = routers_in(&grid, whole, &spec, false);
        assert_fills_agree(&name, &spec, &grid, &routers, &nodes_in(&grid, whole));
    }
}

#[test]
fn chiplet_tables_match_the_reference_on_seeded_and_pinned_fabrics() {
    let cfg = SimConfig::baseline();
    let mut fabrics = vec![
        ChipletConfig::new(2, 2, 4, 4),
        ChipletConfig {
            links_per_edge: 1,
            ..ChipletConfig::new(3, 2, 4, 3)
        },
    ];
    let mut rng = Rng::seed_from_u64(0xC417FAB);
    fabrics.extend((0..120).map(|_| common::draw_chiplet(&mut rng)));
    for cc in fabrics {
        let spec = chiplet_chip(&cc, &cfg).unwrap();
        assert!(
            spec.tables == reference_chiplet_tables(&cc, &cfg, &spec),
            "{cc:?}: tables differ"
        );
        // The fabric-wide graph (inter-chip channels included) also goes
        // through both dimension-ordered fills.
        let grid = cc.grid();
        let whole = Rect::new(0, 0, grid.width, grid.height);
        let routers = routers_in(&grid, whole, &spec, false);
        assert_fills_agree(
            &format!("{cc:?}"),
            &spec,
            &grid,
            &routers,
            &nodes_in(&grid, whole),
        );
    }
}

/// Refills over tables that already route (the overlay: entries the fill
/// does not produce are kept) and fills from scratch (rows committed
/// factored) must both match the reference, which knows neither case.
#[test]
fn fills_agree_from_empty_tables_and_stay_factored() {
    let cfg = SimConfig::adapt_noc();
    let grid = Grid::paper();
    let whole = Rect::new(0, 0, 8, 8);
    for kind in [TopologyKind::Mesh, TopologyKind::Cmesh, TopologyKind::Tree] {
        let built = build_chip_spec(grid, &[RegionTopology::new(whole, kind)], &cfg).unwrap();
        let mut empty = built.clone();
        empty.tables = RoutingTables::new(cfg.vnets as usize, grid.tiles(), grid.tiles());
        let routers = routers_in(&grid, whole, &built, true);
        let nodes = nodes_in(&grid, whole);
        assert_fills_agree(
            &format!("{kind} from empty"),
            &empty,
            &grid,
            &routers,
            &nodes,
        );
        // Half the chip's routers towards a quarter of its nodes, then
        // the whole chip over that: untouched rows factored, touched rows
        // overlaid.
        let some = routers_in(&grid, Rect::new(0, 0, 8, 4), &built, true);
        let few = nodes_in(&grid, Rect::new(0, 0, 4, 4));
        for vnet in [Vnet(0), Vnet(1)] {
            let mut new = empty.clone();
            fill_dor_tables(&mut new, &grid, vnet, &some, &few, true).unwrap();
            assert_eq!(new.tables.dense_rows(), 0, "{kind}: first fill");
            let mut old = new.clone();
            fill_dor_tables(&mut new, &grid, vnet, &routers, &nodes, true).unwrap();
            reference_fill_dor(&mut old, &grid, vnet, &routers, &nodes, true, false).unwrap();
            assert!(new.tables == old.tables, "{kind}: refill differs");
            assert_eq!(new.tables.dense_rows(), some.len(), "{kind}: refill");
        }
    }
}

/// The factored form is what makes a chip-scale table small: no
/// dimension-ordered builder may fall back to one byte per destination.
#[test]
fn dor_built_chips_hold_no_dense_row() {
    let cfg = SimConfig::baseline();
    let mesh = mesh_chip(Grid::new(16, 16), &cfg).unwrap().tables;
    let fabric = chiplet_chip(&ChipletConfig::new(2, 2, 8, 8), &cfg).unwrap();
    let ladders = SparseHammingParams::default_for(16, 16);
    let sparse = sparse_hamming_chip(Grid::new(16, 16), &ladders, &cfg);
    for (name, tables) in [
        ("16x16 mesh", &mesh),
        ("2x2x8x8 fabric", &fabric.tables),
        ("16x16 sparse Hamming", &sparse.unwrap().tables),
    ] {
        assert_eq!(tables.dense_rows(), 0, "{name}");
        // 2 x 256 x 256 dense bytes against a map per column.
        assert!(
            tables.heap_bytes() < 48 << 10,
            "{name}: {}",
            tables.heap_bytes()
        );
    }
}

/// Table hashes recorded from the per-entry fill at the parent of the
/// row-sliced rewrite (commit 5955ac1).
#[test]
fn paper_region_tables_hash_to_the_recorded_values() {
    let cfg = SimConfig::adapt_noc();
    let regions = |kind| {
        [
            RegionTopology::new(Rect::new(0, 0, 4, 4), kind),
            RegionTopology::new(Rect::new(4, 0, 4, 4), kind),
            RegionTopology::new(Rect::new(0, 4, 8, 4), kind),
        ]
    };
    let got: Vec<(TopologyKind, u64)> = KINDS
        .iter()
        .map(|&kind| {
            let spec = build_chip_spec(Grid::paper(), &regions(kind), &cfg).unwrap();
            (kind, table_hash(&spec.tables))
        })
        .collect();
    let want = [
        (TopologyKind::Mesh, 0xf376_5042_18f2_c9e5u64),
        (TopologyKind::Cmesh, 0xa62d_3058_0e4d_de85),
        (TopologyKind::Torus, 0x7107_e353_6430_7fe5),
        (TopologyKind::Tree, 0xa7c4_f543_8e27_f0d1),
        (TopologyKind::TorusTree, 0x665f_709c_895e_cd8d),
        (TopologyKind::ExpressMesh, 0xfab9_154a_30a7_0515),
        (TopologyKind::SparseHamming, 0x4b31_814d_cff9_5665),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}

/// Chip scale: 2 x 4096 x 4096 entries each — 32 MiB stored a byte per
/// entry, which is what the size bound is there to keep out. Release only:
/// hashing 33 M entries takes a debug build minutes.
#[test]
#[cfg_attr(debug_assertions, ignore = "chip-scale tables; run with --release")]
fn chip_scale_tables_hash_to_the_recorded_values() {
    let cfg = SimConfig::baseline();
    let mesh = mesh_chip(Grid::new(64, 64), &cfg).unwrap().tables;
    let fabric = chiplet_chip(&ChipletConfig::new(4, 4, 16, 16), &cfg).unwrap();
    let got = [table_hash(&mesh), table_hash(&fabric.tables)];
    assert_eq!(
        got,
        [0xe16c_9798_2e8d_6b25, 0x9921_4f34_c5bc_5665],
        "got {got:#x?} (64x64 mesh, 4x4x16 fabric)"
    );
    for (name, tables) in [("64x64 mesh", &mesh), ("4x4x16 fabric", &fabric.tables)] {
        let bytes = tables.heap_bytes();
        assert!(bytes <= 6 << 20, "{name}: {bytes} table bytes");
        assert_eq!(tables.dense_rows(), 0, "{name}");
    }
}

/// Chip scale, the simulator's side: a fresh network over either chip —
/// per-VC buffer records, lane arrays, per-router/channel/NI structs and
/// its spec, tables included — stays under 8 MiB. A fresh network holds no
/// flit rings: a VC takes one from the pool only while it holds flits.
/// Exact byte counts, no timing. A fixed `16 B x depth` flit slab per VC
/// (7.9 MB at 64x64), a per-slot side array or a dense table row each
/// lands above the bound.
#[test]
#[cfg_attr(debug_assertions, ignore = "chip-scale networks; run with --release")]
fn chip_scale_networks_stay_under_8_mib() {
    use adaptnoc_sim::network::Network;
    let cfg = SimConfig::baseline();
    let mesh = mesh_chip(Grid::new(64, 64), &cfg).unwrap();
    let fabric = chiplet_chip(&ChipletConfig::new(4, 4, 16, 16), &cfg).unwrap();
    for (name, spec) in [("64x64 mesh", mesh), ("4x4x16 fabric", fabric)] {
        let net = Network::new(spec, cfg.clone()).unwrap();
        let bytes = net.heap_bytes();
        // Every VC keeps at least its hot-lane word (8 B) and its buffer
        // word (ring id, head, length: 4 B), however few flits it holds.
        let ports: usize = net.spec().routers.iter().map(|r| r.n_ports as usize).sum();
        let per_vc = 12 * cfg.total_vcs() * ports;
        println!("{name}: heap_bytes {bytes}, of which per-VC records {per_vc}");
        assert!(bytes <= 8 << 20, "{name}: {bytes} simulator bytes");
        assert!(bytes >= per_vc, "{name}: {bytes} < per-VC records {per_vc}");
    }
}
