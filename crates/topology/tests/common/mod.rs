//! Shared by the topology integration suites: the seeded design-point
//! generators, and the *reference* table fills — the per-entry, hash-map
//! based fill this crate shipped before the row-sliced one, kept here
//! verbatim (including its own Dijkstra) so the production fill is checked
//! against an independent implementation, table byte for table byte.

#![allow(dead_code)]

use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::{Direction, NodeId, PortId, RouterId, Vnet};
use adaptnoc_sim::rng::Rng;
use adaptnoc_sim::routing::RoutingTables;
use adaptnoc_sim::spec::{ChannelKind, NetworkSpec};
use adaptnoc_topology::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// One seeded chiplet-fabric design point (1-2 x 1-2 chips of 3-4 x 3-4
/// tiles, 1-3 links per boundary, 1-8 cycle links).
pub fn draw_chiplet(rng: &mut Rng) -> ChipletConfig {
    let mut cc = ChipletConfig::new(
        rng.random_range(1, 3) as u8,
        rng.random_range(1, 3) as u8,
        rng.random_range(3, 5) as u8,
        rng.random_range(3, 5) as u8,
    );
    cc.link_latency = rng.random_range(1, 9) as u8;
    cc.links_per_edge = rng.random_range(1, 1 + cc.chip_w.min(cc.chip_h).min(3) as usize) as u8;
    cc
}

/// One seeded sparse-Hamming design point: a 4-9 x 4-9 grid with strictly
/// increasing offsets >= 2, each < its dimension, at most 3 per axis —
/// valid by construction.
pub fn draw_sparse(rng: &mut Rng) -> (Grid, SparseHammingParams) {
    let (w, h) = (rng.random_range(4, 10) as u8, rng.random_range(4, 10) as u8);
    let mut ladder = |dim: u8| {
        let mut v = Vec::new();
        let mut o = 2u8;
        while v.len() < 3 && o < dim {
            if rng.random_bool(0.7) {
                v.push(o);
            }
            o += 1 + rng.random_range(0, 3) as u8;
        }
        v
    };
    let params = SparseHammingParams {
        row_offsets: ladder(w),
        col_offsets: ladder(h),
    };
    (Grid::new(w, h), params)
}

/// FNV-1a over every routed `(vnet, router, dst, port)` entry in table
/// order: a pin for tables too large to keep a second copy of.
pub fn table_hash(tables: &RoutingTables) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u64| {
        h = (h ^ b).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (v, r, d, p) in tables.iter() {
        eat(v.0 as u64);
        eat(r.0 as u64);
        eat(d.0 as u64);
        eat(p.0 as u64);
    }
    h
}

#[derive(Debug, Clone, Copy)]
struct DimEdge {
    from: u8,
    to: u8,
    latency: u8,
    src_port: PortId,
}

const INF: u32 = u32::MAX / 2;

fn edge_cost(e: &DimEdge) -> u32 {
    e.latency as u32 * 8 + 8
}

fn decreases(e: &DimEdge, target: u8) -> bool {
    (e.to as i32 - target as i32).unsigned_abs() < (e.from as i32 - target as i32).unsigned_abs()
}

fn crosses(e: &DimEdge, target: u8) -> bool {
    (e.to as i32 - target as i32) * (e.from as i32 - target as i32) < 0
}

/// Reverse Dijkstra from `target` over the strictly distance-decreasing
/// edges, then per position the outgoing edge on a shortest path.
fn line_next_hops(
    edges: &[DimEdge],
    size: usize,
    target: u8,
    monotone: bool,
) -> Vec<Option<PortId>> {
    let usable = |e: &DimEdge| decreases(e, target) && (!monotone || !crosses(e, target));
    let mut dist = vec![INF; size];
    dist[target as usize] = 0;
    let mut done = vec![false; size];
    loop {
        let mut best = None;
        for i in 0..size {
            if !done[i] && dist[i] < INF && best.is_none_or(|b: usize| dist[i] < dist[b]) {
                best = Some(i);
            }
        }
        let Some(u) = best else { break };
        done[u] = true;
        for e in edges {
            if e.to as usize == u && usable(e) {
                let w = edge_cost(e);
                if dist[e.from as usize] > dist[u] + w {
                    dist[e.from as usize] = dist[u] + w;
                }
            }
        }
    }
    let mut next = vec![None; size];
    for (i, n) in next.iter_mut().enumerate() {
        if i == target as usize || dist[i] >= INF {
            continue;
        }
        let mut best: Option<(u32, u32, PortId)> = None;
        for e in edges {
            if e.from as usize != i || dist[e.to as usize] >= INF || !usable(e) {
                continue;
            }
            let cost = edge_cost(e) + dist[e.to as usize];
            if cost != dist[i] {
                continue;
            }
            let over = (e.to as i32 - target as i32).unsigned_abs();
            let cand = (cost, over, e.src_port);
            if best.is_none_or(|b| (cand.1, cand.2 .0) < (b.1, b.2 .0)) {
                best = Some(cand);
            }
        }
        *n = best.map(|b| b.2);
    }
    next
}

/// The reference dimension-ordered fill: same contract as
/// `fill_dor_tables` (`monotone = false`) / `fill_dor_tables_monotone`.
pub fn reference_fill_dor(
    spec: &mut NetworkSpec,
    grid: &Grid,
    vnet: Vnet,
    routers: &[RouterId],
    nodes: &[NodeId],
    best_effort: bool,
    monotone: bool,
) -> Result<(), BuildError> {
    let router_set: HashSet<RouterId> = routers.iter().copied().collect();

    let mut attach: HashMap<NodeId, (RouterId, PortId)> = HashMap::new();
    for ni in &spec.nis {
        attach.insert(ni.node, (ni.router, ni.port));
    }

    let mut row_edges: HashMap<u8, Vec<DimEdge>> = HashMap::new();
    let mut col_edges: HashMap<u8, Vec<DimEdge>> = HashMap::new();
    for ch in &spec.channels {
        if !router_set.contains(&ch.src.router) || !router_set.contains(&ch.dst.router) {
            continue;
        }
        let a = grid.coord(ch.src.router);
        let b = grid.coord(ch.dst.router);
        if a.y == b.y && a.x != b.x {
            row_edges.entry(a.y).or_default().push(DimEdge {
                from: a.x,
                to: b.x,
                latency: ch.latency,
                src_port: ch.src.port,
            });
        } else if a.x == b.x && a.y != b.y {
            col_edges.entry(a.x).or_default().push(DimEdge {
                from: a.y,
                to: b.y,
                latency: ch.latency,
                src_port: ch.src.port,
            });
        }
    }

    let mut row_cache: HashMap<(u8, u8), Vec<Option<PortId>>> = HashMap::new();
    let mut col_cache: HashMap<(u8, u8), Vec<Option<PortId>>> = HashMap::new();

    for &r in routers {
        let rc = grid.coord(r);
        for &d in nodes {
            let Some(&(t_router, t_port)) = attach.get(&d) else {
                continue;
            };
            if r == t_router {
                spec.tables.set(vnet, r, d, t_port);
                continue;
            }
            let tc = grid.coord(t_router);
            let port = if rc.x != tc.x {
                let next = row_cache.entry((rc.y, tc.x)).or_insert_with(|| {
                    line_next_hops(
                        row_edges.get(&rc.y).map_or(&[][..], |v| v),
                        grid.width as usize,
                        tc.x,
                        monotone,
                    )
                });
                next[rc.x as usize]
            } else {
                let next = col_cache.entry((rc.x, tc.y)).or_insert_with(|| {
                    line_next_hops(
                        col_edges.get(&rc.x).map_or(&[][..], |v| v),
                        grid.height as usize,
                        tc.y,
                        monotone,
                    )
                });
                next[rc.y as usize]
            };
            match port {
                Some(p) => spec.tables.set(vnet, r, d, p),
                None if best_effort => {}
                None => return Err(BuildError::Unreachable { router: r, dst: d }),
            }
        }
    }
    Ok(())
}

/// The reference chiplet-fabric tables for the finished `spec` of
/// `chiplet_chip(cc, cfg)`: per-chip reference DOR, then the
/// destination-major remote-entry loop, with the gateway lists read back
/// from the spec's inter-chip channels (construction order).
pub fn reference_chiplet_tables(
    cc: &ChipletConfig,
    cfg: &SimConfig,
    spec: &NetworkSpec,
) -> RoutingTables {
    let grid = cc.grid();
    let mut out = spec.clone();
    out.tables = RoutingTables::new(cfg.vnets as usize, grid.tiles(), grid.tiles());

    for cy in 0..cc.chips_y {
        for cx in 0..cc.chips_x {
            let rect = cc.chip_rect(cx, cy);
            let routers: Vec<RouterId> = rect.iter().map(|c| grid.router(c)).collect();
            let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
            for v in 0..cfg.vnets {
                reference_fill_dor(&mut out, &grid, Vnet(v), &routers, &nodes, false, false)
                    .expect("a chip mesh routes");
            }
        }
    }

    type ChipPair = ((u8, u8), (u8, u8));
    let mut gateways: HashMap<ChipPair, Vec<(RouterId, PortId)>> = HashMap::new();
    for ch in &spec.channels {
        if ch.kind == ChannelKind::InterChip {
            let from = cc.chip_of(grid.coord(ch.src.router));
            let to = cc.chip_of(grid.coord(ch.dst.router));
            gateways
                .entry((from, to))
                .or_default()
                .push((ch.src.router, ch.src.port));
        }
    }

    let mut parent: HashMap<(u8, u8), (u8, u8)> = HashMap::new();
    let mut visited = vec![(0u8, 0u8)];
    let mut q = VecDeque::from([(0u8, 0u8)]);
    while let Some((cx, cy)) = q.pop_front() {
        let mut nbrs = Vec::new();
        if cx + 1 < cc.chips_x {
            nbrs.push((cx + 1, cy));
        }
        if cx > 0 {
            nbrs.push((cx - 1, cy));
        }
        if cy + 1 < cc.chips_y {
            nbrs.push((cx, cy + 1));
        }
        if cy > 0 {
            nbrs.push((cx, cy - 1));
        }
        for n in nbrs {
            if !visited.contains(&n) {
                parent.insert(n, (cx, cy));
                visited.push(n);
                q.push_back(n);
            }
        }
    }
    let chain = |mut c: (u8, u8)| -> Vec<(u8, u8)> {
        let mut v = vec![c];
        while let Some(&p) = parent.get(&c) {
            v.push(p);
            c = p;
        }
        v
    };
    let next_chip = |from: (u8, u8), to: (u8, u8)| -> (u8, u8) {
        let to_chain = chain(to);
        if let Some(pos) = to_chain.iter().position(|&c| c == from) {
            to_chain[pos - 1]
        } else {
            parent[&from]
        }
    };

    for dcy in 0..cc.chips_y {
        for dcx in 0..cc.chips_x {
            for dc in cc.chip_rect(dcx, dcy).iter() {
                let d = grid.node(dc);
                for cy in 0..cc.chips_y {
                    for cx in 0..cc.chips_x {
                        if (cx, cy) == (dcx, dcy) {
                            continue;
                        }
                        let n = next_chip((cx, cy), (dcx, dcy));
                        let gws = &gateways[&((cx, cy), n)];
                        let (gw_r, gw_p) = gws[d.0 as usize % gws.len()];
                        let gw_c = grid.coord(gw_r);
                        for rc in cc.chip_rect(cx, cy).iter() {
                            let r = grid.router(rc);
                            let port = if r == gw_r {
                                gw_p
                            } else if rc.x != gw_c.x {
                                if gw_c.x > rc.x {
                                    Direction::East.port()
                                } else {
                                    Direction::West.port()
                                }
                            } else if gw_c.y > rc.y {
                                Direction::North.port()
                            } else {
                                Direction::South.port()
                            };
                            for v in 0..cfg.vnets {
                                out.tables.set(Vnet(v), r, d, port);
                            }
                        }
                    }
                }
            }
        }
    }
    out.tables
}
