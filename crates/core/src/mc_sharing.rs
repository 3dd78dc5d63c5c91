//! Memory-controller sharing across adjacent subNoCs (Sec. II-C2).
//!
//! A memory-intensive application can borrow bandwidth from the MC of an
//! adjacent subNoC: one pair of peripheral routers is bridged with the
//! otherwise-unused inter-region mesh links, and routing entries are added
//! so the borrowing region reaches the remote MC (requests) and the remote
//! MC's replies find their way back. Only **one** router of a subNoC may
//! connect to an external MC — the paper's precondition for keeping the
//! channel-dependency graph acyclic.

use adaptnoc_sim::ids::{NodeId, Vnet};
use adaptnoc_sim::spec::{mesh_channel, NetworkSpec, PortRef};
use adaptnoc_topology::geom::{Coord, Grid, Rect};
use adaptnoc_topology::plan::BuildError;

/// A configured MC-sharing bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McBridge {
    /// Peripheral router tile inside the borrowing region.
    pub local: Coord,
    /// Peripheral router tile inside the lending region.
    pub remote: Coord,
    /// The remote memory controller being shared.
    pub mc: NodeId,
}

/// Adds an MC-sharing bridge to `spec`, letting every node of
/// `borrower` reach `mc` (which lives in `lender`).
///
/// # Errors
///
/// Returns [`BuildError::Region`] if the regions are not adjacent or no
/// boundary router pair with free facing ports exists.
pub fn add_mc_bridge(
    spec: &mut NetworkSpec,
    grid: &Grid,
    borrower: Rect,
    lender: Rect,
    mc: NodeId,
) -> Result<McBridge, BuildError> {
    if !borrower.adjacent(&lender) {
        return Err(BuildError::Region(format!(
            "regions {borrower} and {lender} are not adjacent"
        )));
    }
    let mc_coord = grid.node_coord(mc);
    if !lender.contains(mc_coord) {
        return Err(BuildError::Region(format!(
            "MC {mc} is not inside the lending region {lender}"
        )));
    }

    // Candidate boundary pairs: adjacent tiles (a in borrower, b in lender)
    // whose facing direction ports are free and whose routers are active.
    let mut candidates: Vec<(Coord, Coord)> = Vec::new();
    for a in borrower.iter() {
        for dir in adaptnoc_sim::ids::Direction::ALL {
            if let Some(b) = grid.neighbor(a, dir) {
                if lender.contains(b) {
                    candidates.push((a, b));
                }
            }
        }
    }
    let used_src: std::collections::HashSet<PortRef> =
        spec.channels.iter().map(|c| c.src).collect();
    let used_dst: std::collections::HashSet<PortRef> =
        spec.channels.iter().map(|c| c.dst).collect();

    candidates.sort_by_key(|(a, b)| a.manhattan(mc_coord) + b.manhattan(mc_coord));
    // The adaptable router's muxes let any direction port drive the bridge
    // wire, so any free out/in port pair on both sides works.
    let free_out = |r: adaptnoc_sim::ids::RouterId| -> Option<adaptnoc_sim::ids::PortId> {
        (0..4u8)
            .map(adaptnoc_sim::ids::PortId)
            .find(|&p| !used_src.contains(&PortRef::new(r, p)))
    };
    let free_in = |r: adaptnoc_sim::ids::RouterId| -> Option<adaptnoc_sim::ids::PortId> {
        (0..4u8)
            .map(adaptnoc_sim::ids::PortId)
            .find(|&p| !used_dst.contains(&PortRef::new(r, p)))
    };
    let pick = candidates.into_iter().find_map(|(a, b)| {
        let ra = grid.router(a);
        let rb = grid.router(b);
        if !spec.routers[ra.index()].active || !spec.routers[rb.index()].active {
            return None;
        }
        // Forward (borrower -> lender) and reverse ports must all be free;
        // the forward dst and reverse src may share a port index with other
        // roles only if unused in that role.
        let a_out = free_out(ra)?;
        let b_in = free_in(rb)?;
        let b_out = free_out(rb)?;
        let a_in = free_in(ra)?;
        Some((a, b, a_out, b_in, b_out, a_in))
    });
    let Some((a, b, a_out, b_in, b_out, a_in)) = pick else {
        return Err(BuildError::Region(format!(
            "no free boundary ports between {borrower} and {lender}"
        )));
    };

    let ra = grid.router(a);
    let rb = grid.router(b);
    let _ = a.direction_to(b).expect("adjacent tiles");
    spec.add_channel(mesh_channel(
        PortRef::new(ra, a_out),
        PortRef::new(rb, b_in),
    ));
    spec.add_channel(mesh_channel(
        PortRef::new(rb, b_out),
        PortRef::new(ra, a_in),
    ));

    // Request routes: borrower routers reach `mc` by routing towards the
    // gateway tile `a`, then across the bridge; inside the lender the
    // existing routes to `mc` take over.
    let gateway_node = grid.node(a);
    let vnets = spec.tables.vnets() as u8;
    let borrower_routers: Vec<_> = borrower
        .iter()
        .map(|c| grid.router(c))
        .filter(|r| spec.routers[r.index()].active)
        .collect();
    for v in 0..vnets {
        for &r in &borrower_routers {
            if r == ra {
                spec.tables.set(Vnet(v), r, mc, a_out);
            } else if let Some(p) = spec.tables.lookup(Vnet(v), r, gateway_node) {
                spec.tables.set(Vnet(v), r, mc, p);
            }
        }
        // Bridge entry into the lender region.
        if let Some(p) = spec.tables.lookup(Vnet(v), rb, mc) {
            spec.tables.set(Vnet(v), rb, mc, p);
        }
    }

    // Reply routes: lender routers reach every borrower node by routing
    // towards the gateway tile `b`, then across the bridge back.
    let gateway_b_node = grid.node(b);
    let lender_routers: Vec<_> = lender
        .iter()
        .map(|c| grid.router(c))
        .filter(|r| spec.routers[r.index()].active)
        .collect();
    let borrower_nodes: Vec<NodeId> = borrower.iter().map(|c| grid.node(c)).collect();
    for v in 0..vnets {
        for &r in &lender_routers {
            for &d in &borrower_nodes {
                if r == rb {
                    spec.tables.set(Vnet(v), r, d, b_out);
                } else if let Some(p) = spec.tables.lookup(Vnet(v), r, gateway_b_node) {
                    spec.tables.set(Vnet(v), r, d, p);
                }
            }
        }
    }

    Ok(McBridge {
        local: a,
        remote: b,
        mc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_sim::config::SimConfig;
    use adaptnoc_sim::prelude::{Network, Packet};
    use adaptnoc_topology::prelude::*;

    fn two_region_chip(
        k1: TopologyKind,
        k2: TopologyKind,
    ) -> (NetworkSpec, Grid, Rect, Rect, NodeId) {
        let grid = Grid::paper();
        let r1 = Rect::new(0, 0, 4, 8);
        let r2 = Rect::new(4, 0, 4, 8);
        let mc = grid.node(Coord::new(4, 0)); // lender's MC at its origin
        let cfg = SimConfig::adapt_noc();
        let mut spec = build_chip_spec(
            grid,
            &[
                RegionTopology::new(r1, k1),
                RegionTopology::new(r2, k2).with_root(mc),
            ],
            &cfg,
        )
        .unwrap();
        let bridge = add_mc_bridge(&mut spec, &grid, r1, r2, mc).unwrap();
        assert_eq!(bridge.mc, mc);
        (spec, grid, r1, r2, mc)
    }

    #[test]
    fn bridge_enables_remote_mc_round_trip() {
        let (spec, grid, r1, _r2, mc) = two_region_chip(TopologyKind::Mesh, TopologyKind::Mesh);
        spec.validate().unwrap();
        let mut net = Network::new(spec, SimConfig::adapt_noc()).unwrap();
        // Every borrower node sends a request to the remote MC; the MC
        // replies to each.
        let nodes: Vec<NodeId> = r1.iter().map(|c| grid.node(c)).collect();
        let mut id = 0;
        for &n in &nodes {
            id += 1;
            net.inject(Packet::request(id, n, mc, 0)).unwrap();
            id += 1;
            net.inject(Packet::reply(id, mc, n, 0)).unwrap();
        }
        net.run(4000);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.totals().stats.packets, id);
        assert_eq!(net.unroutable_events(), 0);
    }

    #[test]
    fn bridge_routes_are_deadlock_free() {
        let (spec, grid, r1, r2, mc) = two_region_chip(TopologyKind::Tree, TopologyKind::Mesh);
        // Pairs: intra-region all-pairs plus the cross-region MC flows.
        let mut pairs = Vec::new();
        for rect in [r1, r2] {
            let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
            pairs.extend(all_pairs(&nodes));
        }
        for c in r1.iter() {
            let n = grid.node(c);
            pairs.push((n, mc));
            pairs.push((mc, n));
        }
        check_routes_and_deadlock(&spec, &pairs).unwrap();
    }

    #[test]
    fn non_adjacent_regions_rejected() {
        let grid = Grid::paper();
        let cfg = SimConfig::adapt_noc();
        let r1 = Rect::new(0, 0, 2, 2);
        let r2 = Rect::new(4, 4, 2, 2);
        let mc = grid.node(Coord::new(4, 4));
        let mut spec = build_chip_spec(
            grid,
            &[
                RegionTopology::new(r1, TopologyKind::Mesh),
                RegionTopology::new(r2, TopologyKind::Mesh),
            ],
            &cfg,
        )
        .unwrap();
        assert!(matches!(
            add_mc_bridge(&mut spec, &grid, r1, r2, mc),
            Err(BuildError::Region(_))
        ));
    }

    #[test]
    fn mc_outside_lender_rejected() {
        let grid = Grid::paper();
        let cfg = SimConfig::adapt_noc();
        let r1 = Rect::new(0, 0, 4, 8);
        let r2 = Rect::new(4, 0, 4, 8);
        let mut spec = build_chip_spec(
            grid,
            &[
                RegionTopology::new(r1, TopologyKind::Mesh),
                RegionTopology::new(r2, TopologyKind::Mesh),
            ],
            &cfg,
        )
        .unwrap();
        let not_in_lender = grid.node(Coord::new(0, 0));
        assert!(matches!(
            add_mc_bridge(&mut spec, &grid, r1, r2, not_in_lender),
            Err(BuildError::Region(_))
        ));
    }

    #[test]
    fn torus_region_cannot_bridge_gracefully() {
        // A torus subNoC consumes every peripheral port with its wrap
        // segments; the controller must treat MC sharing as unavailable.
        let grid = Grid::paper();
        let cfg = SimConfig::adapt_noc();
        let r1 = Rect::new(0, 0, 4, 8);
        let r2 = Rect::new(4, 0, 4, 8);
        let mc = grid.node(Coord::new(4, 0));
        let mut spec = build_chip_spec(
            grid,
            &[
                RegionTopology::new(r1, TopologyKind::Torus),
                RegionTopology::new(r2, TopologyKind::Mesh).with_root(mc),
            ],
            &cfg,
        )
        .unwrap();
        assert!(matches!(
            add_mc_bridge(&mut spec, &grid, r1, r2, mc),
            Err(BuildError::Region(_))
        ));
    }

    #[test]
    fn bridge_works_with_cmesh_lender() {
        // The lender's peripheral routers may be gated (cmesh); the bridge
        // must land on active routers.
        let (spec, grid, r1, _r2, mc) = two_region_chip(TopologyKind::Mesh, TopologyKind::Cmesh);
        spec.validate().unwrap();
        let mut net = Network::new(spec, SimConfig::adapt_noc()).unwrap();
        let n = grid.node(Coord::new(3, 3));
        net.inject(Packet::request(1, n, mc, 0)).unwrap();
        net.run(500);
        assert_eq!(net.totals().stats.packets, 1);
        let _ = r1;
    }
}
