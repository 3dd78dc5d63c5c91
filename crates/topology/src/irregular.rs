//! Irregular subNoC topologies (the Sec. II-C3 extension).
//!
//! "Some routing algorithms such as static bubble can be implemented to
//! prevent deadlock in irregular topologies." This module supports
//! *arbitrary* extra express links over a region's mesh by switching the
//! region to **up\*/down\*** routing: a BFS spanning tree is built over the
//! full channel graph (mesh + extras), every route climbs toward the
//! lowest common ancestor and then descends — a destination-only-consistent
//! discipline that is deadlock-free on any connected graph.

use crate::dor::nodes_of;
#[cfg(test)]
use crate::geom::Grid;
use crate::geom::{Coord, Rect};
use crate::plan::{BuildError, ChipPlan};
use crate::regions::mesh_fabric;
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::{NodeId, PortId, RouterId, Vnet};
use adaptnoc_sim::spec::{ChannelKind, PortRef};
use std::collections::{HashMap, VecDeque};

/// Builds an irregular subNoC: the region mesh plus arbitrary extra
/// express links (row/column aligned, attached to whatever ports are
/// free), routed with up*/down* from `root` (defaults to the region
/// origin).
///
/// # Errors
///
/// Returns [`BuildError`] on wiring conflicts or a disconnected region.
pub fn irregular_region(
    plan: &mut ChipPlan,
    rect: Rect,
    extra_links: &[(Coord, Coord)],
    root: Option<Coord>,
    cfg: &SimConfig,
) -> Result<(), BuildError> {
    mesh_fabric(plan, rect)?;
    let grid = plan.grid;

    // Extra links, best effort on free ports (both directions).
    for &(a, b) in extra_links {
        if a.x != b.x && a.y != b.y {
            return Err(BuildError::Region(format!(
                "irregular link {a}-{b} must be row- or column-aligned"
            )));
        }
        if !rect.contains(a) || !rect.contains(b) || a == b {
            return Err(BuildError::Region(format!(
                "irregular link {a}-{b} outside region {rect}"
            )));
        }
        let (ra, rb) = (grid.router(a), grid.router(b));
        let mm = a.manhattan(b) as f32;
        let dim_y = a.x == b.x;
        if let (Some(po), Some(pi)) = (plan.free_out_port(ra), plan.free_in_port(rb)) {
            plan.add_express(
                PortRef::new(ra, po),
                PortRef::new(rb, pi),
                mm,
                ChannelKind::Adaptable,
                false,
                dim_y,
            )?;
        }
        if let (Some(po), Some(pi)) = (plan.free_out_port(rb), plan.free_in_port(ra)) {
            plan.add_express(
                PortRef::new(rb, po),
                PortRef::new(ra, pi),
                mm,
                ChannelKind::AdaptableReversed,
                false,
                dim_y,
            )?;
        }
    }

    fill_updown_tables(plan, rect, root.unwrap_or_else(|| rect.origin()), cfg)
}

/// Fills the region's routing tables with up*/down* routes over the
/// current channel graph.
fn fill_updown_tables(
    plan: &mut ChipPlan,
    rect: Rect,
    root: Coord,
    cfg: &SimConfig,
) -> Result<(), BuildError> {
    let grid = plan.grid;
    let routers: Vec<RouterId> = rect.iter().map(|c| grid.router(c)).collect();
    let in_region: HashMap<RouterId, usize> =
        routers.iter().enumerate().map(|(i, &r)| (r, i)).collect();

    // Directed adjacency with ports, restricted to the region.
    let mut adj: HashMap<RouterId, Vec<(RouterId, PortId)>> = HashMap::new();
    for ch in &plan.spec.channels {
        if in_region.contains_key(&ch.src.router) && in_region.contains_key(&ch.dst.router) {
            adj.entry(ch.src.router)
                .or_default()
                .push((ch.dst.router, ch.src.port));
        }
    }

    // BFS spanning tree from the root over *bidirectionally* connected
    // pairs (both directions must exist to be a tree edge, so up and down
    // traffic both have channels).
    let root_r = grid.router(root);
    let mut parent: HashMap<RouterId, (RouterId, PortId)> = HashMap::new(); // child -> (parent, child's uplink port)
    let mut children: HashMap<RouterId, Vec<(RouterId, PortId)>> = HashMap::new(); // parent -> (child, downlink port)
    let mut visited: Vec<RouterId> = vec![root_r];
    let mut q = VecDeque::from([root_r]);
    while let Some(u) = q.pop_front() {
        let nbrs = adj.get(&u).cloned().unwrap_or_default();
        for (v, port_uv) in nbrs {
            if visited.contains(&v) {
                continue;
            }
            // Need the reverse channel v -> u for the uplink.
            let Some(&(_, port_vu)) = adj.get(&v).and_then(|l| l.iter().find(|(w, _)| *w == u))
            else {
                continue;
            };
            parent.insert(v, (u, port_vu));
            children.entry(u).or_default().push((v, port_uv));
            visited.push(v);
            q.push_back(v);
        }
    }
    if visited.len() != routers.len() {
        return Err(BuildError::Region(format!(
            "irregular region {rect} is not bidirectionally connected"
        )));
    }

    // Ancestor chains for LCA routing.
    let chain = |mut r: RouterId| -> Vec<RouterId> {
        let mut c = vec![r];
        while let Some(&(p, _)) = parent.get(&r) {
            c.push(p);
            r = p;
        }
        c
    };

    let nodes: Vec<NodeId> = nodes_of(&grid, rect.iter());
    let attach: HashMap<NodeId, (RouterId, PortId)> = plan
        .spec
        .nis
        .iter()
        .map(|ni| (ni.node, (ni.router, ni.port)))
        .collect();

    for &r in &routers {
        let r_chain = chain(r);
        for &d in &nodes {
            let Some(&(t_router, t_port)) = attach.get(&d) else {
                continue;
            };
            let port = if r == t_router {
                t_port
            } else {
                let t_chain = chain(t_router);
                if let Some(pos) = t_chain.iter().position(|x| *x == r) {
                    // r is an ancestor of the target: go down one step.
                    let child_on_path = t_chain[pos - 1];
                    children[&r]
                        .iter()
                        .find(|(c, _)| *c == child_on_path)
                        .expect("tree child")
                        .1
                } else {
                    // Climb towards the LCA.
                    parent[&r].1
                }
            };
            let _ = r_chain;
            for v in 0..cfg.vnets {
                plan.spec.tables.set(Vnet(v), r, d, port);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{all_pairs, check_routes_and_deadlock};
    use adaptnoc_sim::network::Network;
    use adaptnoc_sim::prelude::Packet;

    fn build(extra: &[(Coord, Coord)]) -> adaptnoc_sim::spec::NetworkSpec {
        let cfg = SimConfig::adapt_noc();
        let mut plan = ChipPlan::new(Grid::paper(), &cfg);
        irregular_region(&mut plan, Rect::new(0, 0, 4, 4), extra, None, &cfg).unwrap();
        // Cover leftover tiles so the spec validates.
        let grid = plan.grid;
        for c in grid.iter() {
            if !Rect::new(0, 0, 4, 4).contains(c) {
                plan.add_local_ni(c);
            }
        }
        plan.finish().unwrap()
    }

    fn region_nodes() -> Vec<NodeId> {
        let grid = Grid::paper();
        Rect::new(0, 0, 4, 4).iter().map(|c| grid.node(c)).collect()
    }

    #[test]
    fn plain_updown_mesh_is_deadlock_free() {
        let spec = build(&[]);
        let stats = check_routes_and_deadlock(&spec, &all_pairs(&region_nodes())).unwrap();
        assert!(stats.routes > 0);
        // Tree routing inflates hops vs XY but stays bounded.
        assert!(stats.max_hops <= 12, "max {}", stats.max_hops);
    }

    #[test]
    fn irregular_express_links_are_deadlock_free_and_used() {
        let spec = build(&[
            (Coord::new(0, 0), Coord::new(3, 0)),
            (Coord::new(0, 0), Coord::new(0, 3)),
            (Coord::new(3, 1), Coord::new(3, 3)),
        ]);
        let stats = check_routes_and_deadlock(&spec, &all_pairs(&region_nodes())).unwrap();
        assert!(stats.routes > 0);
        assert!(spec
            .channels
            .iter()
            .any(|c| c.kind == ChannelKind::Adaptable && c.length_mm >= 2.0));
    }

    #[test]
    fn irregular_network_carries_traffic() {
        let spec = build(&[(Coord::new(0, 0), Coord::new(3, 0))]);
        let cfg = SimConfig::adapt_noc();
        let mut net = Network::new(spec, cfg).unwrap();
        let nodes = region_nodes();
        let mut id = 0;
        for &s in &nodes {
            for &d in &nodes {
                if s != d {
                    id += 1;
                    net.inject(Packet::request(id, s, d, 0)).unwrap();
                }
            }
        }
        net.run(20_000);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.totals().stats.packets, id);
        assert_eq!(net.unroutable_events(), 0);
    }

    #[test]
    fn diagonal_or_external_links_rejected() {
        let cfg = SimConfig::adapt_noc();
        let mut plan = ChipPlan::new(Grid::paper(), &cfg);
        let err = irregular_region(
            &mut plan,
            Rect::new(0, 0, 4, 4),
            &[(Coord::new(0, 0), Coord::new(2, 2))],
            None,
            &cfg,
        );
        assert!(matches!(err, Err(BuildError::Region(_))));

        let mut plan = ChipPlan::new(Grid::paper(), &cfg);
        let err = irregular_region(
            &mut plan,
            Rect::new(0, 0, 4, 4),
            &[(Coord::new(0, 0), Coord::new(7, 0))],
            None,
            &cfg,
        );
        assert!(matches!(err, Err(BuildError::Region(_))));
    }

    #[test]
    fn custom_root_changes_tree_shape() {
        let cfg = SimConfig::adapt_noc();
        let build_with_root = |root: Coord| {
            let mut plan = ChipPlan::new(Grid::paper(), &cfg);
            irregular_region(&mut plan, Rect::new(0, 0, 4, 4), &[], Some(root), &cfg).unwrap();
            for c in Grid::paper().iter() {
                if !Rect::new(0, 0, 4, 4).contains(c) {
                    plan.add_local_ni(c);
                }
            }
            plan.finish().unwrap()
        };
        let corner = build_with_root(Coord::new(0, 0));
        let center = build_with_root(Coord::new(1, 1));
        let pairs = all_pairs(&region_nodes());
        let s1 = check_routes_and_deadlock(&corner, &pairs).unwrap();
        let s2 = check_routes_and_deadlock(&center, &pairs).unwrap();
        // A central root shortens worst-case up*/down* routes.
        assert!(s2.avg_hops() <= s1.avg_hops());
    }
}
