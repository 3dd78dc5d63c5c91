//! Shortcut baseline (Ogras & Marculescu, ICCAD'05; paper baseline 3):
//! a mesh augmented with a limited number of application-specific
//! long-range express links.
//!
//! The adaptable router has no spare ports, so express links can only attach
//! where direction ports are free — the outward-facing ports of boundary
//! routers. This matches the paper's observation that "the shortcut can only
//! provide a limited number of express links".

use crate::geom::{Coord, Grid, Rect};
use crate::plan::{BuildError, ChipPlan};
use crate::regions::mesh_region;
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::NodeId;
use adaptnoc_sim::spec::{ChannelKind, NetworkSpec, PortRef};
use std::collections::HashSet;

/// A weighted traffic flow used to choose express-link placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficWeight {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Relative communication volume.
    pub weight: f64,
}

/// Builds the shortcut chip: a full mesh plus bidirectional express links
/// between the given same-row/same-column router pairs. Links whose ports
/// are unavailable are skipped (the design degrades toward the mesh).
///
/// # Errors
///
/// Returns [`BuildError`] for invalid link endpoints.
pub fn shortcut_chip(
    grid: Grid,
    links: &[(Coord, Coord)],
    cfg: &SimConfig,
) -> Result<NetworkSpec, BuildError> {
    let mut plan = ChipPlan::new(grid, cfg);
    mesh_region(&mut plan, Rect::new(0, 0, grid.width, grid.height), cfg)?;

    for &(a, b) in links {
        if a.x != b.x && a.y != b.y {
            return Err(BuildError::Region(format!(
                "express link {a}-{b} must be row- or column-aligned"
            )));
        }
        if a.manhattan(b) < 2 {
            return Err(BuildError::Region(format!(
                "express link {a}-{b} must span at least 2 tiles"
            )));
        }
        let ra = grid.router(a);
        let rb = grid.router(b);
        let mm = a.manhattan(b) as f32;
        let is_y = a.x == b.x;
        // Forward direction.
        if let (Some(po), Some(pi)) = (plan.free_out_port(ra), plan.free_in_port(rb)) {
            plan.add_express(
                PortRef::new(ra, po),
                PortRef::new(rb, pi),
                mm,
                ChannelKind::Express,
                false,
                is_y,
            )?;
        }
        // Reverse direction.
        if let (Some(po), Some(pi)) = (plan.free_out_port(rb), plan.free_in_port(ra)) {
            plan.add_express(
                PortRef::new(rb, po),
                PortRef::new(ra, pi),
                mm,
                ChannelKind::Express,
                false,
                is_y,
            )?;
        }
    }

    // Rebuild tables over the augmented graph.
    let routers: Vec<_> = grid.iter().map(|c| grid.router(c)).collect();
    let nodes: Vec<_> = grid.iter().map(|c| grid.node(c)).collect();
    crate::dor::fill_dor_tables_all_vnets(
        &mut plan.spec,
        &grid,
        cfg.vnets,
        &routers,
        &nodes,
        false,
    )?;
    plan.finish()
}

/// Greedily chooses up to `max_links` express-link placements maximizing
/// traffic-weighted hop savings, restricted to feasible (boundary-line)
/// pairs with each boundary router used at most once per role.
pub fn choose_shortcut_links(
    grid: &Grid,
    traffic: &[TrafficWeight],
    max_links: usize,
) -> Vec<(Coord, Coord)> {
    // Feasible candidates: pairs on the four boundary lines.
    let mut candidates: Vec<(Coord, Coord)> = Vec::new();
    let lines: Vec<Vec<Coord>> = vec![
        (0..grid.width).map(|x| Coord::new(x, 0)).collect(),
        (0..grid.width)
            .map(|x| Coord::new(x, grid.height - 1))
            .collect(),
        (0..grid.height).map(|y| Coord::new(0, y)).collect(),
        (0..grid.height)
            .map(|y| Coord::new(grid.width - 1, y))
            .collect(),
    ];
    for line in &lines {
        for i in 0..line.len() {
            for j in i + 2..line.len() {
                candidates.push((line[i], line[j]));
            }
        }
    }

    // Score: traffic between the link's endpoint neighbourhoods, times the
    // hops it would save.
    let score = |a: Coord, b: Coord| -> f64 {
        let near = |p: Coord, q: Coord| p.manhattan(q) <= 2;
        let saved = (a.manhattan(b) - 1) as f64;
        traffic
            .iter()
            .filter(|t| {
                let sc = grid.node_coord(t.src);
                let dc = grid.node_coord(t.dst);
                (near(sc, a) && near(dc, b)) || (near(sc, b) && near(dc, a))
            })
            .map(|t| t.weight * saved)
            .sum()
    };

    let mut scored: Vec<(f64, (Coord, Coord))> = candidates
        .into_iter()
        .map(|c| (score(c.0, c.1), c))
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.1).cmp(&b.1))
    });

    let mut used: HashSet<Coord> = HashSet::new();
    let mut picked = Vec::new();
    for (s, (a, b)) in scored {
        if picked.len() >= max_links {
            break;
        }
        if s <= 0.0 {
            break;
        }
        if used.contains(&a) || used.contains(&b) {
            continue;
        }
        used.insert(a);
        used.insert(b);
        picked.push((a, b));
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortcut_adds_express_channels() {
        let grid = Grid::paper();
        let links = [(Coord::new(0, 0), Coord::new(7, 0))];
        let spec = shortcut_chip(grid, &links, &SimConfig::baseline()).unwrap();
        let express: Vec<_> = spec
            .channels
            .iter()
            .filter(|c| c.kind == ChannelKind::Express)
            .collect();
        assert_eq!(express.len(), 2, "both directions");
        assert_eq!(express[0].length_mm, 7.0);
        assert_eq!(express[0].latency, 2, "7 mm on high metal = 2 cycles");
    }

    #[test]
    fn diagonal_link_rejected() {
        let err = shortcut_chip(
            Grid::paper(),
            &[(Coord::new(0, 0), Coord::new(3, 3))],
            &SimConfig::baseline(),
        );
        assert!(matches!(err, Err(BuildError::Region(_))));
    }

    #[test]
    fn short_link_rejected() {
        let err = shortcut_chip(
            Grid::paper(),
            &[(Coord::new(0, 0), Coord::new(1, 0))],
            &SimConfig::baseline(),
        );
        assert!(matches!(err, Err(BuildError::Region(_))));
    }

    #[test]
    fn infeasible_interior_link_degrades_to_mesh() {
        // Interior routers have no free ports: link silently skipped.
        let spec = shortcut_chip(
            Grid::paper(),
            &[(Coord::new(1, 1), Coord::new(5, 1))],
            &SimConfig::baseline(),
        )
        .unwrap();
        assert!(spec.channels.iter().all(|c| c.kind != ChannelKind::Express));
    }

    #[test]
    fn choose_links_prefers_heavy_flows() {
        let grid = Grid::paper();
        let a = grid.node(Coord::new(0, 0));
        let b = grid.node(Coord::new(7, 0));
        let traffic = [TrafficWeight {
            src: a,
            dst: b,
            weight: 10.0,
        }];
        let links = choose_shortcut_links(&grid, &traffic, 4);
        assert!(!links.is_empty());
        assert_eq!(links[0], (Coord::new(0, 0), Coord::new(7, 0)));
    }

    #[test]
    fn choose_links_respects_budget_and_reuse() {
        let grid = Grid::paper();
        // Heavy uniform boundary traffic.
        let mut traffic = Vec::new();
        for x in 0..8u8 {
            for x2 in 0..8u8 {
                if x2 > x + 1 {
                    traffic.push(TrafficWeight {
                        src: grid.node(Coord::new(x, 0)),
                        dst: grid.node(Coord::new(x2, 0)),
                        weight: 1.0,
                    });
                }
            }
        }
        let links = choose_shortcut_links(&grid, &traffic, 2);
        assert!(links.len() <= 2);
        // No endpoint reused.
        let mut ends = HashSet::new();
        for (a, b) in links {
            assert!(ends.insert(a));
            assert!(ends.insert(b));
        }
    }

    #[test]
    fn zero_traffic_yields_no_links() {
        assert!(choose_shortcut_links(&Grid::paper(), &[], 4).is_empty());
    }
}
