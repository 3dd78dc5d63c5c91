//! Dimension-ordered routing-table construction over arbitrary channel
//! graphs.
//!
//! All composed topologies in the paper "adopt minimal, dimensional-ordering
//! routing (e.g., XY)" (Sec. II-C1). This module generalizes XY to channel
//! graphs containing express/adaptable links: a packet first travels within
//! its current *row* to the destination column (using whatever row channels
//! exist — mesh hops, cmesh coarse hops, or multi-tile express segments),
//! then within the destination *column* to the destination router.
//!
//! Within one dimension the next hop is chosen by a shortest-path
//! computation weighted by channel latency, restricted to edges that
//! *strictly decrease* the distance to the target. Overshooting express
//! segments remain usable (jumping past nearby routers still decreases
//! distance to a far target), but "move away first" paths are forbidden,
//! so every route terminates. Overshoot-then-return routes mix the two
//! travel directions of a line, which is safe for the regular express
//! spacings the torus/express builders emit but can close a channel
//! dependency cycle for arbitrary skip spacings. For those,
//! [`fill_dor_tables_monotone`] additionally forbids crossing the target:
//! monotone routes use a single travel direction per line, so each
//! direction's channels depend only on channels strictly further along —
//! acyclic for *any* skip placement (and still verified by
//! [`crate::validate`]).

use crate::geom::{Coord, Grid};
use crate::plan::BuildError;
use adaptnoc_sim::ids::{NodeId, PortId, RouterId, Vnet};
use adaptnoc_sim::spec::NetworkSpec;

/// One intra-dimension edge: a channel from position `from` to position
/// `to` (x positions for row graphs, y positions for column graphs).
#[derive(Debug, Clone, Copy)]
struct DimEdge {
    from: u8,
    to: u8,
    latency: u8,
    src_port: PortId,
}

/// The channel graph of one row or column: its edges grouped by the
/// position they leave from.
struct Line {
    /// Edges ordered by `from`.
    edges: Vec<DimEdge>,
    /// `edges[leave[p]..leave[p + 1]]` are the edges leaving position `p`.
    leave: Vec<usize>,
}

impl Line {
    fn new(size: usize, mut edges: Vec<DimEdge>) -> Self {
        edges.sort_by_key(|e| e.from);
        let leave = (0..=size)
            .map(|p| edges.partition_point(|e| (e.from as usize) < p))
            .collect();
        Line { edges, leave }
    }

    fn size(&self) -> usize {
        self.leave.len() - 1
    }

    fn leaving(&self, p: usize) -> &[DimEdge] {
        &self.edges[self.leave[p]..self.leave[p + 1]]
    }
}

/// Shortest-path next-hop ports within one dimension line towards `target`,
/// indexed by position. With `monotone`, target-crossing (overshooting)
/// edges are excluded.
///
/// Usable edges strictly decrease the distance to `target`, so they form a
/// DAG ordered by that distance: settling positions outwards from the
/// target finds every shortest path in one pass over the edges.
fn line_next_hops(line: &Line, target: u8, monotone: bool) -> Vec<Option<PortId>> {
    let usable = |e: &DimEdge| decreases(e, target) && (!monotone || !crosses(e, target));
    let size = line.size();
    let t = target as usize;
    let mut dist: Vec<Option<u32>> = vec![None; size];
    dist[t] = Some(0);
    let mut next = vec![None; size];
    for away in 1..size {
        for p in [t.checked_sub(away), Some(t + away).filter(|&p| p < size)]
            .into_iter()
            .flatten()
        {
            // The outgoing edge on a shortest path. Tie-break: smallest
            // remaining distance after the hop, then port id (determinism;
            // biases toward plain mesh ports).
            let best = line
                .leaving(p)
                .iter()
                .filter(|e| usable(e))
                .filter_map(|e| {
                    let cost = edge_cost(e) + dist[e.to as usize]?;
                    let over = (e.to as i32 - target as i32).unsigned_abs();
                    Some((cost, over, e.src_port.0))
                })
                .min();
            if let Some((cost, _, port)) = best {
                dist[p] = Some(cost);
                next[p] = Some(PortId(port));
            }
        }
    }
    next
}

fn edge_cost(e: &DimEdge) -> u32 {
    e.latency as u32 * 8 + 8
}

/// Whether traversing `e` strictly decreases the distance to `target`.
fn decreases(e: &DimEdge, target: u8) -> bool {
    (e.to as i32 - target as i32).unsigned_abs() < (e.from as i32 - target as i32).unsigned_abs()
}

/// Whether traversing `e` lands on the far side of `target` (overshoots).
fn crosses(e: &DimEdge, target: u8) -> bool {
    (e.to as i32 - target as i32) * (e.from as i32 - target as i32) < 0
}

/// Fills `spec.tables` for `vnet` with dimension-ordered routes covering
/// every (router, destination node) pair in `routers` × `nodes`.
///
/// When `best_effort` is true, unreachable pairs are skipped silently
/// (used for leftover tiles that host no traffic); otherwise they are
/// reported as [`BuildError::Unreachable`].
///
/// # Errors
///
/// Returns [`BuildError::Unreachable`] if a pair cannot be routed and
/// `best_effort` is false.
pub fn fill_dor_tables(
    spec: &mut NetworkSpec,
    grid: &Grid,
    vnet: Vnet,
    routers: &[RouterId],
    nodes: &[NodeId],
    best_effort: bool,
) -> Result<(), BuildError> {
    fill_impl(spec, grid, vnet, routers, nodes, best_effort, false)
}

/// [`fill_dor_tables`] restricted to *monotone* in-line moves: overshooting
/// (target-crossing) hops are excluded, so every route sticks to one travel
/// direction per line. Routes can be a few hops longer where an overshoot
/// shortcut existed, but each direction's channel dependencies only ever
/// point further along the line — the dependency graph is acyclic for
/// arbitrary express/skip placements, not just regularly spaced ones. Used
/// by the customizable sparse-Hamming generator.
///
/// # Errors
///
/// Returns [`BuildError::Unreachable`] if a pair cannot be routed and
/// `best_effort` is false.
pub fn fill_dor_tables_monotone(
    spec: &mut NetworkSpec,
    grid: &Grid,
    vnet: Vnet,
    routers: &[RouterId],
    nodes: &[NodeId],
    best_effort: bool,
) -> Result<(), BuildError> {
    fill_impl(spec, grid, vnet, routers, nodes, best_effort, true)
}

/// One destination of a fill: where its node attaches.
struct Target {
    node: usize,
    router: RouterId,
    port: PortId,
    at: Coord,
}

/// Solved next-hop vectors of one dimension's lines, indexed
/// `line * line_len + target position`; a slot is filled the first time a
/// router needs it. Sized by the grid, so a small chip pays for a small
/// cache.
type LineCache = Vec<Option<Vec<Option<PortId>>>>;

/// The table is written router-major, one contiguous row per router, and
/// every per-entry lookup (participating routers, attachment points, line
/// graphs, solved lines) is a `Vec` index: chip-scale fills are
/// `routers x nodes` entries, so anything hashed per entry dominates the
/// build.
#[allow(clippy::too_many_arguments)]
fn fill_impl(
    spec: &mut NetworkSpec,
    grid: &Grid,
    vnet: Vnet,
    routers: &[RouterId],
    nodes: &[NodeId],
    best_effort: bool,
    monotone: bool,
) -> Result<(), BuildError> {
    let (w, h) = (grid.width as usize, grid.height as usize);

    let mut in_fill = vec![false; grid.tiles()];
    for &r in routers {
        in_fill[r.index()] = true;
    }
    let participates = |r: RouterId| in_fill.get(r.index()) == Some(&true);

    // Node attachment points (the last NI of a node wins), then the
    // destinations in `nodes` order; unattached nodes get no entries.
    let mut attach: Vec<Option<(RouterId, PortId)>> = vec![None; spec.num_nodes];
    for ni in &spec.nis {
        if let Some(slot) = attach.get_mut(ni.node.index()) {
            *slot = Some((ni.router, ni.port));
        }
    }
    let targets: Vec<Target> = nodes
        .iter()
        .filter_map(|&d| {
            let (router, port) = attach.get(d.index()).copied().flatten()?;
            Some(Target {
                node: d.index(),
                router,
                port,
                at: grid.coord(router),
            })
        })
        .collect();

    // Group channels into row and column graphs (restricted to the
    // participating routers).
    let mut row_edges: Vec<Vec<DimEdge>> = vec![Vec::new(); h];
    let mut col_edges: Vec<Vec<DimEdge>> = vec![Vec::new(); w];
    for ch in &spec.channels {
        if !participates(ch.src.router) || !participates(ch.dst.router) {
            continue;
        }
        let a = grid.coord(ch.src.router);
        let b = grid.coord(ch.dst.router);
        if a.y == b.y && a.x != b.x {
            row_edges[a.y as usize].push(DimEdge {
                from: a.x,
                to: b.x,
                latency: ch.latency,
                src_port: ch.src.port,
            });
        } else if a.x == b.x && a.y != b.y {
            col_edges[a.x as usize].push(DimEdge {
                from: a.y,
                to: b.y,
                latency: ch.latency,
                src_port: ch.src.port,
            });
        }
    }

    let rows: Vec<Line> = row_edges.into_iter().map(|e| Line::new(w, e)).collect();
    let cols: Vec<Line> = col_edges.into_iter().map(|e| Line::new(h, e)).collect();

    let mut row_cache: LineCache = vec![None; h * w];
    let mut col_cache: LineCache = vec![None; w * h];

    for &r in routers {
        let rc = grid.coord(r);
        let (rx, ry) = (rc.x as usize, rc.y as usize);
        let row_lines = &mut row_cache[ry * w..(ry + 1) * w];
        let col_lines = &mut col_cache[rx * h..(rx + 1) * h];
        let row = spec.tables.row_mut(vnet, r);
        for t in &targets {
            let port = if t.router == r {
                Some(t.port)
            } else if t.at.x != rc.x {
                row_lines[t.at.x as usize]
                    .get_or_insert_with(|| line_next_hops(&rows[ry], t.at.x, monotone))[rx]
            } else {
                col_lines[t.at.y as usize]
                    .get_or_insert_with(|| line_next_hops(&cols[rx], t.at.y, monotone))[ry]
            };
            match port {
                Some(p) => row[t.node] = p.0,
                None if best_effort => {}
                None => {
                    return Err(BuildError::Unreachable {
                        router: r,
                        dst: NodeId(t.node as u16),
                    })
                }
            }
        }
    }
    Ok(())
}

/// Convenience: the routers of a coordinate iterator.
pub fn routers_of<I: IntoIterator<Item = Coord>>(grid: &Grid, coords: I) -> Vec<RouterId> {
    coords.into_iter().map(|c| grid.router(c)).collect()
}

/// Convenience: the nodes of a coordinate iterator.
pub fn nodes_of<I: IntoIterator<Item = Coord>>(grid: &Grid, coords: I) -> Vec<NodeId> {
    coords.into_iter().map(|c| grid.node(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_next_hops_simple_chain() {
        // 0 ->(p0) 1 ->(p0) 2, and reverse with p1.
        let edges = [
            DimEdge {
                from: 0,
                to: 1,
                latency: 1,
                src_port: PortId(0),
            },
            DimEdge {
                from: 1,
                to: 2,
                latency: 1,
                src_port: PortId(0),
            },
            DimEdge {
                from: 2,
                to: 1,
                latency: 1,
                src_port: PortId(1),
            },
            DimEdge {
                from: 1,
                to: 0,
                latency: 1,
                src_port: PortId(1),
            },
        ];
        let next = line_next_hops(&Line::new(3, edges.to_vec()), 2, false);
        assert_eq!(next[0], Some(PortId(0)));
        assert_eq!(next[1], Some(PortId(0)));
        assert_eq!(next[2], None);
        let next = line_next_hops(&Line::new(3, edges.to_vec()), 0, false);
        assert_eq!(next[2], Some(PortId(1)));
        assert_eq!(next[1], Some(PortId(1)));
    }

    #[test]
    fn line_next_hops_prefers_express_when_shorter() {
        // Chain 0-1-2-3 plus express 0 -> 3 (latency 1).
        let mut edges = vec![];
        for i in 0..3u8 {
            edges.push(DimEdge {
                from: i,
                to: i + 1,
                latency: 1,
                src_port: PortId(0),
            });
            edges.push(DimEdge {
                from: i + 1,
                to: i,
                latency: 1,
                src_port: PortId(1),
            });
        }
        edges.push(DimEdge {
            from: 0,
            to: 3,
            latency: 1,
            src_port: PortId(3),
        });
        let next = line_next_hops(&Line::new(4, edges.to_vec()), 3, false);
        assert_eq!(
            next[0],
            Some(PortId(3)),
            "express should win for far target"
        );
        // For target 1, the direct hop wins.
        let next = line_next_hops(&Line::new(4, edges.to_vec()), 1, false);
        assert_eq!(next[0], Some(PortId(0)));
    }

    #[test]
    fn line_next_hops_allows_overshoot_when_cheaper() {
        // Chain 0-1-...-5 plus express 0 -> 5; target 4: going express to 5
        // then back (2 steps) beats 4 mesh hops.
        let mut edges = vec![];
        for i in 0..5u8 {
            edges.push(DimEdge {
                from: i,
                to: i + 1,
                latency: 1,
                src_port: PortId(0),
            });
            edges.push(DimEdge {
                from: i + 1,
                to: i,
                latency: 1,
                src_port: PortId(1),
            });
        }
        edges.push(DimEdge {
            from: 0,
            to: 5,
            latency: 1,
            src_port: PortId(3),
        });
        let next = line_next_hops(&Line::new(6, edges.to_vec()), 4, false);
        assert_eq!(next[0], Some(PortId(3)), "overshoot path is shorter");
        assert_eq!(next[5], Some(PortId(1)), "come back from overshoot");
        // Monotone mode refuses the target-crossing express even though it
        // is cheaper: the route stays on the near side of the target.
        let next = line_next_hops(&Line::new(6, edges.to_vec()), 4, true);
        assert_eq!(next[0], Some(PortId(0)), "monotone must not cross");
        assert_eq!(next[1], Some(PortId(0)));
    }

    #[test]
    fn line_next_hops_unreachable_stays_none() {
        let edges = [DimEdge {
            from: 0,
            to: 1,
            latency: 1,
            src_port: PortId(0),
        }];
        let next = line_next_hops(&Line::new(3, edges.to_vec()), 2, false);
        assert_eq!(next[0], None);
        assert_eq!(next[1], None);
    }

    #[test]
    fn ties_prefer_monotone_paths() {
        // 0-1-2-3-4 chain and express 0->4; target 2: mesh (2 hops) vs
        // express+back (3 hops edges but higher latency?). Express latency 1:
        // express path = 1 + 2 hops back = cost 3 edges vs 2 edges -> mesh
        // wins outright. Make express reach 3: target 2 -> mesh 2 hops vs
        // express(0->3)+1 back = 2 edges: tie on edges; away penalty breaks
        // it toward mesh.
        let mut edges = vec![];
        for i in 0..4u8 {
            edges.push(DimEdge {
                from: i,
                to: i + 1,
                latency: 1,
                src_port: PortId(0),
            });
            edges.push(DimEdge {
                from: i + 1,
                to: i,
                latency: 1,
                src_port: PortId(1),
            });
        }
        edges.push(DimEdge {
            from: 0,
            to: 3,
            latency: 1,
            src_port: PortId(3),
        });
        let next = line_next_hops(&Line::new(5, edges.to_vec()), 2, false);
        assert_eq!(next[0], Some(PortId(0)), "monotone path should win the tie");
    }
}
