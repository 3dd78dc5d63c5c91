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
use adaptnoc_sim::routing::{ClassMap, NO_ROUTE};
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
    fill_impl(
        spec,
        grid,
        &[vnet],
        routers,
        nodes,
        best_effort,
        false,
        None,
    )
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
    fill_impl(spec, grid, &[vnet], routers, nodes, best_effort, true, None)
}

/// [`fill_dor_tables`] on the first `vnets` vnets at once. The routes do
/// not depend on the vnet, so they are solved once and each router's rows
/// share one set of port bytes.
///
/// # Errors
///
/// As [`fill_dor_tables`].
pub fn fill_dor_tables_all_vnets(
    spec: &mut NetworkSpec,
    grid: &Grid,
    vnets: u8,
    routers: &[RouterId],
    nodes: &[NodeId],
    best_effort: bool,
) -> Result<(), BuildError> {
    let vnets: Vec<Vnet> = (0..vnets).map(Vnet).collect();
    fill_impl(spec, grid, &vnets, routers, nodes, best_effort, false, None)
}

/// [`fill_dor_tables_all_vnets`] (unreachable pairs are errors) whose rows
/// also route the destinations of `extra`, committed in the same row write.
pub(crate) fn fill_dor_tables_with(
    spec: &mut NetworkSpec,
    grid: &Grid,
    vnets: u8,
    routers: &[RouterId],
    nodes: &[NodeId],
    extra: &ExtraPorts,
) -> Result<(), BuildError> {
    let vnets: Vec<Vnet> = (0..vnets).map(Vnet).collect();
    fill_impl(
        spec,
        grid,
        &vnets,
        routers,
        nodes,
        false,
        false,
        Some(extra),
    )
}

/// Ports for destinations outside a fill's own `nodes` that every filled
/// row carries as further classes — the remote chips of a chiplet fabric,
/// reached through per-router gateway ports.
pub(crate) struct ExtraPorts<'a> {
    /// Per node, which of a row's `slots` extra ports it reads. The
    /// fill's own destinations ignore theirs.
    pub slot: &'a [u16],
    /// Extra ports per row.
    pub slots: usize,
    /// Appends the `slots` extra ports of a router ([`NO_ROUTE`] for none).
    pub ports: &'a dyn Fn(RouterId, &mut Vec<u8>),
}

/// What a fill keeps per grid column.
#[derive(Clone, Default)]
struct Col {
    /// Destinations attached in this column.
    targets: usize,
    /// Their class in the rows of every other column's routers.
    class: usize,
    /// Where they start in the column-ordered destination list.
    first: usize,
}

/// One destination of a fill: where its node attaches.
struct Target {
    node: usize,
    router: RouterId,
    port: PortId,
    at: Coord,
    /// Position among the fill's destinations attached in the same column.
    rank: usize,
}

/// Solved next-hop vectors of one dimension's lines, indexed
/// `line * line_len + target position`; a slot is filled the first time a
/// router needs it. Sized by the grid, so a small chip pays for a small
/// cache.
type LineCache = Vec<Option<Vec<Option<PortId>>>>;

/// A dimension-ordered row is a function of few numbers: seen from a
/// router in column `cx`, every destination attached in another column
/// `x` leaves through the same port (the row-line hop towards `x`), and
/// only the destinations of column `cx` itself need a port each (the
/// column-line hop, or the NI port at their own router — concentrated NIs
/// keep theirs). So the fill commits, per router column, one class map —
/// class 0 for nodes the fill does not target, one class per destination
/// column, then `extra`'s slots, then one class per destination of the
/// own column — and per router the `~W+H` port bytes of those classes,
/// straight from the solved lines. Nothing here is `routers x nodes`
/// unless a row already holds entries, which the overlay keeps.
#[allow(clippy::too_many_arguments)]
fn fill_impl(
    spec: &mut NetworkSpec,
    grid: &Grid,
    vnets: &[Vnet],
    routers: &[RouterId],
    nodes: &[NodeId],
    best_effort: bool,
    monotone: bool,
    extra: Option<&ExtraPorts>,
) -> Result<(), BuildError> {
    let Some(&first_vnet) = vnets.first() else {
        return Ok(());
    };
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
    let mut cols_of = vec![Col::default(); w];
    let targets: Vec<Target> = nodes
        .iter()
        .filter_map(|&d| {
            let (router, port) = attach.get(d.index()).copied().flatten()?;
            let at = grid.coord(router);
            let col = &mut cols_of[at.x as usize];
            col.targets += 1;
            Some(Target {
                node: d.index(),
                router,
                port,
                at,
                rank: col.targets - 1,
            })
        })
        .collect();

    // The classes: 0, the destination columns, the extra slots, then the
    // destinations of the router's own column (`own_base + rank`).
    let (mut dst_cols, mut before) = (0, 0);
    for col in cols_of.iter_mut().filter(|col| col.targets > 0) {
        dst_cols += 1;
        col.class = dst_cols;
        col.first = before;
        before += col.targets;
    }
    let extra_base = 1 + dst_cols;
    let own_base = extra_base + extra.map_or(0, |e| e.slots);
    let class_of = |t: &Target, cx: usize| {
        if t.at.x as usize != cx {
            cols_of[t.at.x as usize].class
        } else {
            own_base + t.rank
        }
    };
    // The destinations column by column, in rank order.
    let mut by_col = vec![0usize; targets.len()];
    for (i, t) in targets.iter().enumerate() {
        by_col[cols_of[t.at.x as usize].first + t.rank] = i;
    }

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

    // The class map under construction: the non-destinations' classes are
    // the same for every column, the destinations' are rewritten per
    // column before the map is registered.
    let mut map: Vec<u16> = match extra {
        Some(e) => e
            .slot
            .iter()
            .map(|&s| class_id(extra_base + s as usize))
            .collect(),
        None => vec![0; spec.num_nodes],
    };
    let mut col_map: Vec<Option<ClassMap>> = vec![None; w];
    let mut ports: Vec<u8> = Vec::new();
    let byte = |hop: Option<PortId>| hop.map_or(NO_ROUTE, |p| p.0);

    for &r in routers {
        let rc = grid.coord(r);
        let (rx, ry) = (rc.x as usize, rc.y as usize);
        let row_lines = &mut row_cache[ry * w..(ry + 1) * w];
        let col_lines = &mut col_cache[rx * h..(rx + 1) * h];

        // The row's port per class. The class of the router's own column
        // stays empty: its destinations have a class each.
        ports.clear();
        ports.push(NO_ROUTE);
        let mut stranded = false;
        for (x, _) in cols_of.iter().enumerate().filter(|(_, c)| c.targets > 0) {
            let hop = (x != rx).then(|| {
                row_lines[x].get_or_insert_with(|| line_next_hops(&rows[ry], x as u8, monotone))[rx]
            });
            stranded |= hop == Some(None);
            ports.push(byte(hop.flatten()));
        }
        if let Some(e) = extra {
            (e.ports)(r, &mut ports);
        }
        let own = &cols_of[rx];
        for t in by_col[own.first..][..own.targets]
            .iter()
            .map(|&i| &targets[i])
        {
            ports.push(byte(if t.router == r {
                Some(t.port)
            } else {
                col_lines[t.at.y as usize]
                    .get_or_insert_with(|| line_next_hops(&cols[rx], t.at.y, monotone))[ry]
            }));
        }
        stranded |= ports[own_base..].contains(&NO_ROUTE);

        if stranded && !best_effort {
            // Report the first unreachable destination in `nodes` order,
            // behind the entries of the ones before it.
            let row = spec.tables.row_mut(first_vnet, r);
            for t in &targets {
                match ports[class_of(t, rx)] {
                    NO_ROUTE => {
                        return Err(BuildError::Unreachable {
                            router: r,
                            dst: NodeId(t.node as u16),
                        })
                    }
                    port => row[t.node] = port,
                }
            }
        }
        let class_map = *col_map[rx].get_or_insert_with(|| {
            for t in &targets {
                map[t.node] = class_id(class_of(t, rx));
            }
            spec.tables.class_map(&map)
        });
        for &vnet in vnets {
            spec.tables.merge_row(vnet, r, class_map, &ports);
        }
    }
    Ok(())
}

fn class_id(class: usize) -> u16 {
    u16::try_from(class).expect("a dimension-ordered row has more than 65536 classes")
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
