//! Route and deadlock validation.
//!
//! Two checks back the deadlock-free reconfiguration story (Sec. II-C):
//!
//! * **Route termination**: walking the routing tables from any source to
//!   any destination terminates at the destination's NI (no loops, no
//!   missing entries).
//! * **Channel-dependency-graph acyclicity** (Dally/Towles): for every path
//!   the tables can produce, consecutive channel holds create dependencies;
//!   the graph over `(channel, VC class)` nodes must be acyclic per virtual
//!   network. Dateline class switches (torus wraps) are modeled exactly as
//!   the simulator applies them.

use crate::geom::{Coord, Grid};
use adaptnoc_sim::ids::{ChannelId, NodeId, PortId, RouterId, Vnet};
use adaptnoc_sim::spec::NetworkSpec;
use std::collections::{HashMap, HashSet};

/// A walked route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePath {
    /// Channels traversed, in order.
    pub channels: Vec<ChannelId>,
    /// Router-to-router hops (= `channels.len()`).
    pub hops: usize,
    /// Sum of channel latencies (a zero-load lower bound without router
    /// pipeline delays).
    pub wire_latency: u32,
}

/// Validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A routing entry is missing.
    NoRoute {
        /// Router with the missing entry.
        router: RouterId,
        /// Destination.
        dst: NodeId,
        /// Virtual network.
        vnet: Vnet,
    },
    /// A routing entry points to a port with no channel and no matching NI.
    BadPort {
        /// Router with the bad entry.
        router: RouterId,
        /// The port.
        port: PortId,
    },
    /// The walk exceeded the hop budget (a routing loop).
    Loop {
        /// Source of the looping route.
        src: NodeId,
        /// Destination of the looping route.
        dst: NodeId,
        /// Virtual network.
        vnet: Vnet,
    },
    /// A VC-class-1 packet would be allocated at a router without a VC
    /// split (the dateline would be ineffective).
    MissingVcSplit {
        /// The offending router.
        router: RouterId,
    },
    /// The channel dependency graph contains a cycle.
    DependencyCycle {
        /// Virtual network with the cycle.
        vnet: Vnet,
        /// One channel on the cycle.
        witness: ChannelId,
    },
    /// A node has no NI.
    NoNi(NodeId),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::NoRoute { router, dst, vnet } => {
                write!(f, "no route at {router} towards {dst} on {vnet}")
            }
            ValidateError::BadPort { router, port } => {
                write!(f, "route at {router} points to unwired port {port}")
            }
            ValidateError::Loop { src, dst, vnet } => {
                write!(f, "routing loop from {src} to {dst} on {vnet}")
            }
            ValidateError::MissingVcSplit { router } => {
                write!(f, "dateline class used at {router} without a VC split")
            }
            ValidateError::DependencyCycle { vnet, witness } => {
                write!(f, "channel dependency cycle on {vnet} through {witness}")
            }
            ValidateError::NoNi(n) => write!(f, "node {n} has no network interface"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// What a route walk looks up in a spec besides the tables, indexed once
/// so that an all-pairs check does not rebuild it per pair.
struct RouteIndex<'a> {
    spec: &'a NetworkSpec,
    /// `out[router * stride + port]`: the channel leaving that port
    /// (`u32::MAX` for none; the last of several wins).
    out: Vec<u32>,
    stride: usize,
    /// The attachment point of each node (the first of several NIs wins).
    ni: Vec<Option<(RouterId, PortId)>>,
}

impl<'a> RouteIndex<'a> {
    fn new(spec: &'a NetworkSpec) -> Self {
        let srcs = || spec.channels.iter().map(|c| c.src);
        let stride = srcs().map(|s| s.port.index() + 1).max().unwrap_or(0);
        let routers = srcs().map(|s| s.router.index() + 1).max().unwrap_or(0);
        let mut out = vec![u32::MAX; routers * stride];
        for (i, src) in srcs().enumerate() {
            out[src.router.index() * stride + src.port.index()] = i as u32;
        }
        let nodes = spec.nis.iter().map(|ni| ni.node.index() + 1).max();
        let mut ni = vec![None; nodes.unwrap_or(0)];
        for n in spec.nis.iter().rev() {
            ni[n.node.index()] = Some((n.router, n.port));
        }
        RouteIndex {
            spec,
            out,
            stride,
            ni,
        }
    }

    fn ni_of(&self, node: NodeId) -> Result<(RouterId, PortId), ValidateError> {
        let ni = self.ni.get(node.index()).copied().flatten();
        ni.ok_or(ValidateError::NoNi(node))
    }

    fn channel_out(&self, router: RouterId, port: PortId) -> Option<usize> {
        let at = (port.index() < self.stride).then(|| router.index() * self.stride + port.index());
        let ci = *self.out.get(at?)?;
        (ci != u32::MAX).then_some(ci as usize)
    }

    fn walk(&self, vnet: Vnet, src: NodeId, dst: NodeId) -> Result<RoutePath, ValidateError> {
        let spec = self.spec;
        let (mut cur, _) = self.ni_of(src)?;
        let dst_ni = self.ni_of(dst)?;
        let mut path = RoutePath {
            channels: Vec::new(),
            hops: 0,
            wire_latency: 0,
        };
        let budget = spec.routers.len() * 4 + 8;
        loop {
            let port = spec
                .tables
                .lookup(vnet, cur, dst)
                .ok_or(ValidateError::NoRoute {
                    router: cur,
                    dst,
                    vnet,
                })?;
            if (cur, port) == dst_ni {
                return Ok(path);
            }
            let Some(ci) = self.channel_out(cur, port) else {
                return Err(ValidateError::BadPort { router: cur, port });
            };
            let ch = &spec.channels[ci];
            path.channels.push(ChannelId(ci as u32));
            path.hops += 1;
            path.wire_latency += ch.latency as u32;
            cur = ch.dst.router;
            if path.hops > budget {
                return Err(ValidateError::Loop { src, dst, vnet });
            }
        }
    }
}

/// Walks the route from `src` to `dst` on `vnet`, mirroring the simulator's
/// per-hop table lookups and VC-class updates.
///
/// # Errors
///
/// Returns [`ValidateError`] on missing entries, unwired ports, or loops.
pub fn walk_route(
    spec: &NetworkSpec,
    vnet: Vnet,
    src: NodeId,
    dst: NodeId,
) -> Result<RoutePath, ValidateError> {
    RouteIndex::new(spec).walk(vnet, src, dst)
}

/// Statistics over a set of validated routes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouteStats {
    /// Number of routes walked.
    pub routes: usize,
    /// Total hops.
    pub total_hops: usize,
    /// Maximum hops on any route.
    pub max_hops: usize,
}

impl RouteStats {
    /// Mean hops per route.
    pub fn avg_hops(&self) -> f64 {
        if self.routes == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.routes as f64
        }
    }
}

/// Validates every `(src, dst)` pair on every vnet: routes terminate and the
/// per-vnet channel dependency graphs (over `(channel, class)` nodes) are
/// acyclic.
///
/// # Errors
///
/// Returns the first [`ValidateError`] found.
pub fn check_routes_and_deadlock(
    spec: &NetworkSpec,
    pairs: &[(NodeId, NodeId)],
) -> Result<RouteStats, ValidateError> {
    let mut stats = RouteStats::default();
    let index = RouteIndex::new(spec);
    for v in 0..spec.tables.vnets() as u8 {
        let vnet = Vnet(v);
        // Dependency edges between (channel, class) nodes.
        let mut deps: HashMap<(u32, u8), HashSet<(u32, u8)>> = HashMap::new();
        for &(src, dst) in pairs {
            if src == dst {
                continue;
            }
            let path = index.walk(vnet, src, dst)?;
            stats.routes += 1;
            stats.total_hops += path.hops;
            stats.max_hops = stats.max_hops.max(path.hops);

            let mut class = 0u8;
            let mut last_dim = adaptnoc_sim::spec::DIM_NONE;
            let mut prev: Option<(u32, u8)> = None;
            for &ch_id in &path.channels {
                let ch = &spec.channels[ch_id.index()];
                class = ch.class_after(class, last_dim);
                last_dim = ch.dim();
                if class > 0 {
                    // The upstream router allocates the class-restricted VC;
                    // it must have a split configured.
                    let up = ch.src.router;
                    if spec.routers[up.index()].vc_split.is_none() {
                        return Err(ValidateError::MissingVcSplit { router: up });
                    }
                }
                let node = (ch_id.0, class);
                if let Some(p) = prev {
                    deps.entry(p).or_default().insert(node);
                }
                prev = Some(node);
            }
        }
        // Cycle detection (iterative DFS with colors).
        if let Some(witness) = find_cycle(&deps) {
            return Err(ValidateError::DependencyCycle {
                vnet,
                witness: ChannelId(witness),
            });
        }
    }
    Ok(stats)
}

/// Dependency graph between `(channel, class)` nodes.
type DepGraph = HashMap<(u32, u8), HashSet<(u32, u8)>>;

fn find_cycle(deps: &DepGraph) -> Option<u32> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: HashMap<(u32, u8), Color> = HashMap::new();
    let empty: HashSet<(u32, u8)> = HashSet::new();
    for &start in deps.keys() {
        if *color.get(&start).unwrap_or(&Color::White) != Color::White {
            continue;
        }
        // Iterative DFS over (node, remaining children) frames.
        type Frame = ((u32, u8), Vec<(u32, u8)>);
        let mut stack: Vec<Frame> = vec![(
            start,
            deps.get(&start).unwrap_or(&empty).iter().copied().collect(),
        )];
        color.insert(start, Color::Gray);
        while let Some((node, children)) = stack.last_mut() {
            if let Some(child) = children.pop() {
                match *color.get(&child).unwrap_or(&Color::White) {
                    Color::Gray => return Some(child.0),
                    Color::Black => {}
                    Color::White => {
                        color.insert(child, Color::Gray);
                        let next: Vec<(u32, u8)> =
                            deps.get(&child).unwrap_or(&empty).iter().copied().collect();
                        stack.push((child, next));
                    }
                }
            } else {
                color.insert(*node, Color::Black);
                stack.pop();
            }
        }
    }
    None
}

/// Per-tile-edge wiring limits for the generalized feasibility check.
///
/// The numbers are *unidirectional channels per tile edge* and mirror the
/// 45 nm metal-stack budget derived in `adaptnoc-power::wiring` (2 high-metal
/// plus 7 intermediate bidirectional 256-bit links per edge = 18 directed
/// channels, of which 4 may ride the high metal layers reserved for
/// adaptable links), extended with a package-substrate SerDes lane budget
/// for the inter-chip links of chiplet fabrics. Keeping the check here lets
/// every generated topology be validated without depending on the power
/// crate; `adaptnoc-power::wiring::analyze_wiring` remains the authoritative
/// physical model and the two are cross-checked in the bench tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WiringLimits {
    /// Max unidirectional channels over any tile edge (all wire classes).
    pub max_channels_per_edge: u32,
    /// Max unidirectional adaptable-link channels over any tile edge
    /// (pinned to the high metal layers).
    pub max_express_channels_per_edge: u32,
    /// Max unidirectional inter-chip channels over any chip-boundary edge
    /// (package SerDes lanes, not on-chip metal).
    pub max_interchip_channels_per_edge: u32,
}

impl WiringLimits {
    /// The paper-calibrated 45 nm budget (see `adaptnoc-power::params`).
    pub fn paper() -> Self {
        WiringLimits {
            max_channels_per_edge: 18,
            max_express_channels_per_edge: 4,
            max_interchip_channels_per_edge: 8,
        }
    }
}

/// Wiring-feasibility report of a spec against [`WiringLimits`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WiringReport {
    /// Max unidirectional channels observed over any tile edge.
    pub max_channels_per_edge: u32,
    /// Max adaptable-link channels observed over any tile edge.
    pub max_express_channels_per_edge: u32,
    /// Max inter-chip channels observed over any chip-boundary edge.
    pub max_interchip_channels_per_edge: u32,
    /// Whether every observed maximum is within the limits.
    pub fits: bool,
}

/// Generalized wiring-budget feasibility check: routes every channel of the
/// spec dimension-ordered (x first, then y) over the tile edges of `grid`
/// and compares per-edge channel counts against `limits`. Concentration NI
/// links count on the edges they cross; inter-chip channels count against
/// the separate substrate-lane limit of the chip edge they cross. This is
/// the check every generated topology (sparse Hamming, chiplet fabrics,
/// custom irregular regions) must pass before it becomes a design point.
pub fn wiring_feasible(spec: &NetworkSpec, grid: &Grid, limits: &WiringLimits) -> WiringReport {
    // Edge id: ('h', x, y) between (x,y)-(x+1,y); ('v', x, y) between
    // (x,y)-(x,y+1).
    let mut all: HashMap<(char, u8, u8), u32> = HashMap::new();
    let mut express: HashMap<(char, u8, u8), u32> = HashMap::new();
    let mut interchip: HashMap<(char, u8, u8), u32> = HashMap::new();

    let mut add_span = |a: Coord, b: Coord, is_express: bool| {
        let (x0, x1) = (a.x.min(b.x), a.x.max(b.x));
        for x in x0..x1 {
            let e = ('h', x, a.y);
            *all.entry(e).or_insert(0) += 1;
            if is_express {
                *express.entry(e).or_insert(0) += 1;
            }
        }
        let (y0, y1) = (a.y.min(b.y), a.y.max(b.y));
        for y in y0..y1 {
            let e = ('v', b.x, y);
            *all.entry(e).or_insert(0) += 1;
            if is_express {
                *express.entry(e).or_insert(0) += 1;
            }
        }
    };

    for ch in &spec.channels {
        let a = grid.coord(ch.src.router);
        let b = grid.coord(ch.dst.router);
        if ch.kind == adaptnoc_sim::spec::ChannelKind::InterChip {
            let e = if a.y == b.y {
                ('h', a.x.min(b.x), a.y)
            } else {
                ('v', a.x, a.y.min(b.y))
            };
            *interchip.entry(e).or_insert(0) += 1;
            continue;
        }
        add_span(a, b, ch.kind.is_adaptable());
    }
    for ni in &spec.nis {
        if ni.concentration {
            add_span(grid.node_coord(ni.node), grid.coord(ni.router), false);
        }
    }

    let max = |m: &HashMap<(char, u8, u8), u32>| m.values().copied().max().unwrap_or(0);
    let report = WiringReport {
        max_channels_per_edge: max(&all),
        max_express_channels_per_edge: max(&express),
        max_interchip_channels_per_edge: max(&interchip),
        fits: false,
    };
    WiringReport {
        fits: report.max_channels_per_edge <= limits.max_channels_per_edge
            && report.max_express_channels_per_edge <= limits.max_express_channels_per_edge
            && report.max_interchip_channels_per_edge <= limits.max_interchip_channels_per_edge,
        ..report
    }
}

/// All ordered pairs among `nodes`.
pub fn all_pairs(nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut v = Vec::with_capacity(nodes.len() * nodes.len());
    for &a in nodes {
        for &b in nodes {
            if a != b {
                v.push((a, b));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::mesh_chip;
    use crate::geom::{Coord, Grid, Rect};
    use adaptnoc_sim::config::SimConfig;

    #[test]
    fn mesh_chip_routes_terminate_and_are_deadlock_free() {
        let grid = Grid::new(4, 4);
        let spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
        let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
        let stats = check_routes_and_deadlock(&spec, &all_pairs(&nodes)).unwrap();
        assert_eq!(stats.routes, 2 * 16 * 15);
        // Mesh diameter of 4x4 is 6.
        assert_eq!(stats.max_hops, 6);
        assert!((stats.avg_hops() - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn walk_route_reports_hops() {
        let grid = Grid::new(4, 4);
        let spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
        let a = grid.node(Coord::new(0, 0));
        let b = grid.node(Coord::new(3, 3));
        let p = walk_route(&spec, Vnet::REQUEST, a, b).unwrap();
        assert_eq!(p.hops, 6);
        assert_eq!(p.wire_latency, 6);
    }

    /// The all-pairs check walks against indexes built once; `walk_route`
    /// builds them per call. Same routes, same first error — over
    /// concentrated NIs, gated routers, datelines and a tree overlay.
    #[test]
    fn all_pairs_check_agrees_with_single_walks() {
        use crate::regions::{RegionTopology, TopologyKind};
        let cfg = SimConfig::adapt_noc();
        let grid = Grid::paper();
        let rects = [
            (Rect::new(0, 0, 4, 4), TopologyKind::Cmesh),
            (Rect::new(4, 0, 4, 4), TopologyKind::Torus),
            (Rect::new(0, 4, 8, 4), TopologyKind::Tree),
        ];
        let regions = rects.map(|(rect, kind)| RegionTopology::new(rect, kind));
        let mut spec = crate::chip::build_chip_spec(grid, &regions, &cfg).unwrap();
        // Regions are isolated: pairs stay inside one.
        let pairs: Vec<(NodeId, NodeId)> = rects
            .iter()
            .flat_map(|(rect, _)| {
                let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
                all_pairs(&nodes)
            })
            .collect();
        let walks = |spec: &NetworkSpec| -> Result<RouteStats, ValidateError> {
            let mut stats = RouteStats::default();
            for v in 0..2 {
                for &(a, b) in &pairs {
                    let path = walk_route(spec, Vnet(v), a, b)?;
                    stats.routes += 1;
                    stats.total_hops += path.hops;
                    stats.max_hops = stats.max_hops.max(path.hops);
                }
            }
            Ok(stats)
        };
        let stats = check_routes_and_deadlock(&spec, &pairs).unwrap();
        assert_eq!(Ok(stats), walks(&spec));
        assert_eq!(stats.routes, 2 * pairs.len());

        let (a, b) = pairs[pairs.len() / 2];
        spec.tables
            .clear(Vnet::REPLY, spec.ni_of(a).unwrap().router, b);
        let err = check_routes_and_deadlock(&spec, &pairs).unwrap_err();
        assert!(matches!(err, ValidateError::NoRoute { dst, .. } if dst == b));
        assert_eq!(Err(err), walks(&spec));
    }

    #[test]
    fn broken_table_detected_as_no_route() {
        let grid = Grid::new(3, 3);
        let mut spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
        let a = grid.node(Coord::new(0, 0));
        let b = grid.node(Coord::new(2, 2));
        spec.tables
            .clear(Vnet::REQUEST, grid.router(Coord::new(1, 0)), b);
        let err = walk_route(&spec, Vnet::REQUEST, a, b);
        assert!(matches!(err, Err(ValidateError::NoRoute { .. })));
    }

    #[test]
    fn routing_loop_detected() {
        let grid = Grid::new(3, 1);
        let mut spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
        let a = grid.node(Coord::new(0, 0));
        let b = grid.node(Coord::new(2, 0));
        // Make router 1 bounce traffic back west.
        spec.tables.set(
            Vnet::REQUEST,
            grid.router(Coord::new(1, 0)),
            b,
            adaptnoc_sim::ids::Direction::West.port(),
        );
        let err = walk_route(&spec, Vnet::REQUEST, a, b);
        assert!(matches!(err, Err(ValidateError::Loop { .. })));
    }

    #[test]
    fn cycle_finder_detects_simple_cycle() {
        let mut deps: HashMap<(u32, u8), HashSet<(u32, u8)>> = HashMap::new();
        deps.entry((0, 0)).or_default().insert((1, 0));
        deps.entry((1, 0)).or_default().insert((2, 0));
        deps.entry((2, 0)).or_default().insert((0, 0));
        assert!(find_cycle(&deps).is_some());
    }

    #[test]
    fn cycle_finder_accepts_dag() {
        let mut deps: HashMap<(u32, u8), HashSet<(u32, u8)>> = HashMap::new();
        deps.entry((0, 0)).or_default().insert((1, 0));
        deps.entry((0, 0)).or_default().insert((2, 0));
        deps.entry((1, 0)).or_default().insert((2, 0));
        assert!(find_cycle(&deps).is_none());
    }

    #[test]
    fn class_split_distinguishes_nodes() {
        // Same channels, different classes: no cycle.
        let mut deps: HashMap<(u32, u8), HashSet<(u32, u8)>> = HashMap::new();
        deps.entry((0, 0)).or_default().insert((1, 0));
        deps.entry((1, 0)).or_default().insert((0, 1));
        deps.entry((0, 1)).or_default().insert((1, 1));
        assert!(find_cycle(&deps).is_none());
    }

    #[test]
    fn all_pairs_excludes_self() {
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let pairs = all_pairs(&nodes);
        assert_eq!(pairs.len(), 6);
        assert!(pairs.iter().all(|(a, b)| a != b));
    }
}
