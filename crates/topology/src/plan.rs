//! Incremental chip-spec construction with port bookkeeping.
//!
//! A [`ChipPlan`] wraps a growing [`NetworkSpec`] and tracks which router
//! ports are already wired, mirroring the physical constraint of the
//! adaptable router (Sec. II-A1): each input/output port mux selects exactly
//! one link, so no port may carry two channels.

use crate::geom::{Coord, Grid};
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::{ChannelId, NodeId, PortId, RouterId, LOCAL_PORT};
use adaptnoc_sim::spec::{ChannelKind, ChannelSpec, NetworkSpec, NiSpec, PortRef, SpecError};
use std::collections::HashSet;

/// Cycles a flit needs to traverse `mm` millimeters of high-metal wiring
/// (1 cycle per 4 mm, Sec. IV-A), minimum one cycle.
pub fn express_latency(mm: f32) -> u8 {
    ((mm / 4.0).ceil() as u8).max(1)
}

/// Errors during topology construction.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A port was requested twice.
    PortInUse(PortRef),
    /// No free direction port remained on a router that needed one.
    NoFreePort(RouterId),
    /// Two tiles expected to be adjacent are not.
    NotAdjacent(Coord, Coord),
    /// A region constraint failed (dimensions, alignment, fit).
    Region(String),
    /// A destination is unreachable from a router during table fill.
    Unreachable {
        /// The stranded router.
        router: RouterId,
        /// The unreachable destination.
        dst: NodeId,
    },
    /// The finished spec failed validation.
    Spec(SpecError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::PortInUse(p) => write!(f, "port {} of {} already wired", p.port, p.router),
            BuildError::NoFreePort(r) => write!(f, "no free direction port on {r}"),
            BuildError::NotAdjacent(a, b) => write!(f, "tiles {a} and {b} are not adjacent"),
            BuildError::Region(m) => write!(f, "region constraint: {m}"),
            BuildError::Unreachable { router, dst } => {
                write!(f, "no route from {router} to {dst}")
            }
            BuildError::Spec(e) => write!(f, "spec validation failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SpecError> for BuildError {
    fn from(e: SpecError) -> Self {
        BuildError::Spec(e)
    }
}

/// A chip spec under construction.
#[derive(Debug, Clone)]
pub struct ChipPlan {
    /// The chip grid.
    pub grid: Grid,
    /// The spec being built.
    pub spec: NetworkSpec,
    out_used: HashSet<PortRef>,
    in_used: HashSet<PortRef>,
    ni_ports: HashSet<PortRef>,
}

impl ChipPlan {
    /// Starts a plan: one default 5-port router and one node per tile,
    /// everything unwired.
    pub fn new(grid: Grid, cfg: &SimConfig) -> Self {
        ChipPlan {
            grid,
            spec: NetworkSpec::new(grid.tiles(), grid.tiles(), cfg.vnets as usize),
            out_used: HashSet::new(),
            in_used: HashSet::new(),
            ni_ports: HashSet::new(),
        }
    }

    /// Whether an output port is still free.
    pub fn out_free(&self, p: PortRef) -> bool {
        !self.out_used.contains(&p) && !self.ni_ports.contains(&p)
    }

    /// Whether an input port is still free.
    pub fn in_free(&self, p: PortRef) -> bool {
        !self.in_used.contains(&p) && !self.ni_ports.contains(&p)
    }

    /// First free direction (non-local) output port of `r`, if any.
    pub fn free_out_port(&self, r: RouterId) -> Option<PortId> {
        (0..4u8)
            .map(PortId)
            .find(|&p| self.out_free(PortRef::new(r, p)))
    }

    /// First free direction (non-local) input port of `r`, if any.
    pub fn free_in_port(&self, r: RouterId) -> Option<PortId> {
        (0..4u8)
            .map(PortId)
            .find(|&p| self.in_free(PortRef::new(r, p)))
    }

    /// Adds a channel, enforcing port exclusivity.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::PortInUse`] on a port conflict.
    pub fn add_channel(&mut self, ch: ChannelSpec) -> Result<ChannelId, BuildError> {
        if !self.out_free(ch.src) {
            return Err(BuildError::PortInUse(ch.src));
        }
        if !self.in_free(ch.dst) {
            return Err(BuildError::PortInUse(ch.dst));
        }
        self.out_used.insert(ch.src);
        self.in_used.insert(ch.dst);
        Ok(self.spec.add_channel(ch))
    }

    /// Adds the bidirectional mesh link pair between two adjacent tiles,
    /// using the conventional direction ports.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::NotAdjacent`] for non-adjacent tiles or
    /// [`BuildError::PortInUse`] on a port conflict.
    pub fn add_mesh_link(&mut self, a: Coord, b: Coord) -> Result<(), BuildError> {
        if a.manhattan(b) != 1 {
            return Err(BuildError::NotAdjacent(a, b));
        }
        let dir = a.direction_to(b).expect("adjacent tiles share a dimension");
        let ra = self.grid.router(a);
        let rb = self.grid.router(b);
        let fwd = ChannelSpec {
            src: PortRef::new(ra, dir.port()),
            dst: PortRef::new(rb, dir.opposite().port()),
            latency: 1,
            length_mm: 1.0,
            dateline: false,
            dim_y: !dir.is_x(),
            kind: ChannelKind::Mesh,
        };
        let rev = ChannelSpec {
            src: PortRef::new(rb, dir.opposite().port()),
            dst: PortRef::new(ra, dir.port()),
            ..fwd
        };
        self.add_channel(fwd)?;
        self.add_channel(rev)?;
        Ok(())
    }

    /// Adds an express/adaptable channel between two routers in the same row
    /// or column, attaching to explicitly chosen ports.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::PortInUse`] on a port conflict.
    pub fn add_express(
        &mut self,
        src: PortRef,
        dst: PortRef,
        length_mm: f32,
        kind: ChannelKind,
        dateline: bool,
        dim_y: bool,
    ) -> Result<ChannelId, BuildError> {
        self.add_channel(ChannelSpec {
            src,
            dst,
            latency: express_latency(length_mm),
            length_mm,
            dateline,
            dim_y,
            kind,
        })
    }

    /// Attaches the node of tile `c` to its own router's local port.
    pub fn add_local_ni(&mut self, c: Coord) {
        let r = self.grid.router(c);
        self.spec
            .add_ni(NiSpec::local(self.grid.node(c), r, LOCAL_PORT));
        self.ni_ports.insert(PortRef::new(r, LOCAL_PORT));
    }

    /// Attaches the node of tile `node_tile` to the router of `router_tile`
    /// through a concentration link (external concentration, Sec. II-B1).
    pub fn add_concentrated_ni(&mut self, node_tile: Coord, router_tile: Coord) {
        let r = self.grid.router(router_tile);
        let dist = node_tile.manhattan(router_tile) as f32;
        self.spec.add_ni(NiSpec::concentrated(
            self.grid.node(node_tile),
            r,
            LOCAL_PORT,
            dist,
        ));
        self.ni_ports.insert(PortRef::new(r, LOCAL_PORT));
    }

    /// Powers off the router of tile `c` (cmesh idle routers).
    pub fn deactivate(&mut self, c: Coord) {
        self.spec.routers[self.grid.router(c).index()].active = false;
    }

    /// Sets the dateline VC split on the router of tile `c` (torus regions).
    pub fn set_vc_split(&mut self, c: Coord, split: u8) {
        self.spec.routers[self.grid.router(c).index()].vc_split = Some(split);
    }

    /// Validates and returns the finished spec.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Spec`] if validation fails.
    pub fn finish(self) -> Result<NetworkSpec, BuildError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_sim::ids::Direction;

    fn plan() -> ChipPlan {
        ChipPlan::new(Grid::new(4, 4), &SimConfig::baseline())
    }

    #[test]
    fn express_latency_per_4mm() {
        assert_eq!(express_latency(1.0), 1);
        assert_eq!(express_latency(4.0), 1);
        assert_eq!(express_latency(5.0), 2);
        assert_eq!(express_latency(7.0), 2);
        assert_eq!(express_latency(8.0), 2);
        assert_eq!(express_latency(9.0), 3);
        assert_eq!(express_latency(0.5), 1);
    }

    #[test]
    fn mesh_link_uses_conventional_ports() {
        let mut p = plan();
        p.add_mesh_link(Coord::new(0, 0), Coord::new(1, 0)).unwrap();
        let ch = &p.spec.channels[0];
        assert_eq!(ch.src.router, RouterId(0));
        assert_eq!(ch.src.port, Direction::East.port());
        assert_eq!(ch.dst.router, RouterId(1));
        assert_eq!(ch.dst.port, Direction::West.port());
        assert!(!ch.dim_y, "x links are dimension 0");
        let mut p = plan();
        p.add_mesh_link(Coord::new(0, 0), Coord::new(0, 1)).unwrap();
        assert!(p.spec.channels[0].dim_y, "y links are dimension 1");
    }

    #[test]
    fn port_conflicts_detected() {
        let mut p = plan();
        p.add_mesh_link(Coord::new(0, 0), Coord::new(1, 0)).unwrap();
        let err = p.add_express(
            PortRef::new(RouterId(0), Direction::East.port()),
            PortRef::new(RouterId(2), Direction::West.port()),
            2.0,
            ChannelKind::Adaptable,
            false,
            false,
        );
        assert!(matches!(err, Err(BuildError::PortInUse(_))));
    }

    #[test]
    fn non_adjacent_mesh_link_rejected() {
        let mut p = plan();
        let err = p.add_mesh_link(Coord::new(0, 0), Coord::new(2, 0));
        assert!(matches!(err, Err(BuildError::NotAdjacent(_, _))));
        let err = p.add_mesh_link(Coord::new(0, 0), Coord::new(1, 1));
        assert!(matches!(err, Err(BuildError::NotAdjacent(_, _))));
    }

    #[test]
    fn free_port_scan_skips_used() {
        let mut p = plan();
        // Corner router 0: after wiring east and north mesh links, no
        // further free out ports should exist among the used ones.
        p.add_mesh_link(Coord::new(0, 0), Coord::new(1, 0)).unwrap();
        assert_eq!(p.free_out_port(RouterId(0)), Some(Direction::West.port()));
        p.add_mesh_link(Coord::new(0, 0), Coord::new(0, 1)).unwrap();
        // East and North used; West and South still free.
        let f = p.free_out_port(RouterId(0)).unwrap();
        assert!(f == Direction::West.port() || f == Direction::South.port());
    }

    #[test]
    fn ni_port_blocks_channels() {
        let mut p = plan();
        p.add_local_ni(Coord::new(0, 0));
        let err = p.add_express(
            PortRef::new(RouterId(0), LOCAL_PORT),
            PortRef::new(RouterId(1), Direction::West.port()),
            1.0,
            ChannelKind::Express,
            false,
            false,
        );
        assert!(matches!(err, Err(BuildError::PortInUse(_))));
    }

    #[test]
    fn build_error_display_nonempty() {
        let errs: Vec<BuildError> = vec![
            BuildError::PortInUse(PortRef::new(RouterId(0), PortId(0))),
            BuildError::NoFreePort(RouterId(1)),
            BuildError::NotAdjacent(Coord::new(0, 0), Coord::new(2, 2)),
            BuildError::Region("too small".into()),
            BuildError::Unreachable {
                router: RouterId(0),
                dst: NodeId(1),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
