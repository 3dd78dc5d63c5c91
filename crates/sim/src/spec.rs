//! Declarative network description.
//!
//! A [`NetworkSpec`] fully describes a network configuration: which routers
//! are powered, how ports are wired by channels, where network interfaces
//! attach, and the routing tables. Topology builders (crate
//! `adaptnoc-topology`) compile topologies into specs; the Adapt-NoC control
//! layer reconfigures a running [`Network`](crate::network::Network) by
//! diffing one spec against the next.

use crate::ids::{ChannelId, NodeId, PortId, RouterId, Vnet};
use crate::routing::{RoutingTables, NO_ROUTE};

/// Physical class of a channel; used for power accounting and wiring-budget
/// analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// A regular nearest-neighbour mesh link.
    Mesh,
    /// A segment of an adaptable link (Sec. II-A2): may span several tiles,
    /// placed on high metal layers.
    Adaptable,
    /// A reversed adaptable-link segment (its quad-state repeaters run
    /// backwards; used by the tree topology, Sec. II-B3).
    AdaptableReversed,
    /// A concentration link connecting a core to a non-adjacent router
    /// (Sec. II-A, Fig. 2b).
    Concentration,
    /// A dedicated express link (used by the Shortcut and Flattened
    /// Butterfly baselines, which do not use adaptable links).
    Express,
    /// A serialized inter-chip link of a chiplet fabric: crosses a chip
    /// boundary through SerDes + package substrate wires instead of on-chip
    /// metal. Its `latency` carries the serialization + flight time; the
    /// SerDes is pipelined, so sustained bandwidth stays one flit per cycle
    /// on the parallel side.
    InterChip,
}

impl ChannelKind {
    /// Whether this channel is realized on the adaptable-link wires.
    pub fn is_adaptable(self) -> bool {
        matches!(
            self,
            ChannelKind::Adaptable | ChannelKind::AdaptableReversed
        )
    }
}

/// One end of a channel: a (router, port) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The router.
    pub router: RouterId,
    /// The port on that router.
    pub port: PortId,
}

impl PortRef {
    /// Creates a port reference.
    pub fn new(router: RouterId, port: PortId) -> Self {
        PortRef { router, port }
    }
}

/// A unidirectional channel between two router ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelSpec {
    /// Source (upstream) end.
    pub src: PortRef,
    /// Destination (downstream) end.
    pub dst: PortRef,
    /// Traversal latency `T_l` in cycles (>= 1). Mesh links are 1 cycle;
    /// long adaptable segments take 1 cycle per 4 mm on high metal layers
    /// (Sec. IV-A).
    pub latency: u8,
    /// Physical wire length in millimeters (1 mm per tile hop by default).
    pub length_mm: f32,
    /// Dateline marker for torus deadlock avoidance: a head flit crossing
    /// this channel switches its VC class from 0 to 1 (Sec. II-C3).
    pub dateline: bool,
    /// Whether this channel runs along the Y dimension. A head flit whose
    /// previous channel was in the *other* dimension has its VC class reset
    /// to 0 before the dateline is applied, keeping the X-ring and Y-ring
    /// datelines independent under XY ordering.
    pub dim_y: bool,
    /// Physical class.
    pub kind: ChannelKind,
}

/// Sentinel for "no previous dimension" (fresh injection).
pub const DIM_NONE: u8 = u8::MAX;

/// The sticky escape class entered at the first inter-chip crossing of a
/// chiplet fabric. Unlike the per-dimension torus class 1, it is never
/// reset by a dimension change: the packet stays in the escape VC
/// partition for the rest of its route, which splits the channel
/// dependency graph between pre- and post-crossing legs (see
/// `adaptnoc-topology`'s chiplet builder for the deadlock argument).
pub const CLASS_INTERCHIP: u8 = 2;

impl ChannelSpec {
    /// This channel's dimension id (0 = X, 1 = Y).
    pub fn dim(&self) -> u8 {
        u8::from(self.dim_y)
    }

    /// The VC class a packet of class `class` (whose previous channel had
    /// dimension `last_dim`) will carry while traversing this channel:
    /// a dimension change resets the class to 0, then a dateline crossing
    /// switches it to 1. Dateline inter-chip channels instead switch to
    /// the sticky [`CLASS_INTERCHIP`], which no later hop resets. Any
    /// non-zero class allocates from the escape VC partition of a split
    /// router.
    pub fn class_after(&self, class: u8, last_dim: u8) -> u8 {
        if class == CLASS_INTERCHIP || (self.dateline && self.kind == ChannelKind::InterChip) {
            return CLASS_INTERCHIP;
        }
        let c = if last_dim != self.dim() { 0 } else { class };
        if self.dateline {
            1
        } else {
            c
        }
    }
}

/// The identity of a channel for reconfiguration diffing: its endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelKey {
    /// Source end.
    pub src: PortRef,
    /// Destination end.
    pub dst: PortRef,
}

impl ChannelSpec {
    /// The identity key of this channel (endpoints only).
    pub fn key(&self) -> ChannelKey {
        ChannelKey {
            src: self.src,
            dst: self.dst,
        }
    }
}

/// A router in the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterSpec {
    /// Whether the router is powered on. Powered-off routers (cmesh idle
    /// routers, Sec. II-B1) may have no channels or NIs.
    pub active: bool,
    /// Number of physical ports. Adaptable routers have 5 (four directions
    /// plus local); the Flattened Butterfly's high-radix routers have more.
    pub n_ports: u8,
    /// Dateline VC-class split for output-VC allocation at this router:
    /// `Some(k)` restricts class-0 packets to VCs `[0, k)` of their vnet and
    /// class-1 packets to `[k, vcs)`. `None` lets any packet use any VC.
    /// Set by the torus builder on subNoC routers only.
    pub vc_split: Option<u8>,
}

impl Default for RouterSpec {
    fn default() -> Self {
        RouterSpec {
            active: true,
            n_ports: 5,
            vc_split: None,
        }
    }
}

/// A network-interface attachment: endpoint `node` injects/ejects through
/// `port` of `router`. Several NIs may share one port (external
/// concentration, Sec. II-B1); they then share the port's 1 flit/cycle
/// injection bandwidth, arbitrated round-robin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NiSpec {
    /// The endpoint node.
    pub node: NodeId,
    /// Router the NI attaches to.
    pub router: RouterId,
    /// Port on that router (must carry no channels).
    pub port: PortId,
    /// Whether this NI reaches its router over a concentration link
    /// (for power accounting).
    pub concentration: bool,
    /// Physical length of the core-to-router wire in millimeters (0.5 mm
    /// for a core attached to its own tile's router; the Manhattan tile
    /// distance for concentration links).
    pub link_mm: f32,
}

impl NiSpec {
    /// A plain NI: `node` attached to the local port of its own tile's
    /// router (0.5 mm wire, no concentration).
    pub fn local(node: NodeId, router: RouterId, port: PortId) -> Self {
        NiSpec {
            node,
            router,
            port,
            concentration: false,
            link_mm: 0.5,
        }
    }

    /// A concentration-link NI: `node` attached to a shared router
    /// `tile_distance` tiles away (Sec. II-B1, external concentration).
    pub fn concentrated(node: NodeId, router: RouterId, port: PortId, tile_distance: f32) -> Self {
        NiSpec {
            node,
            router,
            port,
            concentration: true,
            link_mm: tile_distance.max(0.5),
        }
    }
}

/// A complete declarative network configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// All routers (dense ids).
    pub routers: Vec<RouterSpec>,
    /// All channels.
    pub channels: Vec<ChannelSpec>,
    /// All NI attachments (one per node).
    pub nis: Vec<NiSpec>,
    /// Routing tables (`[vnet][router][dst node] -> port`).
    pub tables: RoutingTables,
    /// Number of endpoint nodes.
    pub num_nodes: usize,
}

/// Errors produced by [`NetworkSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A channel references a router id out of range.
    BadRouter(RouterId),
    /// A channel or NI references a port out of range for its router.
    BadPort(PortRef),
    /// Two channels drive the same source port, or two channels feed the
    /// same destination port.
    PortConflict(PortRef),
    /// A channel endpoint or NI sits on an inactive router.
    InactiveRouter(RouterId),
    /// A channel has zero latency.
    ZeroLatency(ChannelKey),
    /// A node has no NI or more than one NI.
    NodeNiCount(NodeId, usize),
    /// An NI shares a port with a channel.
    NiPortConflict(PortRef),
    /// A routing entry points at a port with neither an outgoing channel nor
    /// an attached NI.
    DanglingRoute {
        /// Router holding the bad entry.
        router: RouterId,
        /// Destination node of the bad entry.
        dst: NodeId,
        /// The dangling port.
        port: PortId,
    },
    /// Routing table dimensions disagree with the spec.
    TableShape,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BadRouter(r) => write!(f, "channel references unknown router {r}"),
            SpecError::BadPort(p) => write!(f, "port {} out of range on {}", p.port, p.router),
            SpecError::PortConflict(p) => {
                write!(f, "two channels share port {} of {}", p.port, p.router)
            }
            SpecError::InactiveRouter(r) => {
                write!(f, "channel or NI attached to powered-off router {r}")
            }
            SpecError::ZeroLatency(k) => write!(
                f,
                "channel {}:{} -> {}:{} has zero latency",
                k.src.router, k.src.port, k.dst.router, k.dst.port
            ),
            SpecError::NodeNiCount(n, c) => {
                write!(f, "node {n} has {c} network interfaces (expected 1)")
            }
            SpecError::NiPortConflict(p) => {
                write!(
                    f,
                    "NI shares port {} of {} with a channel",
                    p.port, p.router
                )
            }
            SpecError::DanglingRoute { router, dst, port } => write!(
                f,
                "route at {router} for {dst} points to {port} which has no channel or NI"
            ),
            SpecError::TableShape => write!(f, "routing table dimensions disagree with spec"),
        }
    }
}

impl std::error::Error for SpecError {}

impl NetworkSpec {
    /// Creates an empty spec with `routers` default 5-port routers and
    /// `num_nodes` endpoints, with unreachable routing tables for `vnets`
    /// virtual networks.
    pub fn new(routers: usize, num_nodes: usize, vnets: usize) -> Self {
        NetworkSpec {
            routers: vec![RouterSpec::default(); routers],
            channels: Vec::new(),
            nis: Vec::new(),
            tables: RoutingTables::new(vnets, routers, num_nodes),
            num_nodes,
        }
    }

    /// Adds a channel and returns its id.
    pub fn add_channel(&mut self, ch: ChannelSpec) -> ChannelId {
        self.channels.push(ch);
        ChannelId(self.channels.len() as u32 - 1)
    }

    /// Adds an NI attachment.
    pub fn add_ni(&mut self, ni: NiSpec) {
        self.nis.push(ni);
    }

    /// Finds the channel between two port references, if any.
    pub fn channel_between(&self, src: PortRef, dst: PortRef) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.src == src && c.dst == dst)
            .map(|i| ChannelId(i as u32))
    }

    /// The NI of `node`, if attached.
    pub fn ni_of(&self, node: NodeId) -> Option<&NiSpec> {
        self.nis.iter().find(|ni| ni.node == node)
    }

    /// Number of active routers.
    pub fn active_routers(&self) -> usize {
        self.routers.iter().filter(|r| r.active).count()
    }

    /// Checks structural validity: port ranges, port exclusivity, NI
    /// placement, routing-entry sanity.
    ///
    /// # Errors
    ///
    /// Returns the first violation found; see [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.tables.routers() != self.routers.len() || self.tables.nodes() != self.num_nodes {
            return Err(SpecError::TableShape);
        }
        let port_ok = |p: PortRef| -> Result<(), SpecError> {
            let r = self
                .routers
                .get(p.router.index())
                .ok_or(SpecError::BadRouter(p.router))?;
            if p.port.0 >= r.n_ports {
                return Err(SpecError::BadPort(p));
            }
            if !r.active {
                return Err(SpecError::InactiveRouter(p.router));
            }
            Ok(())
        };

        let mut src_used = vec![PortSet::default(); self.routers.len()];
        let mut dst_used = vec![PortSet::default(); self.routers.len()];
        for ch in &self.channels {
            port_ok(ch.src)?;
            port_ok(ch.dst)?;
            if ch.latency == 0 {
                return Err(SpecError::ZeroLatency(ch.key()));
            }
            if !src_used[ch.src.router.index()].insert(ch.src.port.0) {
                return Err(SpecError::PortConflict(ch.src));
            }
            if !dst_used[ch.dst.router.index()].insert(ch.dst.port.0) {
                return Err(SpecError::PortConflict(ch.dst));
            }
        }

        let mut ni_count = vec![0usize; self.num_nodes];
        let mut ni_ports = vec![PortSet::default(); self.routers.len()];
        for ni in &self.nis {
            if ni.node.index() >= self.num_nodes {
                return Err(SpecError::NodeNiCount(ni.node, 0));
            }
            let pr = PortRef::new(ni.router, ni.port);
            port_ok(pr)?;
            let r = ni.router.index();
            if src_used[r].contains(ni.port.0) || dst_used[r].contains(ni.port.0) {
                return Err(SpecError::NiPortConflict(pr));
            }
            ni_ports[r].insert(ni.port.0);
            ni_count[ni.node.index()] += 1;
        }
        for (n, &c) in ni_count.iter().enumerate() {
            if c != 1 {
                return Err(SpecError::NodeNiCount(NodeId(n as u16), c));
            }
        }

        // Every routing entry must lead to an outgoing channel or a local
        // (NI-bearing) port. Per router that is one set — out-channel
        // ports, NI ports and the `NO_ROUTE` byte (never a port id: ids
        // stay below `n_ports <= 255`) — and the check is a scan of the
        // class ports of the router's rows against it. Only a row with a
        // port outside the set is expanded, to name the first destination
        // that reads it (none does if its class is unused).
        let mut routable = src_used;
        for (set, nis) in routable.iter_mut().zip(&ni_ports) {
            set.union(nis);
            set.insert(NO_ROUTE);
        }
        for v in 0..self.tables.vnets() {
            for (r, (set, rs)) in routable.iter().zip(&self.routers).enumerate() {
                let (vnet, router) = (Vnet(v as u8), RouterId(r as u16));
                if self
                    .tables
                    .class_ports(vnet, router)
                    .iter()
                    .all(|&p| set.contains(p))
                {
                    continue;
                }
                let mut row = self.tables.row(vnet, router).enumerate();
                if let Some((dst, port)) = row.find(|&(_, p)| !set.contains(p)) {
                    let port = PortId(port);
                    return Err(if port.0 >= rs.n_ports {
                        SpecError::BadPort(PortRef::new(router, port))
                    } else {
                        SpecError::DanglingRoute {
                            router,
                            dst: NodeId(dst as u16),
                            port,
                        }
                    });
                }
            }
        }
        Ok(())
    }
}

/// The set of port ids in use on one router, one bit per possible id.
#[derive(Debug, Clone, Copy, Default)]
struct PortSet([u64; 4]);

impl PortSet {
    fn contains(&self, port: u8) -> bool {
        self.0[(port >> 6) as usize] >> (port & 63) & 1 != 0
    }

    /// Adds `port`; returns whether it was absent.
    fn insert(&mut self, port: u8) -> bool {
        let absent = !self.contains(port);
        self.0[(port >> 6) as usize] |= 1 << (port & 63);
        absent
    }

    fn union(&mut self, other: &PortSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
}

/// Convenience constructor for a mesh-style channel of 1 cycle, 1 mm.
pub fn mesh_channel(src: PortRef, dst: PortRef) -> ChannelSpec {
    ChannelSpec {
        src,
        dst,
        latency: 1,
        length_mm: 1.0,
        dateline: false,
        dim_y: false,
        kind: ChannelKind::Mesh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Vnet, LOCAL_PORT};

    fn two_router_spec() -> NetworkSpec {
        // R0 <-> R1, node 0 on R0, node 1 on R1.
        let mut s = NetworkSpec::new(2, 2, 2);
        let r0e = PortRef::new(RouterId(0), PortId(0));
        let r1w = PortRef::new(RouterId(1), PortId(1));
        s.add_channel(mesh_channel(r0e, r1w));
        s.add_channel(mesh_channel(r1w, r0e));
        s.add_ni(NiSpec::local(NodeId(0), RouterId(0), LOCAL_PORT));
        s.add_ni(NiSpec::local(NodeId(1), RouterId(1), LOCAL_PORT));
        for v in 0..2u8 {
            s.tables.set(Vnet(v), RouterId(0), NodeId(0), LOCAL_PORT);
            s.tables.set(Vnet(v), RouterId(0), NodeId(1), PortId(0));
            s.tables.set(Vnet(v), RouterId(1), NodeId(1), LOCAL_PORT);
            s.tables.set(Vnet(v), RouterId(1), NodeId(0), PortId(1));
        }
        s
    }

    #[test]
    fn valid_two_router_spec_passes() {
        assert_eq!(two_router_spec().validate(), Ok(()));
    }

    #[test]
    fn duplicate_source_port_rejected() {
        let mut s = two_router_spec();
        // A second channel out of R0:p0.
        s.add_channel(mesh_channel(
            PortRef::new(RouterId(0), PortId(0)),
            PortRef::new(RouterId(1), PortId(2)),
        ));
        assert!(matches!(s.validate(), Err(SpecError::PortConflict(_))));
    }

    #[test]
    fn zero_latency_rejected() {
        let mut s = two_router_spec();
        s.channels[0].latency = 0;
        assert!(matches!(s.validate(), Err(SpecError::ZeroLatency(_))));
    }

    #[test]
    fn channel_on_inactive_router_rejected() {
        let mut s = two_router_spec();
        s.routers[1].active = false;
        assert!(matches!(s.validate(), Err(SpecError::InactiveRouter(_))));
    }

    #[test]
    fn missing_ni_rejected() {
        let mut s = two_router_spec();
        s.nis.pop();
        assert!(matches!(s.validate(), Err(SpecError::NodeNiCount(_, 0))));
    }

    #[test]
    fn duplicate_ni_rejected() {
        let mut s = two_router_spec();
        let ni = s.nis[0];
        s.add_ni(NiSpec {
            port: PortId(3),
            ..ni
        });
        assert!(matches!(s.validate(), Err(SpecError::NodeNiCount(_, 2))));
    }

    #[test]
    fn ni_sharing_channel_port_rejected() {
        let mut s = two_router_spec();
        s.nis[0].port = PortId(0); // same as channel source port
        assert!(matches!(s.validate(), Err(SpecError::NiPortConflict(_))));
    }

    #[test]
    fn dangling_route_rejected() {
        let mut s = two_router_spec();
        // Route to a port with no channel and no NI.
        s.tables.set(Vnet(0), RouterId(0), NodeId(1), PortId(3));
        assert!(matches!(s.validate(), Err(SpecError::DanglingRoute { .. })));
    }

    /// The masked row scan reports what the per-entry walk reported: the
    /// first offender in (vnet, router, destination) order, `BadPort` for
    /// an id beyond the router's radix, `DanglingRoute` for a port with
    /// neither an outgoing channel nor an NI.
    #[test]
    fn route_errors_keep_their_variant_fields_and_order() {
        let dangling = |router, dst, port| SpecError::DanglingRoute {
            router: RouterId(router),
            dst: NodeId(dst),
            port: PortId(port),
        };

        let mut s = two_router_spec();
        s.tables.set(Vnet(0), RouterId(0), NodeId(1), PortId(3));
        assert_eq!(s.validate(), Err(dangling(0, 1, 3)));

        // A port that only *receives* a channel routes nowhere.
        let mut s = two_router_spec();
        s.add_channel(mesh_channel(
            PortRef::new(RouterId(0), PortId(2)),
            PortRef::new(RouterId(1), PortId(3)),
        ));
        s.tables.set(Vnet(1), RouterId(0), NodeId(1), PortId(2));
        assert_eq!(s.validate(), Ok(()), "the sending end is routable");
        s.tables.set(Vnet(1), RouterId(1), NodeId(0), PortId(3));
        assert_eq!(s.validate(), Err(dangling(1, 0, 3)));

        // Beyond the radix (5 ports): a bad port, not a dangling route.
        let mut s = two_router_spec();
        s.tables.set(Vnet(1), RouterId(1), NodeId(0), PortId(5));
        let bad = SpecError::BadPort(PortRef::new(RouterId(1), PortId(5)));
        assert_eq!(s.validate(), Err(bad.clone()));
        // Earlier vnets, then earlier routers, then earlier destinations
        // are reported first.
        s.tables.set(Vnet(1), RouterId(1), NodeId(1), PortId(2));
        assert_eq!(s.validate(), Err(bad));
        s.tables.set(Vnet(1), RouterId(0), NodeId(1), PortId(3));
        assert_eq!(s.validate(), Err(dangling(0, 1, 3)));
        s.tables.set(Vnet(0), RouterId(1), NodeId(1), PortId(200));
        assert_eq!(
            s.validate(),
            Err(SpecError::BadPort(PortRef::new(RouterId(1), PortId(200))))
        );

        // Wiring and NI checks still come before any routing entry.
        s.nis.pop();
        assert_eq!(s.validate(), Err(SpecError::NodeNiCount(NodeId(1), 0)));

        // A cleared entry is no route at all, hence no error.
        let mut s = two_router_spec();
        s.tables.clear(Vnet(0), RouterId(0), NodeId(1));
        assert_eq!(s.validate(), Ok(()));
    }

    /// A row committed as class map + class ports is checked through its
    /// class ports: the error names the first destination that reads the
    /// bad port, and a bad byte in a class no destination is in is no
    /// route at all.
    #[test]
    fn route_errors_in_factored_rows() {
        let mut s = NetworkSpec::new(2, 4, 1);
        let r0e = PortRef::new(RouterId(0), PortId(0));
        let r1w = PortRef::new(RouterId(1), PortId(1));
        s.add_channel(mesh_channel(r0e, r1w));
        s.add_channel(mesh_channel(r1w, r0e));
        for (node, router) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
            s.add_ni(NiSpec::local(NodeId(node), RouterId(router), LOCAL_PORT));
        }
        // Classes: 1 = "here", 3 = "over there", 0 and 2 read by nobody.
        let here_there = s.tables.class_map(&[1, 1, 3, 3]);
        let there_here = s.tables.class_map(&[3, 3, 1, 1]);
        let v = Vnet(0);
        s.tables
            .set_row(v, RouterId(0), here_there, &[9, LOCAL_PORT.0, 200, 0]);
        s.tables
            .set_row(v, RouterId(1), there_here, &[3, LOCAL_PORT.0, 7, 1]);
        assert_eq!(s.tables.dense_rows(), 0);
        assert_eq!(s.validate(), Ok(()), "bytes 9, 200, 3, 7 are unread");

        // Router 1 sends nodes 0 and 1 out of a port without a channel.
        s.tables
            .set_row(v, RouterId(1), there_here, &[3, LOCAL_PORT.0, 7, 2]);
        let dangling = SpecError::DanglingRoute {
            router: RouterId(1),
            dst: NodeId(0),
            port: PortId(2),
        };
        assert_eq!(s.validate(), Err(dangling));
        // An earlier router wins, with the variant of its own bad byte.
        s.tables
            .set_row(v, RouterId(0), here_there, &[9, LOCAL_PORT.0, 200, 6]);
        let bad = SpecError::BadPort(PortRef::new(RouterId(0), PortId(6)));
        assert_eq!(s.validate(), Err(bad));
        assert_eq!(s.tables.dense_rows(), 0, "validation expands nothing");
    }

    #[test]
    fn out_of_range_port_rejected() {
        let mut s = two_router_spec();
        s.channels[0].src.port = PortId(9);
        assert!(matches!(s.validate(), Err(SpecError::BadPort(_))));
    }

    #[test]
    fn channel_key_identity() {
        let s = two_router_spec();
        assert_eq!(
            s.channel_between(
                PortRef::new(RouterId(0), PortId(0)),
                PortRef::new(RouterId(1), PortId(1))
            ),
            Some(ChannelId(0))
        );
        assert_eq!(
            s.channel_between(
                PortRef::new(RouterId(0), PortId(2)),
                PortRef::new(RouterId(1), PortId(1))
            ),
            None
        );
    }

    #[test]
    fn spec_error_display_nonempty() {
        let errors: Vec<SpecError> = vec![
            SpecError::BadRouter(RouterId(1)),
            SpecError::BadPort(PortRef::new(RouterId(0), PortId(9))),
            SpecError::PortConflict(PortRef::new(RouterId(0), PortId(0))),
            SpecError::InactiveRouter(RouterId(2)),
            SpecError::NodeNiCount(NodeId(0), 2),
            SpecError::NiPortConflict(PortRef::new(RouterId(0), PortId(0))),
            SpecError::DanglingRoute {
                router: RouterId(0),
                dst: NodeId(0),
                port: PortId(0),
            },
            SpecError::TableShape,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
