//! Hierarchical chiplet fabrics: subNoC chips joined by serialized
//! inter-chip links.
//!
//! Beyond single-chip scaling, heterogeneous manycores increasingly split
//! the die into chiplets on a package substrate. This module composes a
//! `chips_x x chips_y` array of mesh chips, each `chip_w x chip_h` tiles,
//! joined along chip boundaries by [`ChannelKind::InterChip`] links —
//! serialized SerDes lanes whose latency and static/dynamic power are
//! modeled separately from on-chip wires (`adaptnoc-power`).
//!
//! Routing is two-level:
//!
//! * **Intra-chip**: the generalized dimension-ordered scheme of
//!   [`crate::dor`] (plain XY on the chip mesh), both for chip-local
//!   traffic and for the leg towards/after a gateway router.
//! * **Inter-chip**: **up\*/down\*** over the chip-level graph, from a BFS
//!   spanning tree rooted at chip (0,0) — the same discipline the
//!   irregular-topology extension uses at tile level, lifted to chip
//!   granularity.
//!
//! Up-before-down orders the inter-chip channels and XY keeps every
//! intra-chip leg acyclic, but that alone is *not* sufficient: two
//! parallel links on the same chip boundary couple through the shared
//! boundary-row mesh channels (traffic that just entered a chip heading
//! away from one gateway shares row channels with traffic converging on
//! the other gateway), which can chain a down-dependency back into an
//! up-dependency and close a cycle. Inter-chip links are therefore
//! *dateline* channels: the first chip crossing bumps a packet into the
//! sticky escape class (`adaptnoc_sim::spec::CLASS_INTERCHIP`, reserved
//! at every router via `vc_split` and — unlike the per-dimension torus
//! class — never reset by a turn), splitting the channel-dependency
//! graph between pre- and post-crossing legs. Class 0 is per-chip XY
//! (acyclic); escape-class legs are post-crossing route suffixes whose
//! inter-chip dependencies follow the up\*/down\* order and whose
//! intra-chip legs are again XY, so neither class can host a cycle —
//! verified by [`crate::validate::check_routes_and_deadlock`] in the
//! tests.
//!
//! Parallel links between adjacent chips are spread over distinct boundary
//! rows/columns and selected per destination node (`node % links`), which
//! load-balances without reordering any single flow.

use crate::dor::{fill_dor_tables_with, nodes_of, routers_of, ExtraPorts};
use crate::geom::{Coord, Grid, Rect};
use crate::plan::{BuildError, ChipPlan};
use crate::regions::mesh_fabric;
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::{ChannelId, Direction, PortId, RouterId};
use adaptnoc_sim::routing::NO_ROUTE;
use adaptnoc_sim::spec::{ChannelKind, ChannelSpec, NetworkSpec, PortRef};
use std::collections::{HashMap, VecDeque};

/// Geometry and link parameters of a chiplet fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletConfig {
    /// Chips per row of the package.
    pub chips_x: u8,
    /// Chips per column of the package.
    pub chips_y: u8,
    /// Tiles per chip row.
    pub chip_w: u8,
    /// Tiles per chip column.
    pub chip_h: u8,
    /// Latency of one inter-chip link traversal in cycles (serialization,
    /// substrate flight and deserialization; the SerDes is pipelined so
    /// sustained bandwidth stays one flit per cycle).
    pub link_latency: u8,
    /// Parallel bidirectional links per adjacent chip pair.
    pub links_per_edge: u8,
    /// Substrate trace length per inter-chip link, mm (enters the static
    /// power model).
    pub link_mm: f32,
}

impl ChipletConfig {
    /// A chiplet fabric with default link parameters: 4-cycle links
    /// (~2 cycles of SerDes each way at 1 GHz), 2 parallel links per chip
    /// boundary, 2 mm substrate traces.
    pub fn new(chips_x: u8, chips_y: u8, chip_w: u8, chip_h: u8) -> Self {
        ChipletConfig {
            chips_x,
            chips_y,
            chip_w,
            chip_h,
            link_latency: 4,
            links_per_edge: 2,
            link_mm: 2.0,
        }
    }

    /// The global tile grid covering all chips.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid; call [`ChipletConfig::validate`]
    /// first.
    pub fn grid(&self) -> Grid {
        Grid::new(self.chips_x * self.chip_w, self.chips_y * self.chip_h)
    }

    /// The tile footprint of chip `(cx, cy)`.
    pub fn chip_rect(&self, cx: u8, cy: u8) -> Rect {
        Rect::new(cx * self.chip_w, cy * self.chip_h, self.chip_w, self.chip_h)
    }

    /// The chip coordinates owning tile `c`.
    pub fn chip_of(&self, c: Coord) -> (u8, u8) {
        (c.x / self.chip_w, c.y / self.chip_h)
    }

    /// Checks the geometry: positive dimensions, global grid within the
    /// `u8` coordinate space, and enough boundary rows/columns for the
    /// requested parallel links.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Region`] on an infeasible configuration.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.chips_x == 0 || self.chips_y == 0 || self.chip_w == 0 || self.chip_h == 0 {
            return Err(BuildError::Region(
                "chiplet dimensions must be positive".into(),
            ));
        }
        if self.chips_x as u16 * self.chip_w as u16 > 255
            || self.chips_y as u16 * self.chip_h as u16 > 255
        {
            return Err(BuildError::Region(
                "chiplet fabric exceeds the 255-tile coordinate space".into(),
            ));
        }
        if self.links_per_edge == 0 {
            return Err(BuildError::Region(
                "chiplet fabrics need at least one link per chip boundary".into(),
            ));
        }
        if self.links_per_edge > self.chip_w || self.links_per_edge > self.chip_h {
            return Err(BuildError::Region(format!(
                "{} links per edge need distinct boundary rows on {}x{} chips",
                self.links_per_edge, self.chip_w, self.chip_h
            )));
        }
        Ok(())
    }
}

/// Evenly spread positions for `links` gateways along a boundary of `dim`
/// tiles: the midpoints of `links` equal spans.
fn gateway_positions(dim: u8, links: u8) -> impl Iterator<Item = u8> {
    (0..links).map(move |k| ((2 * k as u16 + 1) * dim as u16 / (2 * links as u16)) as u8)
}

/// Builds a chiplet fabric: per-chip meshes, inter-chip SerDes links and
/// the two-level routing tables.
///
/// # Errors
///
/// Returns [`BuildError`] on an invalid configuration or wiring conflict.
pub fn chiplet_chip(cc: &ChipletConfig, cfg: &SimConfig) -> Result<NetworkSpec, BuildError> {
    cc.validate()?;
    let grid = cc.grid();
    let mut plan = ChipPlan::new(grid, cfg);

    // Per-chip mesh fabric.
    for cy in 0..cc.chips_y {
        for cx in 0..cc.chips_x {
            mesh_fabric(&mut plan, cc.chip_rect(cx, cy))?;
        }
    }

    // Dateline escape class: crossing an inter-chip link bumps packets to
    // the reserved VC class (see the module docs), so every router must
    // split its VC pool — same mechanism as the torus dateline.
    if cc.chips_x > 1 || cc.chips_y > 1 {
        let split = cfg.vcs_per_vnet - 1;
        if split >= 1 {
            for c in grid.iter() {
                plan.set_vc_split(c, split);
            }
        }
    }

    // Inter-chip links. Boundary routers' outward-facing direction ports
    // are unused by the chip mesh, so each gateway keeps the standard
    // 5-port radix. `gateways[(from_chip, to_chip)]` lists the (router,
    // out-port) pairs in deterministic spread order.
    type ChipPair = ((u8, u8), (u8, u8));
    let mut gateways: HashMap<ChipPair, Vec<(RouterId, PortId)>> = HashMap::new();
    let link = |plan: &mut ChipPlan, a: Coord, b: Coord, dir: Direction| {
        let (ra, rb) = (grid.router(a), grid.router(b));
        let fwd = ChannelSpec {
            src: PortRef::new(ra, dir.port()),
            dst: PortRef::new(rb, dir.opposite().port()),
            latency: cc.link_latency,
            length_mm: cc.link_mm,
            dateline: true,
            dim_y: !dir.is_x(),
            kind: ChannelKind::InterChip,
        };
        let rev = ChannelSpec {
            src: PortRef::new(rb, dir.opposite().port()),
            dst: PortRef::new(ra, dir.port()),
            ..fwd
        };
        plan.add_channel(fwd)?;
        plan.add_channel(rev)?;
        Ok::<((RouterId, PortId), (RouterId, PortId)), BuildError>((
            (ra, dir.port()),
            (rb, dir.opposite().port()),
        ))
    };
    for cy in 0..cc.chips_y {
        for cx in 0..cc.chips_x {
            let rect = cc.chip_rect(cx, cy);
            if cx + 1 < cc.chips_x {
                for dy in gateway_positions(cc.chip_h, cc.links_per_edge) {
                    let a = Coord::new(rect.x_end() - 1, rect.y + dy);
                    let b = Coord::new(rect.x_end(), rect.y + dy);
                    let (out_ab, out_ba) = link(&mut plan, a, b, Direction::East)?;
                    gateways
                        .entry(((cx, cy), (cx + 1, cy)))
                        .or_default()
                        .push(out_ab);
                    gateways
                        .entry(((cx + 1, cy), (cx, cy)))
                        .or_default()
                        .push(out_ba);
                }
            }
            if cy + 1 < cc.chips_y {
                for dx in gateway_positions(cc.chip_w, cc.links_per_edge) {
                    let a = Coord::new(rect.x + dx, rect.y_end() - 1);
                    let b = Coord::new(rect.x + dx, rect.y_end());
                    let (out_ab, out_ba) = link(&mut plan, a, b, Direction::North)?;
                    gateways
                        .entry(((cx, cy), (cx, cy + 1)))
                        .or_default()
                        .push(out_ab);
                    gateways
                        .entry(((cx, cy + 1), (cx, cy)))
                        .or_default()
                        .push(out_ba);
                }
            }
        }
    }

    // Chip-level up*/down* spanning tree from chip (0,0): BFS over the
    // chip array (every adjacent pair is bidirectionally linked).
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
    // Next chip from `from` towards `to` along the up*/down* route: climb
    // to the LCA, then descend the target's ancestor chain.
    let next_chip = |from: (u8, u8), to: (u8, u8)| -> (u8, u8) {
        let to_chain = chain(to);
        if let Some(pos) = to_chain.iter().position(|&c| c == from) {
            to_chain[pos - 1]
        } else {
            parent[&from]
        }
    };

    // The tables, one row write per router: intra-chip XY towards the
    // chip's own nodes, and for a node in another chip D the gateway of
    // the next chip on the up*/down* route (XY towards the gateway, then
    // the SerDes port). Destination node `d` uses gateway `d % links`, so
    // a row carries `chips x links` gateway ports after its XY ports and
    // node `d` of chip D reads slot `D * links + d % links`.
    let chips: Vec<(u8, u8)> = (0..cc.chips_y)
        .flat_map(|cy| (0..cc.chips_x).map(move |cx| (cx, cy)))
        .collect();
    let links = cc.links_per_edge as usize;
    // `validate` bounds the grid to 255 x 255 tiles and the links by the
    // chip's sides, so `chips x links` fits the u16.
    let mut slot = vec![0u16; grid.tiles()];
    for c in grid.iter() {
        let (cx, cy) = cc.chip_of(c);
        let chip = cy as usize * cc.chips_x as usize + cx as usize;
        let d = grid.node(c).index();
        slot[d] = (chip * links + d % links) as u16;
    }
    for &chip in &chips {
        // Per chip of the fabric, the gateways towards it (none to itself).
        let remotes: Vec<Option<&[(RouterId, PortId)]>> = chips
            .iter()
            .map(|&dchip| {
                (dchip != chip).then(|| gateways[&(chip, next_chip(chip, dchip))].as_slice())
            })
            .collect();
        let gateway_ports = |r: RouterId, ports: &mut Vec<u8>| {
            let rc = grid.coord(r);
            for gws in &remotes {
                let Some(gws) = gws else {
                    ports.extend(std::iter::repeat_n(NO_ROUTE, links));
                    continue;
                };
                ports.extend(gws.iter().map(|&(gw_r, gw_p)| {
                    let gw_c = grid.coord(gw_r);
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
                    port.0
                }));
            }
        };
        let remote = ExtraPorts {
            slot: &slot,
            slots: chips.len() * links,
            ports: &gateway_ports,
        };
        let rect = cc.chip_rect(chip.0, chip.1);
        let routers = routers_of(&grid, rect.iter());
        let nodes = nodes_of(&grid, rect.iter());
        fill_dor_tables_with(&mut plan.spec, &grid, cfg.vnets, &routers, &nodes, &remote)?;
    }

    plan.finish()
}

/// The ids of all inter-chip channels of a spec, in construction order —
/// the fault-injection surface of a chiplet fabric.
pub fn interchip_channels(spec: &NetworkSpec) -> Vec<ChannelId> {
    spec.channels
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == ChannelKind::InterChip)
        .map(|(i, _)| ChannelId(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{all_pairs, check_routes_and_deadlock, wiring_feasible, WiringLimits};
    use adaptnoc_sim::ids::{NodeId, Vnet};

    #[test]
    fn config_validation() {
        assert!(ChipletConfig::new(2, 2, 4, 4).validate().is_ok());
        assert!(ChipletConfig::new(0, 2, 4, 4).validate().is_err());
        let mut c = ChipletConfig::new(2, 2, 4, 4);
        c.links_per_edge = 0;
        assert!(c.validate().is_err());
        c.links_per_edge = 5;
        assert!(c.validate().is_err());
        assert!(ChipletConfig::new(16, 1, 16, 4).validate().is_err());
    }

    #[test]
    fn two_by_two_fabric_routes_and_fits_wiring() {
        let cc = ChipletConfig::new(2, 2, 4, 4);
        let cfg = SimConfig::baseline();
        let spec = chiplet_chip(&cc, &cfg).unwrap();
        let grid = cc.grid();
        // 4 chips x 48 mesh channels + 4 boundaries x 2 links x 2 dirs.
        assert_eq!(spec.channels.len(), 4 * 48 + 4 * 2 * 2);
        assert_eq!(interchip_channels(&spec).len(), 16);
        let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
        let stats = check_routes_and_deadlock(&spec, &all_pairs(&nodes)).unwrap();
        assert!(stats.routes > 0);
        let report = wiring_feasible(&spec, &grid, &WiringLimits::paper());
        assert!(report.fits, "wiring report {report:?}");
        assert!(report.max_interchip_channels_per_edge > 0);
    }

    #[test]
    fn asymmetric_fabric_is_deadlock_free() {
        let cc = ChipletConfig {
            links_per_edge: 1,
            ..ChipletConfig::new(3, 2, 4, 3)
        };
        let cfg = SimConfig::baseline();
        let spec = chiplet_chip(&cc, &cfg).unwrap();
        let grid = cc.grid();
        let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
        check_routes_and_deadlock(&spec, &all_pairs(&nodes)).unwrap();
    }

    #[test]
    fn interchip_links_add_latency() {
        let cc = ChipletConfig::new(2, 1, 4, 4);
        let cfg = SimConfig::baseline();
        let spec = chiplet_chip(&cc, &cfg).unwrap();
        let grid = cc.grid();
        // A cross-chip route pays the SerDes latency on its boundary hop.
        let path = crate::validate::walk_route(
            &spec,
            Vnet(0),
            grid.node(Coord::new(0, 0)),
            grid.node(Coord::new(7, 3)),
        )
        .unwrap();
        let serdes_hops = path
            .channels
            .iter()
            .filter(|&&c| spec.channels[c.0 as usize].kind == ChannelKind::InterChip)
            .count();
        assert_eq!(serdes_hops, 1);
        assert!(path.wire_latency >= (path.hops as u32 - 1) + cc.link_latency as u32);
    }

    #[test]
    fn parallel_links_balance_by_destination() {
        let cc = ChipletConfig::new(2, 1, 4, 4);
        let cfg = SimConfig::baseline();
        let spec = chiplet_chip(&cc, &cfg).unwrap();
        let grid = cc.grid();
        let src = grid.node(Coord::new(0, 0));
        let mut used = std::collections::HashSet::new();
        for dc in cc.chip_rect(1, 0).iter() {
            let path = crate::validate::walk_route(&spec, Vnet(0), src, grid.node(dc)).unwrap();
            for c in path.channels {
                if spec.channels[c.0 as usize].kind == ChannelKind::InterChip {
                    used.insert(c);
                }
            }
        }
        assert_eq!(used.len(), 2, "both parallel links carry traffic");
    }

    #[test]
    fn single_chip_degenerates_to_mesh() {
        let cc = ChipletConfig::new(1, 1, 4, 4);
        let cfg = SimConfig::baseline();
        let spec = chiplet_chip(&cc, &cfg).unwrap();
        assert!(interchip_channels(&spec).is_empty());
        assert_eq!(spec.channels.len(), 48);
    }

    #[test]
    fn gateway_positions_spread() {
        assert_eq!(gateway_positions(4, 2).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(gateway_positions(4, 1).collect::<Vec<_>>(), vec![2]);
        assert_eq!(
            gateway_positions(8, 4).collect::<Vec<_>>(),
            vec![1, 3, 5, 7]
        );
    }
}
