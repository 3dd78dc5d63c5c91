//! SubNoC region topology builders (Sec. II-B): mesh, cmesh, torus, tree.
//!
//! Each builder wires one rectangular region of the chip — channels, NI
//! attachments, power states — and fills the routing tables for traffic
//! among the region's nodes. Regions are isolated from each other at the
//! link level (the defining property of Adapt-NoC subNoCs); inter-region
//! memory-controller sharing bridges are added separately by
//! `adaptnoc-core`.

use crate::dor::{fill_dor_tables, fill_dor_tables_all_vnets, nodes_of, routers_of};
use crate::geom::{Coord, Rect};
use crate::plan::{BuildError, ChipPlan};
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::{Direction, NodeId, Vnet, LOCAL_PORT};
use adaptnoc_sim::spec::{ChannelKind, PortRef};

/// The subNoC topologies in the RL action space (Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Plain 2D mesh.
    Mesh,
    /// Concentrated mesh: 4 nodes per hub router, idle routers gated.
    Cmesh,
    /// Mesh plus segmented wrap-around adaptable links with datelines.
    Torus,
    /// Mesh for requests plus a reply-distribution tree rooted at the MC,
    /// built from (reversed) adaptable-link segments.
    Tree,
    /// Extension (Sec. II-B4 "possible subNoC topologies"): torus wrap-around
    /// links for requests combined with the reply tree, optimizing both
    /// request and reply networks for memory-intensive phases.
    TorusTree,
    /// Extension (Sec. II-B4): "the wrap-around torus links can be
    /// segmented to several short express links to bypass routers" — the
    /// mesh plus half-span express segments on every row and column wire
    /// (an express-channel mesh; no rings, so no datelines needed).
    ExpressMesh,
    /// Extension: sparse-Hamming-graph design point — the mesh plus
    /// binary-ladder skip links along every row and column (see
    /// [`crate::sparse`]), giving logarithmic diameter within the paper's
    /// wiring budget.
    SparseHamming,
}

impl TopologyKind {
    /// The four-action space used by the RL controller in the paper.
    pub const ACTIONS: [TopologyKind; 4] = [
        TopologyKind::Mesh,
        TopologyKind::Cmesh,
        TopologyKind::Torus,
        TopologyKind::Tree,
    ];

    /// Stable index of this topology in the RL action space.
    ///
    /// # Panics
    ///
    /// Panics for extension topologies outside the paper's action space.
    pub fn action_index(self) -> usize {
        match self {
            TopologyKind::Mesh => 0,
            TopologyKind::Cmesh => 1,
            TopologyKind::Torus => 2,
            TopologyKind::Tree => 3,
            TopologyKind::TorusTree | TopologyKind::ExpressMesh | TopologyKind::SparseHamming => {
                panic!("extension topologies are not in the RL action space")
            }
        }
    }

    /// The topology for an action index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub fn from_action_index(i: usize) -> Self {
        Self::ACTIONS[i]
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Cmesh => "cmesh",
            TopologyKind::Torus => "torus",
            TopologyKind::Tree => "tree",
            TopologyKind::TorusTree => "torus+tree",
            TopologyKind::ExpressMesh => "express-mesh",
            TopologyKind::SparseHamming => "sparse-hamming",
        }
    }
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A region assignment: a rectangle of the chip configured as one subNoC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTopology {
    /// Footprint of the subNoC.
    pub rect: Rect,
    /// Topology to compose.
    pub kind: TopologyKind,
    /// Tree root node (the region's primary memory controller). Defaults
    /// to the region's origin tile when `None`.
    pub root: Option<NodeId>,
    /// Additional memory controllers: the tree also maximizes their row
    /// fanout (the primary root keeps the column wires).
    pub extra_roots: Vec<NodeId>,
}

impl RegionTopology {
    /// Creates a region assignment.
    pub fn new(rect: Rect, kind: TopologyKind) -> Self {
        RegionTopology {
            rect,
            kind,
            root: None,
            extra_roots: Vec::new(),
        }
    }

    /// Sets the tree-root (primary MC) node.
    pub fn with_root(mut self, root: NodeId) -> Self {
        self.root = Some(root);
        self
    }

    /// Adds secondary MC roots (their rows get tree row expresses too).
    pub fn with_extra_roots(mut self, roots: Vec<NodeId>) -> Self {
        self.extra_roots = roots;
        self
    }
}

/// Builds one region into the plan.
///
/// # Errors
///
/// Propagates [`BuildError`] from channel wiring or table fill.
pub fn build_region(
    plan: &mut ChipPlan,
    region: &RegionTopology,
    cfg: &SimConfig,
) -> Result<(), BuildError> {
    if !region.rect.fits(&plan.grid) {
        return Err(BuildError::Region(format!(
            "region {} does not fit the {}x{} grid",
            region.rect, plan.grid.width, plan.grid.height
        )));
    }
    match region.kind {
        TopologyKind::Mesh => mesh_region(plan, region.rect, cfg),
        TopologyKind::Cmesh => cmesh_region(plan, region.rect, cfg),
        TopologyKind::Torus => torus_region(plan, region.rect, cfg, false, false),
        TopologyKind::Tree => tree_region(
            plan,
            region.rect,
            region.root,
            &region.extra_roots,
            cfg,
            false,
        ),
        TopologyKind::TorusTree => {
            torus_tree_region(plan, region.rect, region.root, &region.extra_roots, cfg)
        }
        TopologyKind::ExpressMesh => express_mesh_region(plan, region.rect, cfg),
        TopologyKind::SparseHamming => crate::sparse::sparse_hamming_region(
            plan,
            region.rect,
            &crate::sparse::SparseHammingParams::default_for(region.rect.w, region.rect.h),
            cfg,
        ),
    }
}

/// Wires the mesh links and local NIs of `rect` (without routing tables):
/// the fabric the region topologies, the chiplet and sparse builders and
/// the irregular-topology extension start from.
pub(crate) fn mesh_fabric(plan: &mut ChipPlan, rect: Rect) -> Result<(), BuildError> {
    for c in rect.iter() {
        plan.add_local_ni(c);
        for dir in [Direction::East, Direction::North] {
            if let Some(n) = plan.grid.neighbor(c, dir) {
                if rect.contains(n) {
                    plan.add_mesh_link(c, n)?;
                }
            }
        }
    }
    Ok(())
}

/// Plain mesh subNoC: full fabric, XY routing on both vnets.
pub fn mesh_region(plan: &mut ChipPlan, rect: Rect, cfg: &SimConfig) -> Result<(), BuildError> {
    mesh_fabric(plan, rect)?;
    let routers = routers_of(&plan.grid, rect.iter());
    let nodes = nodes_of(&plan.grid, rect.iter());
    let grid = plan.grid;
    fill_dor_tables_all_vnets(&mut plan.spec, &grid, cfg.vnets, &routers, &nodes, false)?;
    Ok(())
}

/// Concentrated mesh (Sec. II-B1): one hub router per 2x2 quad via external
/// concentration, idle routers powered off, hubs bridged by adaptable-link
/// segments that bypass the gated routers.
pub fn cmesh_region(plan: &mut ChipPlan, rect: Rect, cfg: &SimConfig) -> Result<(), BuildError> {
    if !rect.w.is_multiple_of(2) || !rect.h.is_multiple_of(2) {
        return Err(BuildError::Region(format!(
            "cmesh needs even region dimensions, got {rect}"
        )));
    }
    let grid = plan.grid;
    let hubs: Vec<Coord> = (0..rect.h / 2)
        .flat_map(|qy| (0..rect.w / 2).map(move |qx| Coord::new(rect.x + 2 * qx, rect.y + 2 * qy)))
        .collect();

    // Concentrate the quad's nodes onto the hub; gate the other routers.
    for &hub in &hubs {
        for dx in 0..2u8 {
            for dy in 0..2u8 {
                let t = Coord::new(hub.x + dx, hub.y + dy);
                if t == hub {
                    plan.add_local_ni(t);
                } else {
                    plan.add_concentrated_ni(t, hub);
                    plan.deactivate(t);
                }
            }
        }
    }

    // Bridge adjacent hubs (2 tiles apart) with adaptable segments that
    // bypass the powered-off routers between them.
    for &hub in &hubs {
        let r = grid.router(hub);
        for dir in [Direction::East, Direction::North] {
            let (nx, ny) = match dir {
                Direction::East => (hub.x as i16 + 2, hub.y as i16),
                Direction::North => (hub.x as i16, hub.y as i16 + 2),
                _ => unreachable!(),
            };
            if nx < 0 || ny < 0 {
                continue;
            }
            let n = Coord::new(nx as u8, ny as u8);
            if !rect.contains(n) || !hubs.contains(&n) {
                continue;
            }
            let nr = grid.router(n);
            let is_y = !dir.is_x();
            plan.add_express(
                PortRef::new(r, dir.port()),
                PortRef::new(nr, dir.opposite().port()),
                2.0,
                ChannelKind::Adaptable,
                false,
                is_y,
            )?;
            plan.add_express(
                PortRef::new(nr, dir.opposite().port()),
                PortRef::new(r, dir.port()),
                2.0,
                ChannelKind::Adaptable,
                false,
                is_y,
            )?;
        }
    }

    let routers = routers_of(&grid, hubs.iter().copied());
    let nodes = nodes_of(&grid, rect.iter());
    fill_dor_tables_all_vnets(&mut plan.spec, &grid, cfg.vnets, &routers, &nodes, false)?;
    Ok(())
}

/// Torus subNoC (Sec. II-B2): the mesh fabric plus segmented wrap-around
/// adaptable links per row/column, with dateline VC classes for deadlock
/// freedom (Sec. II-C3).
///
/// `request_only` restricts table fill to the request vnet and
/// `row_wraps_only` leaves the column wires free — both used by the
/// combined torus+tree extension, where the reply tree takes the columns.
pub fn torus_region(
    plan: &mut ChipPlan,
    rect: Rect,
    cfg: &SimConfig,
    request_only: bool,
    row_wraps_only: bool,
) -> Result<(), BuildError> {
    mesh_fabric(plan, rect)?;
    let grid = plan.grid;

    // Wrap-around row links (only useful for >= 3 columns).
    if rect.w >= 3 {
        for y in rect.y..rect.y_end() {
            let left = grid.router(Coord::new(rect.x, y));
            let right = grid.router(Coord::new(rect.x_end() - 1, y));
            let mm = (rect.w - 1) as f32;
            // Eastward wrap: rightmost continues at leftmost.
            plan.add_express(
                PortRef::new(right, Direction::East.port()),
                PortRef::new(left, Direction::West.port()),
                mm,
                ChannelKind::Adaptable,
                true,
                false,
            )?;
            // Westward wrap.
            plan.add_express(
                PortRef::new(left, Direction::West.port()),
                PortRef::new(right, Direction::East.port()),
                mm,
                ChannelKind::Adaptable,
                true,
                false,
            )?;
        }
    }
    // Wrap-around column links.
    if rect.h >= 3 && !row_wraps_only {
        for x in rect.x..rect.x_end() {
            let bottom = grid.router(Coord::new(x, rect.y));
            let top = grid.router(Coord::new(x, rect.y_end() - 1));
            let mm = (rect.h - 1) as f32;
            plan.add_express(
                PortRef::new(top, Direction::North.port()),
                PortRef::new(bottom, Direction::South.port()),
                mm,
                ChannelKind::Adaptable,
                true,
                true,
            )?;
            plan.add_express(
                PortRef::new(bottom, Direction::South.port()),
                PortRef::new(top, Direction::North.port()),
                mm,
                ChannelKind::Adaptable,
                true,
                true,
            )?;
        }
    }

    // Dateline classes need a VC split on every region router.
    let split = cfg.vcs_per_vnet - 1;
    if split >= 1 {
        for c in rect.iter() {
            plan.set_vc_split(c, split);
        }
    }

    // Minimal modular (shortest-way-around) dimension-ordered tables.
    let vnets: Vec<u8> = if request_only {
        vec![Vnet::REQUEST.0]
    } else {
        (0..cfg.vnets).collect()
    };
    for v in vnets {
        for rc in rect.iter() {
            let row = plan.spec.tables.row_mut(Vnet(v), grid.router(rc));
            for dc in rect.iter() {
                let port = if rc == dc {
                    LOCAL_PORT
                } else if rc.x != dc.x {
                    torus_dir(rc.x - rect.x, dc.x - rect.x, rect.w, true)
                } else {
                    let eff_h = if row_wraps_only { 2 } else { rect.h };
                    torus_dir(rc.y - rect.y, dc.y - rect.y, eff_h.min(rect.h), false)
                };
                row[grid.node(dc).index()] = port.0;
            }
        }
    }
    Ok(())
}

/// The direction port for modular minimal routing from position `from` to
/// `to` on a ring of `len` positions (falling back to plain mesh directions
/// when the ring is too short for wraps).
fn torus_dir(from: u8, to: u8, len: u8, x_dim: bool) -> adaptnoc_sim::ids::PortId {
    let (pos_dir, neg_dir) = if x_dim {
        (Direction::East, Direction::West)
    } else {
        (Direction::North, Direction::South)
    };
    if len < 3 {
        return if to > from {
            pos_dir.port()
        } else {
            neg_dir.port()
        };
    }
    let fwd = (to as i16 - from as i16).rem_euclid(len as i16) as u8;
    let bwd = len - fwd;
    if fwd <= bwd {
        pos_dir.port()
    } else {
        neg_dir.port()
    }
}

/// Express-mesh subNoC (Sec. II-B4 extension): the full mesh plus
/// half-span express segments on every row and column — the segmented
/// form of the torus wrap-around links, bypassing intermediate routers
/// without forming rings (so plain XY routing and no datelines apply).
pub fn express_mesh_region(
    plan: &mut ChipPlan,
    rect: Rect,
    cfg: &SimConfig,
) -> Result<(), BuildError> {
    mesh_fabric(plan, rect)?;
    let grid = plan.grid;

    // Row segments: forward wire carries an eastbound half-span express
    // from the west edge to the middle and middle to east edge; the
    // reverse wire carries the westbound pair. Ports: the edge routers'
    // outward-facing ports are free; the middle router uses any free port
    // (mux-steered), skipping gracefully if none.
    let add_seg = |plan: &mut ChipPlan, from: Coord, to: Coord, kind: ChannelKind| {
        let (fr, tr) = (plan.grid.router(from), plan.grid.router(to));
        if let (Some(po), Some(pi)) = (plan.free_out_port(fr), plan.free_in_port(tr)) {
            let mm = from.manhattan(to) as f32;
            let dim_y = from.x == to.x;
            let _ = plan.add_express(
                PortRef::new(fr, po),
                PortRef::new(tr, pi),
                mm,
                kind,
                false,
                dim_y,
            );
        }
    };
    if rect.w >= 4 {
        let xm = rect.x + rect.w / 2;
        for y in rect.y..rect.y_end() {
            add_seg(
                plan,
                Coord::new(rect.x, y),
                Coord::new(xm, y),
                ChannelKind::Adaptable,
            );
            add_seg(
                plan,
                Coord::new(xm, y),
                Coord::new(rect.x_end() - 1, y),
                ChannelKind::Adaptable,
            );
            add_seg(
                plan,
                Coord::new(rect.x_end() - 1, y),
                Coord::new(xm, y),
                ChannelKind::AdaptableReversed,
            );
            add_seg(
                plan,
                Coord::new(xm, y),
                Coord::new(rect.x, y),
                ChannelKind::AdaptableReversed,
            );
        }
    }
    if rect.h >= 4 {
        let ym = rect.y + rect.h / 2;
        for x in rect.x..rect.x_end() {
            add_seg(
                plan,
                Coord::new(x, rect.y),
                Coord::new(x, ym),
                ChannelKind::Adaptable,
            );
            add_seg(
                plan,
                Coord::new(x, ym),
                Coord::new(x, rect.y_end() - 1),
                ChannelKind::Adaptable,
            );
            add_seg(
                plan,
                Coord::new(x, rect.y_end() - 1),
                Coord::new(x, ym),
                ChannelKind::AdaptableReversed,
            );
            add_seg(
                plan,
                Coord::new(x, ym),
                Coord::new(x, rect.y),
                ChannelKind::AdaptableReversed,
            );
        }
    }

    let routers = routers_of(&grid, rect.iter());
    let nodes = nodes_of(&grid, rect.iter());
    fill_dor_tables_all_vnets(&mut plan.spec, &grid, cfg.vnets, &routers, &nodes, false)?;
    Ok(())
}

/// Tree subNoC (Sec. II-B3): requests keep the mesh; replies get a
/// high-fanout distribution overlay rooted at the memory controller, built
/// from adaptable-link segments (one per row wire pair, plus one per column
/// when the root row sits on the region edge).
pub fn tree_region(
    plan: &mut ChipPlan,
    rect: Rect,
    root: Option<NodeId>,
    extra_roots: &[NodeId],
    cfg: &SimConfig,
    request_torus: bool,
) -> Result<(), BuildError> {
    let grid = plan.grid;
    let root_node = root.unwrap_or_else(|| grid.node(rect.origin()));
    let root_c = grid.node_coord(root_node);
    if !rect.contains(root_c) {
        return Err(BuildError::Region(format!(
            "tree root {root_node} at {root_c} outside region {rect}"
        )));
    }

    if request_torus {
        // Combined extension: the torus (row wraps only) handles the
        // request vnet; the column wires stay free for the reply tree.
        torus_region(plan, rect, cfg, true, true)?;
    } else {
        mesh_fabric(plan, rect)?;
        // Request vnet: plain XY over the mesh.
        let routers = routers_of(&grid, rect.iter());
        let nodes = nodes_of(&grid, rect.iter());
        fill_dor_tables(
            &mut plan.spec,
            &grid,
            Vnet::REQUEST,
            &routers,
            &nodes,
            false,
        )?;
    }

    // --- Reply overlay ---

    // Row expresses from every MC (each MC sits in its own block row, so
    // each uses its own row's wires): near-mid target on the forward wire
    // and the far corner on the reversed wire, per side. In the combined
    // torus+tree the row wires are fully occupied by the request-network
    // wrap-around segments, so the tree keeps only its column overlay.
    let mut mc_rows: Vec<Coord> = vec![root_c];
    for &mc in extra_roots {
        let c = grid.node_coord(mc);
        if rect.contains(c) && !mc_rows.iter().any(|r| r.y == c.y) {
            mc_rows.push(c);
        }
    }
    for mc_c in mc_rows {
        let mc_r = grid.router(mc_c);
        let row_extents: [(Direction, u8); 2] = [
            (Direction::East, rect.x_end() - 1 - mc_c.x),
            (Direction::West, mc_c.x - rect.x),
        ];
        for (dir, extent) in row_extents {
            if request_torus || extent < 2 {
                continue;
            }
            let step = |d: u8| -> Coord {
                let x = match dir {
                    Direction::East => mc_c.x + d,
                    Direction::West => mc_c.x - d,
                    _ => unreachable!(),
                };
                Coord::new(x, mc_c.y)
            };
            // Near-mid express (forward wire).
            let mid = (extent / 2 + 1).max(2);
            add_tree_express(plan, mc_r, step(mid), ChannelKind::Adaptable)?;
            // Far express (reversed wire) when the side is long.
            if extent >= 4 {
                add_tree_express(plan, mc_r, step(extent), ChannelKind::AdaptableReversed)?;
            }
        }
    }

    // Column expresses: from each root-row router to the far edge of its
    // column (feasible when the respective ports are free, which holds when
    // the root row is on the region edge).
    for x in rect.x..rect.x_end() {
        let from = Coord::new(x, root_c.y);
        let from_r = grid.router(from);
        for (top, extent) in [
            (Coord::new(x, rect.y_end() - 1), rect.y_end() - 1 - root_c.y),
            (Coord::new(x, rect.y), root_c.y - rect.y),
        ] {
            if extent < 2 {
                continue;
            }
            let _ = add_tree_express(plan, from_r, top, ChannelKind::Adaptable);
        }
    }

    // Reply vnet: shortest-path dimension-ordered over mesh + overlay.
    let routers = routers_of(&grid, rect.iter());
    let nodes = nodes_of(&grid, rect.iter());
    fill_dor_tables(&mut plan.spec, &grid, Vnet::REPLY, &routers, &nodes, false)?;
    Ok(())
}

/// Combined torus+tree extension (Sec. II-B4).
pub fn torus_tree_region(
    plan: &mut ChipPlan,
    rect: Rect,
    root: Option<NodeId>,
    extra_roots: &[NodeId],
    cfg: &SimConfig,
) -> Result<(), BuildError> {
    tree_region(plan, rect, root, extra_roots, cfg, true)
}

/// Adds one tree overlay express channel between two routers sharing a row
/// or column, using whatever direction ports are free on both ends. Returns
/// `Ok(false)` (skipping silently) when no ports are available — the tree
/// degrades gracefully toward the plain mesh.
fn add_tree_express(
    plan: &mut ChipPlan,
    from: adaptnoc_sim::ids::RouterId,
    to: Coord,
    kind: ChannelKind,
) -> Result<bool, BuildError> {
    let to_r = plan.grid.router(to);
    if from == to_r {
        return Ok(false);
    }
    let from_c = plan.grid.coord(from);
    let (Some(src_port), Some(dst_port)) = (plan.free_out_port(from), plan.free_in_port(to_r))
    else {
        return Ok(false);
    };
    let mm = from_c.manhattan(to) as f32;
    let is_y = from_c.x == to.x;
    plan.add_express(
        PortRef::new(from, src_port),
        PortRef::new(to_r, dst_port),
        mm,
        kind,
        false,
        is_y,
    )?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Grid;

    fn plan44() -> ChipPlan {
        ChipPlan::new(Grid::new(4, 4), &SimConfig::adapt_noc())
    }

    #[test]
    fn action_space_roundtrip() {
        for (i, k) in TopologyKind::ACTIONS.iter().enumerate() {
            assert_eq!(k.action_index(), i);
            assert_eq!(TopologyKind::from_action_index(i), *k);
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn mesh_region_builds_valid_spec() {
        let mut p = plan44();
        mesh_region(&mut p, Rect::new(0, 0, 4, 4), &SimConfig::adapt_noc()).unwrap();
        let spec = p.finish().unwrap();
        // 2 * (3*4 + 3*4) = 48 unidirectional mesh channels.
        assert_eq!(spec.channels.len(), 48);
        assert_eq!(spec.nis.len(), 16);
        assert_eq!(spec.active_routers(), 16);
    }

    #[test]
    fn cmesh_region_gates_three_quarters_of_routers() {
        let mut p = plan44();
        cmesh_region(&mut p, Rect::new(0, 0, 4, 4), &SimConfig::adapt_noc()).unwrap();
        let spec = p.finish().unwrap();
        assert_eq!(spec.active_routers(), 4);
        // 2x2 hubs: 2 horizontal + 2 vertical adjacent pairs = 8 channels.
        assert_eq!(spec.channels.len(), 8);
        assert!(spec
            .channels
            .iter()
            .all(|c| c.kind == ChannelKind::Adaptable));
        // 12 concentrated + 4 local NIs.
        assert_eq!(spec.nis.iter().filter(|n| n.concentration).count(), 12);
    }

    #[test]
    fn cmesh_rejects_odd_regions() {
        let mut p = plan44();
        let err = cmesh_region(&mut p, Rect::new(0, 0, 3, 4), &SimConfig::adapt_noc());
        assert!(matches!(err, Err(BuildError::Region(_))));
    }

    #[test]
    fn torus_region_adds_wraps_and_datelines() {
        let mut p = plan44();
        torus_region(
            &mut p,
            Rect::new(0, 0, 4, 4),
            &SimConfig::adapt_noc(),
            false,
            false,
        )
        .unwrap();
        let spec = p.finish().unwrap();
        let wraps: Vec<_> = spec.channels.iter().filter(|c| c.dateline).collect();
        // 2 per row * 4 rows + 2 per column * 4 columns = 16.
        assert_eq!(wraps.len(), 16);
        assert!(wraps.iter().all(|c| c.kind == ChannelKind::Adaptable));
        // All region routers have a VC split for dateline classes.
        assert!(spec.routers.iter().all(|r| r.vc_split == Some(1)));
    }

    #[test]
    fn torus_small_dimension_skips_wraps() {
        let mut p = ChipPlan::new(Grid::new(4, 2), &SimConfig::adapt_noc());
        torus_region(
            &mut p,
            Rect::new(0, 0, 4, 2),
            &SimConfig::adapt_noc(),
            false,
            false,
        )
        .unwrap();
        let spec = p.finish().unwrap();
        let wraps: Vec<_> = spec.channels.iter().filter(|c| c.dateline).collect();
        // Only row wraps (w=4 >= 3); no column wraps for h=2.
        assert_eq!(wraps.len(), 4);
    }

    #[test]
    fn torus_dir_picks_shorter_way() {
        // Ring of 4: from 0 to 3, backward (west) is 1 hop vs 3 forward.
        assert_eq!(torus_dir(0, 3, 4, true), Direction::West.port());
        assert_eq!(torus_dir(0, 1, 4, true), Direction::East.port());
        // Tie (0 -> 2 on ring of 4): forward wins.
        assert_eq!(torus_dir(0, 2, 4, true), Direction::East.port());
        // Short ring: plain mesh direction.
        assert_eq!(torus_dir(0, 1, 2, false), Direction::North.port());
        assert_eq!(torus_dir(1, 0, 2, false), Direction::South.port());
    }

    #[test]
    fn tree_region_adds_overlay_channels() {
        let mut p = plan44();
        tree_region(
            &mut p,
            Rect::new(0, 0, 4, 4),
            None,
            &[],
            &SimConfig::adapt_noc(),
            false,
        )
        .unwrap();
        let spec = p.finish().unwrap();
        let overlay: Vec<_> = spec
            .channels
            .iter()
            .filter(|c| c.kind.is_adaptable())
            .collect();
        assert!(
            !overlay.is_empty(),
            "tree must add adaptable overlay channels"
        );
        // Root at origin: row expresses east plus column expresses north.
        assert!(overlay.len() >= 3, "got {}", overlay.len());
    }

    #[test]
    fn tree_root_outside_region_rejected() {
        let mut p = ChipPlan::new(Grid::new(8, 8), &SimConfig::adapt_noc());
        let err = tree_region(
            &mut p,
            Rect::new(0, 0, 4, 4),
            Some(NodeId(63)),
            &[],
            &SimConfig::adapt_noc(),
            false,
        );
        assert!(matches!(err, Err(BuildError::Region(_))));
    }

    #[test]
    fn express_mesh_adds_segments_and_cuts_hops() {
        let mut p = ChipPlan::new(Grid::new(8, 8), &SimConfig::adapt_noc());
        express_mesh_region(&mut p, Rect::new(0, 0, 8, 8), &SimConfig::adapt_noc()).unwrap();
        let spec = p.finish().unwrap();
        let segs = spec
            .channels
            .iter()
            .filter(|c| c.kind.is_adaptable())
            .count();
        assert!(segs > 0, "express segments must exist");
        assert!(
            !spec.channels.iter().any(|c| c.dateline),
            "no rings, no datelines"
        );
        // Hop savings vs plain mesh.
        use crate::validate::{all_pairs, check_routes_and_deadlock};
        let grid = Grid::new(8, 8);
        let nodes: Vec<NodeId> = Rect::new(0, 0, 8, 8).iter().map(|c| grid.node(c)).collect();
        let em = check_routes_and_deadlock(&spec, &all_pairs(&nodes)).unwrap();

        let mut p = ChipPlan::new(grid, &SimConfig::adapt_noc());
        mesh_region(&mut p, Rect::new(0, 0, 8, 8), &SimConfig::adapt_noc()).unwrap();
        let mesh = check_routes_and_deadlock(&p.finish().unwrap(), &all_pairs(&nodes)).unwrap();
        assert!(
            em.avg_hops() < mesh.avg_hops(),
            "express mesh {} vs mesh {}",
            em.avg_hops(),
            mesh.avg_hops()
        );
    }

    #[test]
    fn express_mesh_small_region_degrades_to_mesh() {
        let mut p = ChipPlan::new(Grid::new(4, 4), &SimConfig::adapt_noc());
        express_mesh_region(&mut p, Rect::new(0, 0, 2, 2), &SimConfig::adapt_noc()).unwrap();
        let spec = p.spec.clone();
        assert!(spec.channels.iter().all(|c| !c.kind.is_adaptable()));
    }

    #[test]
    fn torus_tree_combined_builds() {
        let mut p = plan44();
        torus_tree_region(
            &mut p,
            Rect::new(0, 0, 4, 4),
            None,
            &[],
            &SimConfig::adapt_noc(),
        )
        .unwrap();
        let spec = p.finish().unwrap();
        assert!(spec.channels.iter().any(|c| c.dateline));
        assert!(spec
            .channels
            .iter()
            .any(|c| c.kind == ChannelKind::AdaptableReversed
                || c.kind == ChannelKind::Adaptable && !c.dateline));
    }
}
