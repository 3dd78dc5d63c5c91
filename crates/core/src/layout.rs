//! Heterogeneous chip layout: which tile hosts a CPU, a GPU, or a memory
//! controller, and how applications map onto rectangular regions.
//!
//! The paper's 8x8 evaluation system (Sec. IV-A): one MC per 2x4 subNoC
//! (8 MCs total); a Rodinia (GPU) region is built from 2x4 blocks of
//! 1 CPU + 1 MC + 6 GPUs; a Parsec (CPU) region from 2x4 blocks of
//! 7 CPUs + 1 MC.

use adaptnoc_sim::ids::NodeId;
use adaptnoc_topology::geom::{Grid, Rect};

/// What a tile's endpoint node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A general-purpose CPU core with private L1 and a shared-L2 slice.
    Cpu,
    /// A throughput-oriented GPU core (8-wide SIMD in the paper).
    Gpu,
    /// A memory controller managing off-chip accesses.
    Mc,
}

impl NodeKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::Cpu => "cpu",
            NodeKind::Gpu => "gpu",
            NodeKind::Mc => "mc",
        }
    }
}

/// An application's placement: a rectangular subNoC-able region plus its
/// memory controllers (one per 2x4 block, Sec. II-C2: "we implement one MC
/// to each 2x4 subNoC in an 8x8 NoC").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRegion {
    /// Footprint on the chip.
    pub rect: Rect,
    /// The region's primary memory controller (tree root).
    pub mc: NodeId,
    /// All memory controllers in the region (one per 2x4 block).
    pub mcs: Vec<NodeId>,
}

/// Splits a region into the paper's 8-tile MC blocks: 4x2 blocks when the
/// shape allows, else 2x4, else the whole region as one block.
pub fn mc_blocks(rect: Rect) -> Vec<Rect> {
    let (bw, bh) = if rect.w.is_multiple_of(4) && rect.h.is_multiple_of(2) {
        (4u8, 2u8)
    } else if rect.w.is_multiple_of(2) && rect.h.is_multiple_of(4) {
        (2, 4)
    } else {
        return vec![rect];
    };
    let mut out = Vec::new();
    for by in 0..rect.h / bh {
        for bx in 0..rect.w / bw {
            out.push(Rect::new(rect.x + bx * bw, rect.y + by * bh, bw, bh));
        }
    }
    out
}

/// The heterogeneous chip: a grid plus per-tile node kinds and the current
/// application regions.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipLayout {
    /// The tile grid.
    pub grid: Grid,
    /// Per-node kind (indexed by node id).
    pub kinds: Vec<NodeKind>,
    /// Application regions (disjoint).
    pub regions: Vec<AppRegion>,
}

impl ChipLayout {
    /// Builds a layout from disjoint regions, following the paper's 2x4
    /// block recipe: each 8-tile block gets one MC on its origin tile;
    /// CPU regions fill the rest with CPUs (7 CPUs + 1 MC per block), GPU
    /// regions place one CPU per block and GPUs elsewhere (6 GPUs + 1 CPU
    /// + 1 MC per block).
    ///
    /// # Panics
    ///
    /// Panics if regions overlap or leave the grid.
    pub fn new(grid: Grid, specs: &[(Rect, bool)]) -> Self {
        let mut kinds = vec![NodeKind::Cpu; grid.tiles()];
        let mut regions = Vec::new();
        for (i, &(rect, gpu)) in specs.iter().enumerate() {
            assert!(rect.fits(&grid), "region {rect} outside grid");
            for (j, &(other, _)) in specs.iter().enumerate() {
                assert!(i == j || !rect.overlaps(&other), "regions overlap");
            }
            let mut mcs = Vec::new();
            for block in mc_blocks(rect) {
                let mc_tile = block.origin();
                let mc = grid.node(mc_tile);
                kinds[mc.index()] = NodeKind::Mc;
                mcs.push(mc);
                let mut cpu_placed = false;
                for c in block.iter() {
                    if c == mc_tile {
                        continue;
                    }
                    let n = grid.node(c).index();
                    kinds[n] = if gpu {
                        if !cpu_placed {
                            cpu_placed = true;
                            NodeKind::Cpu
                        } else {
                            NodeKind::Gpu
                        }
                    } else {
                        NodeKind::Cpu
                    };
                }
            }
            regions.push(AppRegion {
                rect,
                mc: mcs[0],
                mcs,
            });
        }
        ChipLayout {
            grid,
            kinds,
            regions,
        }
    }

    /// The paper's mixed-workload layout: three applications on the 8x8
    /// chip — one 4x4 CPU (Parsec) region, one 4x4 GPU (Rodinia) region,
    /// and one 8x4 GPU region.
    pub fn paper_mixed() -> Self {
        ChipLayout::new(
            Grid::paper(),
            &[
                (Rect::new(0, 0, 4, 4), false),
                (Rect::new(4, 0, 4, 4), true),
                (Rect::new(0, 4, 8, 4), true),
            ],
        )
    }

    /// A single-application layout covering `rect` (CPU or GPU region) on
    /// the 8x8 chip.
    pub fn single(rect: Rect, gpu: bool) -> Self {
        ChipLayout::new(Grid::paper(), &[(rect, gpu)])
    }

    /// A chiplet-package layout: one application region per chip of the
    /// fabric, each following the MC-block recipe. Chips listed in
    /// `gpu_chips` (by `(cx, cy)` chip coordinates) become GPU regions.
    ///
    /// Pair this with [`adaptnoc_topology::chiplet::chiplet_chip`] to build
    /// the matching network: regions never span a chip boundary, so each
    /// application's traffic stays on its own subNoC mesh while memory and
    /// coherence traffic crosses the serialized inter-chip links.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see
    /// [`adaptnoc_topology::chiplet::ChipletConfig::validate`]).
    pub fn chiplet(cc: &adaptnoc_topology::chiplet::ChipletConfig, gpu_chips: &[(u8, u8)]) -> Self {
        cc.validate().expect("invalid chiplet config");
        let mut specs = Vec::new();
        for cy in 0..cc.chips_y {
            for cx in 0..cc.chips_x {
                specs.push((cc.chip_rect(cx, cy), gpu_chips.contains(&(cx, cy))));
            }
        }
        ChipLayout::new(cc.grid(), &specs)
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Nodes of a given kind inside a region.
    pub fn nodes_of_kind(&self, rect: Rect, kind: NodeKind) -> Vec<NodeId> {
        rect.iter()
            .map(|c| self.grid.node(c))
            .filter(|n| self.kind(*n) == kind)
            .collect()
    }

    /// All nodes inside a region.
    pub fn region_nodes(&self, rect: Rect) -> Vec<NodeId> {
        rect.iter().map(|c| self.grid.node(c)).collect()
    }

    /// The region that contains a node, if any.
    pub fn region_of(&self, n: NodeId) -> Option<&AppRegion> {
        let c = self.grid.node_coord(n);
        self.regions.iter().find(|r| r.rect.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_topology::geom::Coord;

    #[test]
    fn paper_mixed_layout_shape() {
        let l = ChipLayout::paper_mixed();
        assert_eq!(l.regions.len(), 3);
        assert_eq!(l.kinds.len(), 64);
        // One MC per 2x4 block: 8 over the whole 8x8 chip (Sec. II-C2).
        let mcs = l.kinds.iter().filter(|k| **k == NodeKind::Mc).count();
        assert_eq!(mcs, 8, "one MC per 2x4 block");
        let gpus = l.kinds.iter().filter(|k| **k == NodeKind::Gpu).count();
        // GPU regions: 6 GPUs per block; 2 blocks (4x4) + 4 blocks (8x4).
        assert_eq!(gpus, 6 * 2 + 6 * 4);
    }

    #[test]
    fn cpu_region_follows_block_recipe() {
        // 4x4 = two 4x2 blocks: 2 MCs + 14 CPUs.
        let l = ChipLayout::single(Rect::new(0, 0, 4, 4), false);
        let rect = l.regions[0].rect;
        assert_eq!(l.nodes_of_kind(rect, NodeKind::Mc).len(), 2);
        assert_eq!(l.nodes_of_kind(rect, NodeKind::Cpu).len(), 14);
        assert_eq!(l.nodes_of_kind(rect, NodeKind::Gpu).len(), 0);
        assert_eq!(l.regions[0].mcs.len(), 2);
    }

    #[test]
    fn gpu_region_follows_block_recipe() {
        // 4x8 = four blocks: 4 MCs + 4 CPUs + 24 GPUs (the paper's Rodinia
        // region: "4 CPUs, 4 MCs, and 24 GPUs").
        let l = ChipLayout::single(Rect::new(4, 0, 4, 8), true);
        let rect = l.regions[0].rect;
        assert_eq!(l.nodes_of_kind(rect, NodeKind::Mc).len(), 4);
        assert_eq!(l.nodes_of_kind(rect, NodeKind::Cpu).len(), 4);
        assert_eq!(l.nodes_of_kind(rect, NodeKind::Gpu).len(), 24);
    }

    #[test]
    fn mc_blocks_prefer_4x2() {
        assert_eq!(mc_blocks(Rect::new(0, 0, 4, 4)).len(), 2);
        assert_eq!(mc_blocks(Rect::new(0, 0, 8, 4)).len(), 4);
        assert_eq!(mc_blocks(Rect::new(0, 0, 2, 4)).len(), 1);
        assert_eq!(mc_blocks(Rect::new(0, 0, 8, 8)).len(), 8);
        // Odd shapes collapse to one block.
        assert_eq!(mc_blocks(Rect::new(0, 0, 3, 3)).len(), 1);
    }

    #[test]
    fn primary_mc_sits_on_region_origin() {
        let l = ChipLayout::paper_mixed();
        for r in &l.regions {
            assert_eq!(l.grid.node_coord(r.mc), r.rect.origin());
            assert_eq!(l.kind(r.mc), NodeKind::Mc);
            for &mc in &r.mcs {
                assert_eq!(l.kind(mc), NodeKind::Mc);
            }
        }
    }

    #[test]
    fn region_of_lookup() {
        let l = ChipLayout::paper_mixed();
        let n = l.grid.node(Coord::new(5, 1));
        assert_eq!(l.region_of(n).unwrap().rect, Rect::new(4, 0, 4, 4));
        let n2 = l.grid.node(Coord::new(1, 6));
        assert_eq!(l.region_of(n2).unwrap().rect, Rect::new(0, 4, 8, 4));
    }

    #[test]
    fn chiplet_layout_builds_regions_per_chip() {
        use adaptnoc_topology::chiplet::ChipletConfig;
        let cc = ChipletConfig::new(2, 2, 4, 4);
        let l = ChipLayout::chiplet(&cc, &[(1, 0), (1, 1)]);
        assert_eq!(l.regions.len(), 4);
        assert_eq!(l.kinds.len(), 64);
        // Each 4x4 chip holds two 4x2 MC blocks.
        let mcs = l.kinds.iter().filter(|k| **k == NodeKind::Mc).count();
        assert_eq!(mcs, 8);
        // GPU chips carry GPU nodes, CPU chips none.
        assert!(!l
            .nodes_of_kind(cc.chip_rect(1, 0), NodeKind::Gpu)
            .is_empty());
        assert!(l
            .nodes_of_kind(cc.chip_rect(0, 0), NodeKind::Gpu)
            .is_empty());
    }

    #[test]
    fn chiplet_layout_network_carries_cross_chip_traffic() {
        use adaptnoc_sim::config::SimConfig;
        use adaptnoc_sim::network::Network;
        use adaptnoc_sim::prelude::Packet;
        use adaptnoc_topology::chiplet::{chiplet_chip, ChipletConfig};
        let cc = ChipletConfig::new(2, 1, 4, 4);
        let l = ChipLayout::chiplet(&cc, &[]);
        let cfg = SimConfig::baseline();
        let spec = chiplet_chip(&cc, &cfg).unwrap();
        let mut net = Network::new(spec, cfg).unwrap();
        // MC of chip (0,0) answers a request from a core on chip (1,0).
        let core = l.grid.node(Coord::new(6, 2));
        let mc = l.regions[0].mc;
        net.inject(Packet::request(1, core, mc, 0)).unwrap();
        net.inject(Packet::reply(2, mc, core, 0)).unwrap();
        for _ in 0..2000 {
            net.step();
        }
        assert_eq!(net.totals().stats.packets, 2);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_regions_panic() {
        ChipLayout::new(
            Grid::paper(),
            &[
                (Rect::new(0, 0, 4, 4), false),
                (Rect::new(2, 2, 4, 4), true),
            ],
        );
    }

    #[test]
    fn node_kind_names() {
        assert_eq!(NodeKind::Cpu.name(), "cpu");
        assert_eq!(NodeKind::Gpu.name(), "gpu");
        assert_eq!(NodeKind::Mc.name(), "mc");
    }
}
