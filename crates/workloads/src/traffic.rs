//! Open-loop synthetic traffic patterns for microbenchmark-style sweeps
//! (latency vs. load, ablations).

use adaptnoc_sim::flit::Packet;
use adaptnoc_sim::ids::NodeId;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::rng::Rng;
use adaptnoc_topology::geom::{Coord, Grid, Rect};

/// Classic NoC traffic patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Uniform random destinations.
    Uniform,
    /// Transpose: `(x, y) -> (y, x)` within the region.
    Transpose,
    /// Bit-complement: mirrored coordinates.
    BitComplement,
    /// All traffic to one hotspot node (e.g. the MC).
    Hotspot(NodeId),
    /// Nearest neighbour (random adjacent tile).
    Neighbor,
    /// Uniform random destination on a *different* chip of a chiplet
    /// fabric (chips are `chip_w x chip_h` tile blocks): every packet
    /// crosses at least one serialized inter-chip link, stressing the
    /// SerDes boundary instead of the on-chip mesh.
    CrossChip {
        /// Tiles per chip row.
        chip_w: u8,
        /// Tiles per chip column.
        chip_h: u8,
    },
}

/// An open-loop injector over a region.
#[derive(Debug)]
pub struct SyntheticInjector {
    /// Region driven.
    pub rect: Rect,
    /// Injection rate in packets per node per cycle.
    pub rate: f64,
    /// Destination pattern.
    pub pattern: Pattern,
    /// Fraction of packets that are multi-flit replies.
    pub data_fraction: f64,
    grid: Grid,
    nodes: Vec<NodeId>,
    next_id: u64,
    rng: Rng,
}

impl SyntheticInjector {
    /// Creates an injector.
    pub fn new(grid: Grid, rect: Rect, pattern: Pattern, rate: f64, seed: u64) -> Self {
        SyntheticInjector {
            rect,
            rate,
            pattern,
            data_fraction: 0.4,
            grid,
            nodes: rect.iter().map(|c| grid.node(c)).collect(),
            next_id: 0,
            rng: Rng::seed_from_u64(seed),
        }
    }

    fn destination(&mut self, src: Coord) -> NodeId {
        match self.pattern {
            Pattern::Uniform => loop {
                let d = self.nodes[self.rng.random_below(self.nodes.len())];
                if d != self.grid.node(src) {
                    return d;
                }
            },
            Pattern::Transpose => {
                let rx = src.x - self.rect.x;
                let ry = src.y - self.rect.y;
                let tx = self.rect.x + (ry % self.rect.w);
                let ty = self.rect.y + (rx % self.rect.h);
                self.grid.node(Coord::new(tx, ty))
            }
            Pattern::BitComplement => {
                let tx = self.rect.x + (self.rect.w - 1 - (src.x - self.rect.x));
                let ty = self.rect.y + (self.rect.h - 1 - (src.y - self.rect.y));
                self.grid.node(Coord::new(tx, ty))
            }
            Pattern::Hotspot(n) => n,
            Pattern::Neighbor => {
                let dirs = adaptnoc_sim::ids::Direction::ALL;
                for _ in 0..8 {
                    let d = dirs[self.rng.random_below(4)];
                    if let Some(n) = self.grid.neighbor(src, d) {
                        if self.rect.contains(n) {
                            return self.grid.node(n);
                        }
                    }
                }
                self.grid.node(src)
            }
            Pattern::CrossChip { chip_w, chip_h } => {
                let chip = (src.x / chip_w, src.y / chip_h);
                // Bounded rejection sampling; a single-chip region falls
                // back to the source (the caller drops src == dst).
                for _ in 0..64 {
                    let d = self.nodes[self.rng.random_below(self.nodes.len())];
                    let dc = self.grid.node_coord(d);
                    if (dc.x / chip_w, dc.y / chip_h) != chip {
                        return d;
                    }
                }
                self.grid.node(src)
            }
        }
    }

    /// Injects this cycle's packets. Returns how many were offered.
    ///
    /// Rates at or above 1.0 are honoured: every source injects
    /// `floor(rate)` packets each cycle plus one more with probability
    /// `fract(rate)` (stochastic rounding), so the expected offered load
    /// equals `rate` exactly and sweeps can drive sources past the
    /// one-packet-per-cycle Bernoulli ceiling into overload. For rates
    /// below 1.0 this reduces to the classic Bernoulli process (same
    /// decision, same RNG stream as before).
    pub fn tick(&mut self, net: &mut Network) -> usize {
        let mut offered = 0;
        let whole = self.rate.max(0.0) as u64;
        let frac = self.rate.max(0.0) - whole as f64;
        for i in 0..self.nodes.len() {
            let mut count = whole;
            if frac > 0.0 && self.rng.random_f64() < frac {
                count += 1;
            }
            for _ in 0..count {
                let src = self.nodes[i];
                let src_c = self.grid.node_coord(src);
                let dst = self.destination(src_c);
                if dst == src {
                    continue;
                }
                self.next_id += 1;
                let pkt = if self.rng.random_f64() < self.data_fraction {
                    Packet::reply(self.next_id, src, dst, 0)
                } else {
                    Packet::request(self.next_id, src, dst, 0)
                };
                if net.inject(pkt).is_ok() {
                    offered += 1;
                }
            }
        }
        offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_sim::config::SimConfig;
    use adaptnoc_topology::prelude::*;

    fn net() -> Network {
        let cfg = SimConfig::baseline();
        Network::new(mesh_chip(Grid::new(4, 4), &cfg).unwrap(), cfg).unwrap()
    }

    #[test]
    fn uniform_injection_delivers() {
        let grid = Grid::new(4, 4);
        let mut inj =
            SyntheticInjector::new(grid, Rect::new(0, 0, 4, 4), Pattern::Uniform, 0.05, 1);
        let mut net = net();
        let mut offered = 0;
        for _ in 0..2000 {
            offered += inj.tick(&mut net);
            net.step();
        }
        assert!(offered > 50);
        while net.in_flight() > 0 {
            net.step();
        }
        assert_eq!(net.totals().stats.packets, offered as u64);
    }

    #[test]
    fn transpose_is_deterministic_mapping() {
        let grid = Grid::new(4, 4);
        let mut inj =
            SyntheticInjector::new(grid, Rect::new(0, 0, 4, 4), Pattern::Transpose, 1.0, 1);
        let d = inj.destination(Coord::new(1, 3));
        assert_eq!(grid.node_coord(d), Coord::new(3, 1));
    }

    #[test]
    fn bit_complement_mapping() {
        let grid = Grid::new(4, 4);
        let mut inj =
            SyntheticInjector::new(grid, Rect::new(0, 0, 4, 4), Pattern::BitComplement, 1.0, 1);
        let d = inj.destination(Coord::new(0, 0));
        assert_eq!(grid.node_coord(d), Coord::new(3, 3));
    }

    #[test]
    fn hotspot_targets_single_node() {
        let grid = Grid::new(4, 4);
        let hot = grid.node(Coord::new(0, 0));
        let mut inj =
            SyntheticInjector::new(grid, Rect::new(0, 0, 4, 4), Pattern::Hotspot(hot), 0.1, 1);
        let mut net = net();
        for cycle in 0.. {
            if cycle < 500 {
                inj.tick(&mut net);
            } else if net.in_flight() == 0 {
                break;
            }
            net.step();
            for d in net.delivered() {
                assert_eq!(d.packet.dst, hot);
            }
        }
        assert!(net.totals().stats.packets > 0);
    }

    #[test]
    fn neighbor_stays_adjacent() {
        let grid = Grid::new(4, 4);
        let mut inj =
            SyntheticInjector::new(grid, Rect::new(0, 0, 4, 4), Pattern::Neighbor, 1.0, 1);
        for c in Rect::new(0, 0, 4, 4).iter() {
            let d = inj.destination(c);
            assert!(grid.node_coord(d).manhattan(c) <= 1);
        }
    }

    #[test]
    fn cross_chip_always_leaves_the_source_chip() {
        use adaptnoc_topology::chiplet::{chiplet_chip, ChipletConfig};
        let cc = ChipletConfig::new(2, 2, 4, 4);
        let grid = cc.grid();
        let pattern = Pattern::CrossChip {
            chip_w: 4,
            chip_h: 4,
        };
        let mut inj = SyntheticInjector::new(grid, Rect::new(0, 0, 8, 8), pattern, 1.0, 3);
        for c in Rect::new(0, 0, 8, 8).iter() {
            let d = grid.node_coord(inj.destination(c));
            assert_ne!((d.x / 4, d.y / 4), (c.x / 4, c.y / 4));
        }
        // And the traffic actually flows over a chiplet fabric.
        let cfg = SimConfig::baseline();
        let mut net = Network::new(chiplet_chip(&cc, &cfg).unwrap(), cfg).unwrap();
        let mut inj = SyntheticInjector::new(grid, Rect::new(0, 0, 8, 8), pattern, 0.02, 3);
        let mut offered = 0;
        for _ in 0..500 {
            offered += inj.tick(&mut net);
            net.step();
        }
        assert!(offered > 20);
        while net.in_flight() > 0 {
            net.step();
        }
        assert_eq!(net.totals().stats.packets, offered as u64);
    }

    #[test]
    fn rates_above_one_offer_multiple_packets_per_cycle() {
        let grid = Grid::new(4, 4);
        let mut inj = SyntheticInjector::new(grid, Rect::new(0, 0, 4, 4), Pattern::Uniform, 2.5, 9);
        let mut net = net();
        let cycles = 400usize;
        let mut offered = 0;
        for _ in 0..cycles {
            offered += inj.tick(&mut net);
            net.step();
        }
        // 16 sources at 2.5 pkts/node/cycle: expectation 40/cycle; the
        // stochastic-rounding remainder keeps it within a few percent.
        let per_cycle = offered as f64 / cycles as f64;
        assert!(
            (38.0..=42.0).contains(&per_cycle),
            "offered {per_cycle}/cycle should track rate*sources = 40"
        );
    }

    #[test]
    fn higher_rate_raises_latency() {
        let grid = Grid::new(4, 4);
        let run = |rate: f64| -> f64 {
            let mut inj =
                SyntheticInjector::new(grid, Rect::new(0, 0, 4, 4), Pattern::Uniform, rate, 5);
            let mut net = net();
            for _ in 0..4000 {
                inj.tick(&mut net);
                net.step();
            }
            net.totals().stats.avg_packet_latency()
        };
        let low = run(0.02);
        let high = run(0.45);
        assert!(high > low * 1.3, "load must raise latency: {low} -> {high}");
    }
}
