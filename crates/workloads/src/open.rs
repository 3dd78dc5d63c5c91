//! The open-system traffic engine.
//!
//! Unlike the closed-loop [`crate::engine::Workload`] (where cores wait
//! for replies, so injection self-throttles under congestion), an
//! open-loop source generates packets from an *external* arrival process
//! that does not care whether the network keeps up. Packets queue without
//! bound at their source NI, so offered load and accepted throughput
//! diverge past saturation and tail latency blows up — the latency–
//! throughput curves, saturation knees, and overload behaviour that
//! closed-loop workloads structurally cannot measure.
//!
//! The engine is seeded and deterministic: the same
//! [`TrafficSpec`]/seed/cycle count always generates the same packet
//! stream, which is what makes scenario files replayable and campaign
//! output byte-identical across thread counts.
//!
//! Accounting follows the open-system convention: *offered* counts every
//! generated packet (it enters the unbounded NI source queue immediately,
//! stamped with its creation cycle, so queueing delay is part of total
//! latency); *accepted* is what the network delivers. The gap between the
//! two, plus the source-queue depth trend, is the saturation signal.

use crate::Injector;
use adaptnoc_sim::flit::Packet;
use adaptnoc_sim::ids::NodeId;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::rng::Rng;
use adaptnoc_topology::geom::{Coord, Grid, Rect};

/// The arrival process generating packets at each source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// At most one packet per cycle per source, probability = rate
    /// (plus `floor(rate)` guaranteed packets for overload rates).
    Bernoulli,
    /// Poisson arrivals: the per-cycle packet count is Poisson-distributed
    /// with mean = rate, so bursts of several packets in one cycle occur
    /// naturally.
    Poisson,
    /// Markov-modulated Poisson process: a two-state (Off/On) chain
    /// shared by all sources of the engine modulates the Poisson rate.
    /// In the On state the rate is multiplied by `burst`; transitions
    /// happen per cycle with probabilities `p_on` (Off→On) and `p_off`
    /// (On→Off), giving mean burst length `1/p_off` cycles.
    Mmpp {
        /// Rate multiplier while the chain is On.
        burst: f64,
        /// Per-cycle Off→On transition probability.
        p_on: f64,
        /// Per-cycle On→Off transition probability.
        p_off: f64,
    },
}

/// How destinations are drawn for generated packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DestPattern {
    /// Uniform random over the region (excluding the source).
    Uniform,
    /// Zipf-skewed popularity with exponent `s`: the region's nodes are
    /// ranked in index order and node at rank `k` (1-based) is chosen
    /// with probability proportional to `1 / k^s`. `s = 0` is uniform;
    /// larger `s` concentrates traffic on a few popular destinations.
    Zipf {
        /// Skew exponent (>= 0).
        s: f64,
    },
    /// All traffic to one node.
    Hotspot(NodeId),
    /// Uniform over a (usually small) hot sub-rectangle — a "hotspot
    /// storm" aimed at a region rather than a single tile.
    HotspotRegion(Rect),
    /// `(x, y) -> (y, x)` within the region.
    Transpose,
    /// Random adjacent tile inside the region.
    Neighbor,
}

/// Time-varying modulation of the base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateShape {
    /// The base rate, unchanged.
    Constant,
    /// Linear ramp from the base rate to `rate` over `over` cycles
    /// (then holds at `rate`).
    RampTo {
        /// Target rate at the end of the ramp.
        rate: f64,
        /// Ramp duration in cycles.
        over: u64,
    },
    /// Sinusoidal modulation: `rate * (1 + amplitude * sin(2πt/period))`,
    /// a compressed diurnal load curve.
    Diurnal {
        /// Relative swing (0.5 = ±50% of the base rate).
        amplitude: f64,
        /// Full period in cycles.
        period: u64,
    },
    /// Periodic bursts: rate is multiplied by `factor` for the first
    /// `len` cycles of every `every`-cycle interval.
    Burst {
        /// Rate multiplier during the burst window.
        factor: f64,
        /// Interval between burst starts, cycles.
        every: u64,
        /// Burst length, cycles.
        len: u64,
    },
}

/// A complete open-loop traffic description: what arrives, how often,
/// where it goes, and how that changes over time. Shared between the
/// engine and the scenario DSL's AST.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Base injection rate, packets per node per cycle.
    pub rate: f64,
    /// The arrival process.
    pub arrival: Arrival,
    /// The destination pattern.
    pub dest: DestPattern,
    /// Time-varying rate modulation.
    pub shape: RateShape,
}

impl TrafficSpec {
    /// A plain uniform-random Bernoulli source at `rate` — the default
    /// everything else is a variation of.
    pub fn uniform(rate: f64) -> Self {
        TrafficSpec {
            rate,
            arrival: Arrival::Bernoulli,
            dest: DestPattern::Uniform,
            shape: RateShape::Constant,
        }
    }
}

/// Cumulative offered/accepted accounting kept by an [`OpenLoopEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenStats {
    /// Packets generated (entered a source queue).
    pub offered: u64,
    /// Cycles ticked.
    pub cycles: u64,
}

impl OpenStats {
    /// Mean offered load in packets per node per cycle.
    pub fn offered_rate(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.offered as f64 / (self.cycles as f64 * nodes as f64)
        }
    }
}

/// A seeded, deterministic open-loop traffic source over a region.
///
/// ```
/// use adaptnoc_workloads::open::{OpenLoopEngine, TrafficSpec};
/// use adaptnoc_workloads::Injector;
/// use adaptnoc_topology::prelude::*;
/// use adaptnoc_sim::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = Grid::new(4, 4);
/// let spec = mesh_chip(grid, &SimConfig::baseline())?;
/// let mut net = Network::new(spec, SimConfig::baseline())?;
/// let mut eng = OpenLoopEngine::new(grid, Rect::new(0, 0, 4, 4),
///     TrafficSpec::uniform(0.1), 42);
/// for _ in 0..1000 {
///     eng.tick(&mut net);
///     net.step();
/// }
/// assert!(eng.stats().offered > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OpenLoopEngine {
    grid: Grid,
    rect: Rect,
    spec: TrafficSpec,
    /// Fraction of generated packets that are multi-flit replies.
    pub data_fraction: f64,
    nodes: Vec<NodeId>,
    hot_nodes: Vec<NodeId>,
    zipf_cdf: Vec<f64>,
    mmpp_on: bool,
    elapsed: u64,
    next_id: u64,
    /// Packet ids are `n * id_lanes + id_lane` for `n = 1, 2, ...`.
    id_lane: u64,
    id_lanes: u64,
    rng: Rng,
    stats: OpenStats,
}

impl OpenLoopEngine {
    /// Creates an engine driving `rect` of `grid` with `spec`.
    pub fn new(grid: Grid, rect: Rect, spec: TrafficSpec, seed: u64) -> Self {
        let mut eng = OpenLoopEngine {
            grid,
            rect,
            spec: TrafficSpec::uniform(0.0),
            data_fraction: 0.4,
            nodes: rect.iter().map(|c| grid.node(c)).collect(),
            hot_nodes: Vec::new(),
            zipf_cdf: Vec::new(),
            mmpp_on: false,
            elapsed: 0,
            next_id: 0,
            id_lane: 0,
            id_lanes: 1,
            rng: Rng::seed_from_u64(seed),
            stats: OpenStats::default(),
        };
        eng.set_spec(spec);
        eng
    }

    /// Numbers this engine's packets `n * lanes + lane` (`n = 1, 2, ...`)
    /// instead of `1, 2, ...`. Several engines feeding one network must
    /// take distinct lanes of a common `lanes`: the simulator identifies a
    /// packet by its id alone (a fault NACK purges by id), so two engines
    /// counting from 1 would alias each other's packets. Interleaved lanes
    /// keep ids in generation order across the engines.
    ///
    /// # Panics
    ///
    /// Panics unless `lane < lanes`.
    pub fn with_id_lane(mut self, lane: u64, lanes: u64) -> Self {
        assert!(lane < lanes, "id lane {lane} outside 0..{lanes}");
        self.id_lane = lane;
        self.id_lanes = lanes;
        self
    }

    /// The driven region.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// The active traffic spec.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// Cumulative offered/accepted accounting.
    pub fn stats(&self) -> OpenStats {
        self.stats
    }

    /// Number of source nodes driven.
    pub fn sources(&self) -> usize {
        self.nodes.len()
    }

    /// Switches to a new traffic phase. Ramp/diurnal/burst clocks restart
    /// at the switch (phase time is relative to the phase start), and the
    /// derived destination tables are rebuilt.
    pub fn set_spec(&mut self, spec: TrafficSpec) {
        self.spec = spec;
        self.elapsed = 0;
        self.zipf_cdf.clear();
        self.hot_nodes.clear();
        match spec.dest {
            DestPattern::Zipf { s } => {
                let mut acc = 0.0;
                for k in 1..=self.nodes.len() {
                    acc += 1.0 / (k as f64).powf(s.max(0.0));
                    self.zipf_cdf.push(acc);
                }
                for w in self.zipf_cdf.iter_mut() {
                    *w /= acc;
                }
            }
            DestPattern::HotspotRegion(hot) => {
                self.hot_nodes = hot.iter().map(|c| self.grid.node(c)).collect();
            }
            _ => {}
        }
    }

    /// The effective per-source rate this cycle: base rate, shaped by
    /// the phase clock, modulated by the MMPP chain state.
    fn current_rate(&mut self) -> f64 {
        let base = self.spec.rate;
        let t = self.elapsed;
        let shaped = match self.spec.shape {
            RateShape::Constant => base,
            RateShape::RampTo { rate, over } => {
                if over == 0 || t >= over {
                    rate
                } else {
                    base + (rate - base) * (t as f64 / over as f64)
                }
            }
            RateShape::Diurnal { amplitude, period } => {
                if period == 0 {
                    base
                } else {
                    let phase = (t % period) as f64 / period as f64;
                    base * (1.0 + amplitude * (2.0 * std::f64::consts::PI * phase).sin())
                }
            }
            RateShape::Burst { factor, every, len } => {
                if every > 0 && t % every < len {
                    base * factor
                } else {
                    base
                }
            }
        };
        let modulated = match self.spec.arrival {
            Arrival::Mmpp { burst, p_on, p_off } => {
                if self.mmpp_on {
                    if self.rng.random_f64() < p_off {
                        self.mmpp_on = false;
                    }
                } else if self.rng.random_f64() < p_on {
                    self.mmpp_on = true;
                }
                if self.mmpp_on {
                    shaped * burst
                } else {
                    shaped
                }
            }
            _ => shaped,
        };
        modulated.max(0.0)
    }

    /// Packets to generate at one source this cycle for rate `r`.
    fn draw_count(&mut self, r: f64) -> u64 {
        match self.spec.arrival {
            Arrival::Bernoulli => {
                let whole = r as u64;
                let frac = r - whole as f64;
                whole + u64::from(frac > 0.0 && self.rng.random_f64() < frac)
            }
            Arrival::Poisson | Arrival::Mmpp { .. } => {
                // Knuth's product-of-uniforms sampler; fine for the
                // per-node-per-cycle rates (< ~10) a NoC sweep uses.
                let l = (-r).exp();
                let mut k = 0u64;
                let mut p = 1.0;
                loop {
                    p *= self.rng.random_f64();
                    if p <= l {
                        return k;
                    }
                    k += 1;
                }
            }
        }
    }

    fn destination(&mut self, src: Coord) -> NodeId {
        match self.spec.dest {
            DestPattern::Uniform => loop {
                let d = self.nodes[self.rng.random_below(self.nodes.len())];
                if d != self.grid.node(src) {
                    return d;
                }
            },
            DestPattern::Zipf { .. } => {
                let src_n = self.grid.node(src);
                for _ in 0..32 {
                    let u = self.rng.random_f64();
                    let k = self.zipf_cdf.partition_point(|&c| c < u);
                    let d = self.nodes[k.min(self.nodes.len() - 1)];
                    if d != src_n {
                        return d;
                    }
                }
                // Pathological skew aimed at the source itself: fall back
                // to the next node in rank order.
                self.nodes[(self.nodes.iter().position(|&n| n == src_n).unwrap_or(0) + 1)
                    % self.nodes.len()]
            }
            DestPattern::Hotspot(n) => n,
            DestPattern::HotspotRegion(_) => {
                self.hot_nodes[self.rng.random_below(self.hot_nodes.len())]
            }
            DestPattern::Transpose => {
                let rx = src.x - self.rect.x;
                let ry = src.y - self.rect.y;
                let tx = self.rect.x + (ry % self.rect.w);
                let ty = self.rect.y + (rx % self.rect.h);
                self.grid.node(Coord::new(tx, ty))
            }
            DestPattern::Neighbor => {
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
        }
    }

    /// Generates this cycle's packets. Returns how many were offered.
    pub fn tick(&mut self, net: &mut Network) -> usize {
        let rate = self.current_rate();
        let mut offered = 0;
        for i in 0..self.nodes.len() {
            let count = self.draw_count(rate);
            for _ in 0..count {
                let src = self.nodes[i];
                let dst = self.destination(self.grid.node_coord(src));
                if dst == src {
                    continue;
                }
                self.next_id += 1;
                let id = self.next_id * self.id_lanes + self.id_lane;
                let pkt = if self.rng.random_f64() < self.data_fraction {
                    Packet::reply(id, src, dst, 0)
                } else {
                    Packet::request(id, src, dst, 0)
                };
                if net.inject(pkt).is_ok() {
                    offered += 1;
                }
            }
        }
        self.elapsed += 1;
        self.stats.offered += offered as u64;
        self.stats.cycles += 1;
        offered
    }
}

impl Injector for OpenLoopEngine {
    fn tick(&mut self, net: &mut Network) -> usize {
        OpenLoopEngine::tick(self, net)
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

    fn engine(spec: TrafficSpec, seed: u64) -> OpenLoopEngine {
        OpenLoopEngine::new(Grid::new(4, 4), Rect::new(0, 0, 4, 4), spec, seed)
    }

    #[test]
    fn poisson_mean_tracks_rate() {
        let mut eng = engine(
            TrafficSpec {
                arrival: Arrival::Poisson,
                ..TrafficSpec::uniform(0.3)
            },
            11,
        );
        let mut n = net();
        for _ in 0..2000 {
            eng.tick(&mut n);
            n.step();
        }
        let rate = eng.stats().offered_rate(16);
        assert!(
            (0.27..=0.33).contains(&rate),
            "poisson offered rate {rate} should track 0.3"
        );
    }

    #[test]
    fn id_lanes_keep_two_engines_apart_and_in_generation_order() {
        let mut a = engine(TrafficSpec::uniform(0.2), 5).with_id_lane(0, 4);
        let mut b = engine(TrafficSpec::uniform(0.2), 6).with_id_lane(3, 4);
        let mut n = net();
        let mut ids = Vec::new();
        for _ in 0..500 {
            a.tick(&mut n);
            b.tick(&mut n);
            n.step();
            ids.extend(n.delivered().iter().map(|d| d.packet.id));
        }
        let of_lane = |lane| {
            let mut v: Vec<u64> = ids.iter().filter(|&&id| id % 4 == lane).copied().collect();
            v.sort_unstable();
            v
        };
        let (from_a, from_b) = (of_lane(0), of_lane(3));
        assert_eq!(from_a.len() + from_b.len(), ids.len(), "no other lanes");
        assert!(from_a.len() > 100 && from_b.len() > 100);
        assert_eq!(from_a[..3], [4, 8, 12], "n * lanes + lane from n = 1");
        assert_eq!(from_b[..3], [7, 11, 15]);
    }

    #[test]
    fn poisson_bursts_exceed_one_per_cycle() {
        let mut eng = engine(
            TrafficSpec {
                arrival: Arrival::Poisson,
                ..TrafficSpec::uniform(0.5)
            },
            3,
        );
        let mut saw_burst = false;
        for _ in 0..2000 {
            if eng.draw_count(0.5) > 1 {
                saw_burst = true;
                break;
            }
        }
        assert!(saw_burst, "Poisson must occasionally batch arrivals");
    }

    #[test]
    fn mmpp_on_state_raises_offered_load() {
        let run = |arrival: Arrival| -> f64 {
            let mut eng = engine(
                TrafficSpec {
                    arrival,
                    ..TrafficSpec::uniform(0.05)
                },
                7,
            );
            let mut n = net();
            for _ in 0..4000 {
                eng.tick(&mut n);
                n.step();
            }
            eng.stats().offered_rate(16)
        };
        let flat = run(Arrival::Poisson);
        let bursty = run(Arrival::Mmpp {
            burst: 6.0,
            p_on: 0.01,
            p_off: 0.02,
        });
        assert!(
            bursty > flat * 1.5,
            "MMPP ({bursty}) must out-offer plain Poisson ({flat})"
        );
    }

    #[test]
    fn zipf_concentrates_on_popular_nodes() {
        let mut eng = engine(
            TrafficSpec {
                dest: DestPattern::Zipf { s: 1.5 },
                ..TrafficSpec::uniform(0.2)
            },
            5,
        );
        let mut n = net();
        let mut per_dst = [0u64; 16];
        for cycle in 0.. {
            if cycle < 3000 {
                eng.tick(&mut n);
            } else if n.in_flight() == 0 {
                break;
            }
            n.step();
            for d in n.delivered() {
                per_dst[d.packet.dst.index()] += 1;
            }
        }
        let total: u64 = per_dst.iter().sum();
        let top: u64 = per_dst[0].max(per_dst[1]);
        assert!(
            top as f64 > total as f64 * 0.2,
            "a top-ranked node should attract >20% of zipf(1.5) traffic"
        );
    }

    #[test]
    fn hotspot_region_storm_targets_the_rect() {
        let hot = Rect::new(2, 2, 2, 2);
        let mut eng = engine(
            TrafficSpec {
                dest: DestPattern::HotspotRegion(hot),
                ..TrafficSpec::uniform(0.1)
            },
            9,
        );
        let mut n = net();
        let grid = Grid::new(4, 4);
        for cycle in 0.. {
            if cycle < 1000 {
                eng.tick(&mut n);
            } else if n.in_flight() == 0 {
                break;
            }
            n.step();
            for d in n.delivered() {
                assert!(hot.contains(grid.node_coord(d.packet.dst)));
            }
        }
        assert!(n.totals().stats.packets > 0);
    }

    #[test]
    fn ramp_raises_rate_over_time() {
        let mut eng = engine(
            TrafficSpec {
                shape: RateShape::RampTo {
                    rate: 0.8,
                    over: 1000,
                },
                ..TrafficSpec::uniform(0.0)
            },
            13,
        );
        let early = {
            eng.elapsed = 100;
            eng.current_rate()
        };
        let late = {
            eng.elapsed = 900;
            eng.current_rate()
        };
        let after = {
            eng.elapsed = 5000;
            eng.current_rate()
        };
        assert!(early < late, "ramp must rise: {early} -> {late}");
        assert!((after - 0.8).abs() < 1e-12, "ramp holds at target");
    }

    #[test]
    fn burst_shape_multiplies_rate_in_window() {
        let mut eng = engine(
            TrafficSpec {
                shape: RateShape::Burst {
                    factor: 4.0,
                    every: 100,
                    len: 10,
                },
                ..TrafficSpec::uniform(0.1)
            },
            13,
        );
        eng.elapsed = 205; // inside the third burst window
        let hot = eng.current_rate();
        eng.elapsed = 250; // between bursts
        let cool = eng.current_rate();
        assert!((hot - 0.4).abs() < 1e-12);
        assert!((cool - 0.1).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_stream() {
        let run = || -> (u64, Vec<usize>) {
            let mut eng = engine(
                TrafficSpec {
                    arrival: Arrival::Poisson,
                    dest: DestPattern::Zipf { s: 1.0 },
                    ..TrafficSpec::uniform(0.25)
                },
                77,
            );
            let mut n = net();
            let mut per_cycle = Vec::new();
            for _ in 0..500 {
                per_cycle.push(eng.tick(&mut n));
                n.step();
            }
            (eng.stats().offered, per_cycle)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overload_backs_up_source_queues() {
        let mut eng = engine(TrafficSpec::uniform(0.9), 21);
        let mut n = net();
        for _ in 0..3000 {
            eng.tick(&mut n);
            n.step();
        }
        let depth: usize = (0..16).map(|i| n.ni_queue_len(NodeId(i))).sum();
        assert!(
            depth > 50,
            "0.9 pkts/node/cycle must exceed mesh capacity (queue {depth})"
        );
    }

    #[test]
    fn phase_switch_rebuilds_destination_tables() {
        let mut eng = engine(TrafficSpec::uniform(0.2), 2);
        eng.set_spec(TrafficSpec {
            dest: DestPattern::Zipf { s: 1.0 },
            ..TrafficSpec::uniform(0.2)
        });
        assert_eq!(eng.zipf_cdf.len(), 16);
        assert!((eng.zipf_cdf.last().unwrap() - 1.0).abs() < 1e-12);
        eng.set_spec(TrafficSpec::uniform(0.2));
        assert!(eng.zipf_cdf.is_empty());
    }
}
