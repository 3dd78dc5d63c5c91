//! The deadlock-free dynamic subNoC reconfiguration protocol
//! (Sec. II-C1 walk-through, following Lysne's methodology \\[28\\]).
//!
//! Switching an `N x M` subNoC's topology proceeds in stages:
//!
//! 1. **Notify** — `(M + N − 2) × (T_r + T_l)` cycles to reach every router
//!    of the subNoC.
//! 2. **Drain** — routes over channels being *removed* are first retired:
//!    * *fast path* (the old and the new topology both contain the full
//!      region mesh — mesh/torus/tree): the mesh-fallback routing tables
//!      `R_mesh` are installed, traffic keeps flowing, and the old express
//!      segments drain on their own ("avoids the network stall and package
//!      drainage" of naive schemes);
//!    * *slow path* (a cmesh is involved, so even NI attachments move):
//!      the region's NIs are paused (they keep queueing) and the region
//!      drains completely.
//! 3. **Swap** — the structural diff is applied atomically; in-flight
//!    traffic on kept channels is preserved (enforced by
//!    [`Network::reconfigure`]).
//! 4. **Setup** — every region router stalls for `T_s` cycles (its routing
//!    table is being written), then `R_new` is live. Paused NIs resume.
//!
//! Each routing function involved is deadlock-free and `R_mesh` adds no
//! cycle when combined with either (validated by
//! `adaptnoc_topology::validate`), satisfying Lysne's sufficient
//! conditions.

use adaptnoc_sim::ids::NodeId;
use adaptnoc_sim::network::{Network, NetworkError};
use adaptnoc_sim::routing::RoutingTables;
use adaptnoc_sim::spec::NetworkSpec;
use adaptnoc_topology::geom::{Grid, Rect};
use adaptnoc_topology::regions::TopologyKind;
use std::collections::HashSet;
use std::sync::Arc;

/// Timing parameters of the protocol (Sec. IV-A values by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigTiming {
    /// Hop latency `T_r` (2 cycles).
    pub t_r: u64,
    /// Link latency `T_l` (1 cycle).
    pub t_l: u64,
    /// Connection setup time `T_s` (14 cycles, following Hu et al. \\[43\\]).
    pub t_s: u64,
}

impl Default for ReconfigTiming {
    fn default() -> Self {
        ReconfigTiming {
            t_r: 2,
            t_l: 1,
            t_s: 14,
        }
    }
}

impl ReconfigTiming {
    /// The notification latency for an `w x h` subNoC:
    /// `(M + N − 2) (T_r + T_l)`.
    pub fn notify_cycles(&self, rect: Rect) -> u64 {
        (rect.w as u64 + rect.h as u64 - 2) * (self.t_r + self.t_l)
    }
}

/// Whether a topology keeps the full region mesh alive (fast-path capable).
pub fn keeps_mesh(kind: TopologyKind) -> bool {
    !matches!(kind, TopologyKind::Cmesh)
}

/// Protocol stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigStage {
    /// Notification wavefront propagating.
    Notify {
        /// Cycle at which every router has been notified.
        until: u64,
    },
    /// Old routes draining.
    Drain,
    /// Routers running their `T_s` setup.
    Setup {
        /// Cycle at which setup completes.
        until: u64,
    },
    /// Reconfiguration complete.
    Done,
}

/// An in-flight region reconfiguration.
#[derive(Debug, Clone)]
pub struct RegionReconfig {
    /// The subNoC being reconfigured.
    pub rect: Rect,
    /// Target full-chip spec, shared with the network at the swap (the
    /// controller never deep-copies a spec it already built).
    target: Arc<NetworkSpec>,
    /// Mesh-fallback tables (fast path only).
    transitional: Option<RoutingTables>,
    /// Current stage.
    pub stage: ReconfigStage,
    fast: bool,
    region_nodes: Vec<NodeId>,
    timing: ReconfigTiming,
    started_at: u64,
    /// Cycle the protocol finished, once done.
    pub finished_at: Option<u64>,
}

impl RegionReconfig {
    /// Starts a reconfiguration of `rect` towards `target` (a full-chip
    /// spec, owned or already behind an `Arc`). `transitional` must be the
    /// mesh-fallback tables when both the old and new topology keep the
    /// mesh (fast path); `None` selects the slow (pause-and-drain) path.
    pub fn start(
        net: &Network,
        grid: &Grid,
        rect: Rect,
        target: impl Into<Arc<NetworkSpec>>,
        transitional: Option<RoutingTables>,
        timing: ReconfigTiming,
    ) -> Self {
        let fast = transitional.is_some();
        let region_nodes = rect.iter().map(|c| grid.node(c)).collect();
        RegionReconfig {
            rect,
            target: target.into(),
            transitional,
            stage: ReconfigStage::Notify {
                until: net.now() + timing.notify_cycles(rect),
            },
            fast,
            region_nodes,
            timing,
            started_at: net.now(),
            finished_at: None,
        }
    }

    /// Starts a reconfiguration of `rect` back to a previously captured
    /// known-good spec (the self-healing ladder's last rung). Picks the
    /// fast path when the rollback target keeps every router's power state
    /// and every NI attachment unchanged — then the target's own tables are
    /// a valid transitional routing function — and the slow
    /// (pause-and-drain) path otherwise.
    pub fn rollback_to(
        net: &Network,
        grid: &Grid,
        rect: Rect,
        last_good: impl Into<Arc<NetworkSpec>>,
        timing: ReconfigTiming,
    ) -> Self {
        let target: Arc<NetworkSpec> = last_good.into();
        let cur = net.spec();
        let structure_kept = cur.routers.len() == target.routers.len()
            && cur
                .routers
                .iter()
                .zip(&target.routers)
                .all(|(a, b)| a.active == b.active)
            && cur.nis == target.nis;
        let transitional = structure_kept.then(|| target.tables.clone());
        Self::start(net, grid, rect, target, transitional, timing)
    }

    /// Total latency so far (or final latency once done).
    pub fn latency(&self, now: u64) -> u64 {
        self.finished_at
            .unwrap_or(now)
            .saturating_sub(self.started_at)
    }

    /// Advances the protocol by one cycle. Returns `true` once done.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`] from the structural swap (a quiescence
    /// violation here indicates a protocol bug — the drain stage must make
    /// the swap preconditions hold).
    pub fn tick(&mut self, net: &mut Network, grid: &Grid) -> Result<bool, NetworkError> {
        match self.stage {
            ReconfigStage::Notify { until } => {
                if net.now() >= until {
                    if let Some(tables) = self.transitional.take() {
                        // Fast path: R_mesh takes over; express channels
                        // drain while traffic keeps flowing.
                        net.install_tables(tables);
                    } else {
                        // Slow path: pause the region's NIs.
                        for &n in &self.region_nodes {
                            net.set_ni_paused(n, true);
                        }
                    }
                    self.stage = ReconfigStage::Drain;
                }
                Ok(false)
            }
            ReconfigStage::Drain => {
                if self.drained(net, grid) {
                    net.reconfigure_shared(Arc::clone(&self.target))?;
                    let until = net.now() + self.timing.t_s;
                    for c in self.rect.iter() {
                        net.begin_router_config(grid.router(c), self.timing.t_s);
                    }
                    self.stage = ReconfigStage::Setup { until };
                }
                Ok(false)
            }
            ReconfigStage::Setup { until } => {
                if net.now() >= until {
                    if !self.fast {
                        for &n in &self.region_nodes {
                            net.set_ni_paused(n, false);
                        }
                    }
                    self.stage = ReconfigStage::Done;
                    self.finished_at = Some(net.now());
                    return Ok(true);
                }
                Ok(false)
            }
            ReconfigStage::Done => Ok(true),
        }
    }

    fn drained(&self, net: &Network, grid: &Grid) -> bool {
        let region_routers: HashSet<u16> = self.rect.iter().map(|c| grid.router(c).0).collect();
        if self.fast {
            // Only channels being removed must be quiescent.
            let target_keys: HashSet<_> = self.target.channels.iter().map(|c| c.key()).collect();
            net.spec()
                .channels
                .iter()
                .filter(|c| {
                    region_routers.contains(&c.src.router.0)
                        || region_routers.contains(&c.dst.router.0)
                })
                .filter(|c| !target_keys.contains(&c.key()))
                .all(|c| net.channel_quiescent(c.key()))
        } else {
            // Full region quiesce: no buffered flits, no in-flight wires,
            // idle NIs.
            let routers_empty = region_routers
                .iter()
                .all(|&r| net.router_flits(adaptnoc_sim::ids::RouterId(r)) == 0);
            let channels_empty = net
                .spec()
                .channels
                .iter()
                .filter(|c| {
                    region_routers.contains(&c.src.router.0)
                        || region_routers.contains(&c.dst.router.0)
                })
                .all(|c| net.channel_quiescent(c.key()));
            let nis_idle = self.region_nodes.iter().all(|&n| net.ni_idle(n));
            routers_empty && channels_empty && nis_idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_sim::config::SimConfig;
    use adaptnoc_sim::prelude::Packet;
    use adaptnoc_topology::prelude::*;

    fn chip(kind: TopologyKind) -> (NetworkSpec, Grid, Rect) {
        let grid = Grid::paper();
        let rect = Rect::new(0, 0, 4, 4);
        let spec = build_chip_spec(
            grid,
            &[RegionTopology::new(rect, kind)],
            &SimConfig::adapt_noc(),
        )
        .unwrap();
        (spec, grid, rect)
    }

    #[test]
    fn notify_latency_formula() {
        let t = ReconfigTiming::default();
        // 4x4: (4+4-2)*(2+1) = 18 cycles.
        assert_eq!(t.notify_cycles(Rect::new(0, 0, 4, 4)), 18);
        // 2x4: (2+4-2)*(3) = 12.
        assert_eq!(t.notify_cycles(Rect::new(0, 0, 2, 4)), 12);
        // 8x8: 14*3 = 42.
        assert_eq!(t.notify_cycles(Rect::new(0, 0, 8, 8)), 42);
    }

    #[test]
    fn fast_path_mesh_to_torus_under_traffic() {
        let (mesh_spec, grid, rect) = chip(TopologyKind::Mesh);
        let (torus_spec, _, _) = chip(TopologyKind::Torus);
        let cfg = SimConfig::adapt_noc();
        let mut net = adaptnoc_sim::network::Network::new(mesh_spec.clone(), cfg).unwrap();

        // Continuous traffic during the reconfiguration.
        let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
        let mut id = 0u64;
        let mut inject = |net: &mut adaptnoc_sim::network::Network, k: u64| {
            for i in 0..nodes.len() {
                let s = nodes[i];
                let d = nodes[(i + k as usize + 1) % nodes.len()];
                if s != d {
                    id += 1;
                    net.inject(Packet::request(id, s, d, 0)).unwrap();
                }
            }
        };

        let mut rc = RegionReconfig::start(
            &net,
            &grid,
            rect,
            torus_spec,
            Some(mesh_spec.tables.clone()),
            ReconfigTiming::default(),
        );
        let mut done_at = None;
        for k in 0..3000u64 {
            if k % 7 == 0 && k < 600 {
                inject(&mut net, k);
            }
            net.step();
            if done_at.is_none() && rc.tick(&mut net, &grid).unwrap() {
                done_at = Some(net.now());
            }
        }
        let done_at = done_at.expect("reconfiguration must complete");
        assert!(rc.latency(net.now()) > 0);
        assert_eq!(rc.finished_at, Some(done_at));
        // No packet lost across the switch.
        while net.in_flight() > 0 {
            net.step();
        }
        assert_eq!(net.totals().stats.packets, id);
        // The network now runs the torus (wrap channels exist).
        assert!(net.spec().channels.iter().any(|c| c.dateline));
        assert_eq!(net.unroutable_events(), 0);
    }

    #[test]
    fn slow_path_mesh_to_cmesh_under_traffic() {
        let (mesh_spec, grid, rect) = chip(TopologyKind::Mesh);
        let (cmesh_spec, _, _) = chip(TopologyKind::Cmesh);
        let cfg = SimConfig::adapt_noc();
        let mut net = adaptnoc_sim::network::Network::new(mesh_spec, cfg).unwrap();
        let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
        let mut id = 0u64;
        for i in 0..nodes.len() {
            for j in 0..nodes.len() {
                if i != j && (i + j) % 3 == 0 {
                    id += 1;
                    net.inject(Packet::reply(id, nodes[i], nodes[j], 0))
                        .unwrap();
                }
            }
        }
        let mut rc = RegionReconfig::start(
            &net,
            &grid,
            rect,
            cmesh_spec,
            None,
            ReconfigTiming::default(),
        );
        let mut done = false;
        for _ in 0..20_000 {
            net.step();
            if !done && rc.tick(&mut net, &grid).unwrap() {
                done = true;
                // Inject more traffic after the switch: it must flow on the
                // cmesh.
                for i in 0..nodes.len() {
                    id += 1;
                    net.inject(Packet::request(
                        id,
                        nodes[i],
                        nodes[(i + 5) % nodes.len()],
                        0,
                    ))
                    .ok();
                }
                id -= 1; // one self-send skipped
                         // Recount precisely: the (i+5)%16 mapping never maps i to i
                         // for 16 nodes, so restore.
                id += 1;
            }
        }
        assert!(done, "reconfiguration must complete");
        while net.in_flight() > 0 {
            net.step();
        }
        assert_eq!(net.totals().stats.packets, id);
        // The cmesh is live: 12 routers gated.
        assert_eq!(net.spec().active_routers(), 64 - 12);
        assert_eq!(net.unroutable_events(), 0);
    }

    #[test]
    fn cmesh_back_to_mesh_roundtrip() {
        let (mesh_spec, grid, rect) = chip(TopologyKind::Mesh);
        let (cmesh_spec, _, _) = chip(TopologyKind::Cmesh);
        let cfg = SimConfig::adapt_noc();
        let mut net = adaptnoc_sim::network::Network::new(cmesh_spec, cfg).unwrap();
        let mut rc = RegionReconfig::start(
            &net,
            &grid,
            rect,
            mesh_spec,
            None,
            ReconfigTiming::default(),
        );
        for _ in 0..10_000 {
            net.step();
            if rc.tick(&mut net, &grid).unwrap() {
                break;
            }
        }
        assert_eq!(rc.stage, ReconfigStage::Done);
        assert_eq!(net.spec().active_routers(), 64);
        // Traffic flows on the restored mesh.
        let a = grid.node(Coord::new(0, 0));
        let b = grid.node(Coord::new(3, 3));
        net.inject(Packet::request(1, a, b, 0)).unwrap();
        net.run(200);
        assert_eq!(net.totals().stats.packets, 1);
    }

    #[test]
    fn reconfig_latency_includes_all_stages() {
        let (mesh_spec, grid, rect) = chip(TopologyKind::Mesh);
        let (tree_spec, _, _) = chip(TopologyKind::Tree);
        let cfg = SimConfig::adapt_noc();
        let mut net = adaptnoc_sim::network::Network::new(mesh_spec.clone(), cfg).unwrap();
        let timing = ReconfigTiming::default();
        let mut rc = RegionReconfig::start(
            &net,
            &grid,
            rect,
            tree_spec,
            Some(mesh_spec.tables.clone()),
            timing,
        );
        let mut cycles = 0;
        loop {
            net.step();
            cycles += 1;
            if rc.tick(&mut net, &grid).unwrap() {
                break;
            }
            assert!(cycles < 1000, "reconfig too slow");
        }
        // At least notify + setup on an idle network.
        let min = timing.notify_cycles(rect) + timing.t_s;
        assert!(
            rc.latency(net.now()) >= min,
            "latency {} < {min}",
            rc.latency(net.now())
        );
    }
}
