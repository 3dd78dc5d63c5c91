//! Runtime policies of the baseline designs: OSCAR's dynamic VC allocation
//! and conventional runtime power gating (FTBY_PG).

use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::{RouterId, Vnet};
use adaptnoc_sim::network::Network;
use adaptnoc_sim::stats::EpochReport;

/// OSCAR's dynamic VC allocation (Zhan et al., MICRO'16; paper baseline 2):
/// each epoch, the VC budget is re-partitioned between the request and
/// reply virtual networks according to their observed traffic shares. The
/// under-used vnet is restricted to fewer VCs — reducing inter-class
/// interference at some cost in peak utilization (the paper observes a
/// small queuing-latency increase).
#[derive(Debug, Clone)]
pub struct OscarPolicy {
    vcs_per_vnet: u8,
    /// Minimum VCs any vnet keeps.
    pub min_vcs: u8,
    last_masks: (u8, u8),
}

impl OscarPolicy {
    /// Creates the policy for a simulator configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let all = (1u8 << cfg.vcs_per_vnet) - 1;
        OscarPolicy {
            vcs_per_vnet: cfg.vcs_per_vnet,
            min_vcs: 1,
            last_masks: (all, all),
        }
    }

    /// The most recent (request, reply) masks.
    pub fn masks(&self) -> (u8, u8) {
        self.last_masks
    }

    /// Re-partitions VCs from the epoch's traffic mix and applies the masks
    /// to every active router.
    pub fn on_epoch(&mut self, net: &mut Network, report: &EpochReport) {
        // Weight replies by their flit count: VC pressure tracks flits,
        // not packets.
        let requests = (report.stats.by_kind[0] + report.stats.by_kind[2]) as f64;
        let replies =
            report.stats.by_kind[1] as f64 * adaptnoc_sim::config::DATA_PACKET_FLITS as f64;
        let total = requests + replies;
        let all = (1u8 << self.vcs_per_vnet) - 1;
        let mask_of = |n: u8| (1u8 << n) - 1;
        // Only repartition on clearly skewed traffic: the light class
        // donates one VC (modeling OSCAR's reallocation of its share of
        // the pool to the heavy class; our vnets cannot grow beyond their
        // physical VCs, so the donation shows up as the light class
        // shrinking). Balanced traffic keeps the full allocation.
        let (req_mask, rep_mask) = if total < 1.0 {
            (all, all)
        } else {
            let req_share = requests / total;
            let reduced = mask_of((self.vcs_per_vnet - 1).max(self.min_vcs));
            if req_share > 0.7 {
                (all, reduced)
            } else if req_share < 0.3 {
                (reduced, all)
            } else {
                (all, all)
            }
        };
        self.last_masks = (req_mask, rep_mask);
        let routers = net.spec().routers.len();
        for r in 0..routers {
            if !net.spec().routers[r].active {
                continue;
            }
            net.set_vc_mask(RouterId(r as u16), Vnet::REQUEST, req_mask);
            net.set_vc_mask(RouterId(r as u16), Vnet::REPLY, rep_mask);
        }
    }
}

/// Conventional runtime power gating (paper baseline 5, FTBY_PG): routers
/// idle for a full check window are put to sleep; any arrival pays the
/// wake-up latency (Hu et al. \\[43\\]). The paper's observation — substantial
/// static savings but "substantial latency to resume router's activity" —
/// falls out of the wake penalty.
#[derive(Debug, Clone)]
pub struct PowerGatePolicy {
    /// Cycles between idle checks.
    pub check_interval: u64,
    idle_streak: Vec<u32>,
    /// Idle checks a router must pass before sleeping.
    pub idle_threshold: u32,
}

impl PowerGatePolicy {
    /// Creates the policy with a 64-cycle check window and a 2-window
    /// idle threshold.
    pub fn new(routers: usize) -> Self {
        PowerGatePolicy {
            check_interval: 32,
            idle_streak: vec![0; routers],
            idle_threshold: 1,
        }
    }

    /// Per-cycle hook: on window boundaries, sleep routers that stayed
    /// idle. Returns how many routers were put to sleep this call.
    pub fn tick(&mut self, net: &mut Network) -> usize {
        if !net.now().is_multiple_of(self.check_interval) {
            return 0;
        }
        let mut slept = 0;
        let n = net.spec().routers.len();
        for r in 0..n {
            let id = RouterId(r as u16);
            if !net.spec().routers[r].active || net.is_sleeping(id) {
                continue;
            }
            if net.router_flits(id) == 0 {
                self.idle_streak[r] += 1;
                if self.idle_streak[r] >= self.idle_threshold && net.try_sleep_router(id) {
                    slept += 1;
                    self.idle_streak[r] = 0;
                }
            } else {
                self.idle_streak[r] = 0;
            }
        }
        slept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_sim::prelude::*;
    use adaptnoc_topology::prelude::*;

    fn mesh_net(cfg: SimConfig) -> Network {
        let spec = mesh_chip(Grid::new(4, 4), &cfg).unwrap();
        Network::new(spec, cfg).unwrap()
    }

    #[test]
    fn oscar_starts_with_all_vcs() {
        let cfg = SimConfig::baseline();
        let p = OscarPolicy::new(&cfg);
        assert_eq!(p.masks(), (0b111, 0b111));
    }

    #[test]
    fn oscar_shifts_vcs_toward_heavy_vnet() {
        let cfg = SimConfig::baseline();
        let mut net = mesh_net(cfg.clone());
        let mut p = OscarPolicy::new(&cfg);
        // Reply-dominated epoch.
        let mut report = EpochReport::default();
        report.stats.by_kind = [100, 5000, 50];
        p.on_epoch(&mut net, &report);
        let (req, rep) = p.masks();
        assert!(rep.count_ones() > req.count_ones());
        assert!(req.count_ones() >= 1);

        // Request-dominated epoch flips it.
        report.stats.by_kind = [5000, 100, 500];
        p.on_epoch(&mut net, &report);
        let (req, rep) = p.masks();
        assert!(req.count_ones() > rep.count_ones());
    }

    #[test]
    fn oscar_keeps_traffic_flowing() {
        let cfg = SimConfig::baseline();
        let mut net = mesh_net(cfg.clone());
        let mut p = OscarPolicy::new(&cfg);
        let mut report = EpochReport::default();
        report.stats.by_kind = [10_000, 10, 10];
        p.on_epoch(&mut net, &report);
        let grid = Grid::new(4, 4);
        let mut id = 0;
        for c in grid.iter() {
            id += 1;
            net.inject(Packet::reply(
                id,
                grid.node(c),
                grid.node(Coord::new(0, 0)),
                0,
            ))
            .ok();
        }
        net.run(3000);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn power_gate_sleeps_idle_routers() {
        let cfg = SimConfig::baseline();
        let mut net = mesh_net(cfg);
        let mut pg = PowerGatePolicy::new(16);
        let mut slept_total = 0;
        for _ in 0..400 {
            net.step();
            slept_total += pg.tick(&mut net);
        }
        assert!(slept_total >= 16, "all idle routers should sleep");
        // Static accounting reflects the gating.
        let e = net.take_epoch();
        assert!(e.static_cycles.router_off_cycles > 0);
    }

    #[test]
    fn power_gate_wakes_for_traffic_with_penalty() {
        let cfg = SimConfig::baseline();
        let grid = Grid::new(4, 4);
        let mut net = mesh_net(cfg.clone());
        let mut pg = PowerGatePolicy::new(16);
        // Let everything fall asleep.
        for _ in 0..400 {
            net.step();
            pg.tick(&mut net);
        }
        let a = grid.node(Coord::new(0, 0));
        let b = grid.node(Coord::new(3, 3));
        net.inject(Packet::request(1, a, b, 0)).unwrap();
        let mut woke = 0;
        for _ in 0..600 {
            net.step();
            // No pg.tick: do not re-sleep during measurement.
            if net.delivered().len() == 1 {
                woke = 1;
                break;
            }
        }
        assert_eq!(woke, 1, "packet must get through sleeping routers");
        // Latency with wake penalties far exceeds the gate-free case.
        let mut fresh = mesh_net(cfg);
        fresh.inject(Packet::request(1, a, b, 0)).unwrap();
        fresh.run(200);
        assert_eq!(fresh.totals().stats.packets, 1);
        // One packet each, so the latency sums are its latency.
        let base = fresh.totals().stats.network_latency_sum;
        // (Re-measure gated latency properly.)
        let mut gated_net = mesh_net(SimConfig::baseline());
        let mut pg2 = PowerGatePolicy::new(16);
        for _ in 0..400 {
            gated_net.step();
            pg2.tick(&mut gated_net);
        }
        gated_net.inject(Packet::request(2, a, b, 0)).unwrap();
        gated_net.run(600);
        let gated = gated_net.totals().stats.network_latency_sum;
        assert_eq!(gated_net.totals().stats.packets, 1);
        assert!(gated > base, "gated {gated} should exceed base {base}");
    }
}
