//! The closed-loop workload engine.
//!
//! Drives a [`Network`] with the synthetic applications of
//! [`crate::profiles`]: cores issue memory requests (to their MC or to
//! shared-L2 slices) with bounded memory-level parallelism, the MC and L2
//! models reply after their service latencies, and instruction retirement
//! advances with completed round trips — so execution time responds to NoC
//! latency exactly as in the paper's full-system runs.

use crate::profiles::{AppProfile, PhaseParams};
use adaptnoc_core::controller::RegionTelemetry;
use adaptnoc_core::layout::{ChipLayout, NodeKind};
use adaptnoc_power::energy::EnergyModel;
use adaptnoc_rl::state::Observation;
use adaptnoc_sim::flit::{Packet, PacketKind};
use adaptnoc_sim::ids::NodeId;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::rng::Rng;
use adaptnoc_sim::stats::{CycleHistogram, EpochReport};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Memory-system service parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryParams {
    /// Off-chip access latency at the MC, cycles.
    pub dram_latency: u64,
    /// Minimum spacing between MC replies (bandwidth), cycles.
    pub mc_service_interval: u64,
    /// Shared-L2 slice hit latency, cycles.
    pub l2_latency: u64,
}

impl Default for MemoryParams {
    fn default() -> Self {
        MemoryParams {
            dram_latency: 60,
            mc_service_interval: 1,
            l2_latency: 8,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SlotState {
    Ready { at: u64 },
    Waiting,
}

#[derive(Debug, Clone)]
struct CoreState {
    node: NodeId,
    slots: Vec<SlotState>,
}

#[derive(Debug, Clone, Default)]
struct McState {
    next_free: u64,
    pending: BinaryHeap<Reverse<(u64, u16, u64)>>, // (ready, dst node, tag)
}

/// Per-epoch workload counters for one application.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochCounters {
    /// Requests issued (L1D misses).
    pub requests: u64,
    /// Requests that went to a memory controller (L2 misses).
    pub mc_requests: u64,
    /// Coherence packets sent.
    pub coherence_sent: u64,
    /// Replies received (completed round trips).
    pub replies: u64,
    /// Instructions retired.
    pub insts: f64,
    /// Synthetic L1I misses.
    pub l1i: f64,
    /// Sum of network latencies of delivered packets attributed to the app.
    pub net_lat_sum: u64,
    /// Sum of queuing latencies.
    pub queue_lat_sum: u64,
    /// Sum of hop counts.
    pub hops_sum: u64,
    /// Delivered packets attributed to the app.
    pub delivered: u64,
    /// Delivered data (reply) packets.
    pub data_delivered: u64,
    /// Delivered coherence packets.
    pub coherence_delivered: u64,
    /// NI source-queue length samples.
    pub inj_queue_sum: u64,
    /// Number of samples taken.
    pub inj_queue_samples: u64,
    /// Log2-bucket histogram of total packet latency (creation to
    /// ejection) for packets attributed to the app — the quantile
    /// substrate behind [`EpochCounters::p50_latency`].
    pub latency_hist: CycleHistogram,
}

impl EpochCounters {
    /// Mean network latency of the epoch (cycles).
    pub fn avg_network_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.net_lat_sum as f64 / self.delivered as f64
        }
    }

    /// Mean queuing latency of the epoch (cycles).
    pub fn avg_queuing_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.queue_lat_sum as f64 / self.delivered as f64
        }
    }

    /// Mean hop count of the epoch.
    pub fn avg_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.delivered as f64
        }
    }

    /// Median total packet latency this epoch (cycles).
    pub fn p50_latency(&self) -> f64 {
        self.latency_hist.p50()
    }

    /// 95th-percentile total packet latency this epoch (cycles).
    pub fn p95_latency(&self) -> f64 {
        self.latency_hist.p95()
    }

    /// 99th-percentile total packet latency this epoch (cycles).
    pub fn p99_latency(&self) -> f64 {
        self.latency_hist.p99()
    }

    /// 99.9th-percentile total packet latency this epoch (cycles).
    pub fn p999_latency(&self) -> f64 {
        self.latency_hist.p999()
    }
}

/// One running application instance.
#[derive(Debug, Clone)]
pub struct AppInstance {
    /// The profile driving this app.
    pub profile: AppProfile,
    /// Region index in the layout.
    pub region_idx: usize,
    /// Primary MC node (tree root).
    pub mc: NodeId,
    /// All of the region's MCs (one per 2x4 block).
    pub mcs: Vec<NodeId>,
    /// Additional shared MCs borrowed from adjacent regions (Sec. II-C2).
    pub extra_mcs: Vec<NodeId>,
    cores: Vec<CoreState>,
    phase: usize,
    phase_elapsed: u64,
    /// Counters for the current epoch.
    pub epoch: EpochCounters,
    /// Total instructions retired.
    pub total_insts: f64,
    /// Cycle the app finished (hit its instruction target), if it has.
    pub finished_at: Option<u64>,
    target_insts: f64,
}

impl AppInstance {
    /// The current phase parameters.
    pub fn phase(&self) -> &PhaseParams {
        &self.profile.phases[self.phase]
    }

    fn advance_phase(&mut self) {
        self.phase_elapsed += 1;
        if self.phase_elapsed >= self.phase().duration {
            self.phase_elapsed = 0;
            self.phase = (self.phase + 1) % self.profile.phases.len();
        }
    }

    /// Whether the app reached its instruction target.
    pub fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Progress towards the instruction target in [0, 1].
    pub fn progress(&self) -> f64 {
        (self.total_insts / self.target_insts).min(1.0)
    }
}

/// The workload: all running applications plus the MC and L2 service
/// models.
#[derive(Debug)]
pub struct Workload {
    /// Running applications (one per region).
    pub apps: Vec<AppInstance>,
    /// Memory-system parameters.
    pub params: MemoryParams,
    node_app: Vec<Option<usize>>,
    /// MC service models, sorted by node id. A sorted vec (binary-search
    /// lookup) instead of a `HashMap` keeps the per-cycle reply scan in a
    /// deterministic order regardless of hasher state — required for the
    /// parallel campaign runner's byte-identical-output guarantee — and
    /// drops hashing from the tick hot path.
    mcs: Vec<(u16, McState)>,
    l2_pending: BinaryHeap<Reverse<(u64, u16, u16, u64)>>, // (ready, slice, requester, tag)
    tag_slot: HashMap<u64, (usize, usize, usize)>,
    next_id: u64,
    next_tag: u64,
    rng: Rng,
    /// Network cycle of the previous [`tick`](Self::tick).
    last_tick: Option<u64>,
}

impl Workload {
    /// Binds one profile per region of the layout.
    ///
    /// # Panics
    ///
    /// Panics if the profile count disagrees with the region count.
    pub fn new(layout: &ChipLayout, profiles: &[AppProfile], seed: u64) -> Self {
        assert_eq!(
            layout.regions.len(),
            profiles.len(),
            "one profile per region"
        );
        let mut node_app = vec![None; layout.grid.tiles()];
        let mut mcs: Vec<(u16, McState)> = Vec::new();
        let apps: Vec<AppInstance> = layout
            .regions
            .iter()
            .enumerate()
            .zip(profiles)
            .map(|((i, region), profile)| {
                let max_mlp = profile.phases.iter().map(|p| p.mlp).max().unwrap() as usize;
                let mut cores = Vec::new();
                for c in region.rect.iter() {
                    let n = layout.grid.node(c);
                    node_app[n.index()] = Some(i);
                    if layout.kind(n) == NodeKind::Mc {
                        if let Err(at) = mcs.binary_search_by_key(&n.0, |(k, _)| *k) {
                            mcs.insert(at, (n.0, McState::default()));
                        }
                    } else {
                        cores.push(CoreState {
                            node: n,
                            slots: vec![SlotState::Ready { at: 0 }; max_mlp],
                        });
                    }
                }
                let target = profile.insts_per_core * cores.len() as f64;
                AppInstance {
                    profile: profile.clone(),
                    region_idx: i,
                    mc: region.mc,
                    mcs: region.mcs.clone(),
                    extra_mcs: Vec::new(),
                    cores,
                    phase: 0,
                    phase_elapsed: 0,
                    epoch: EpochCounters::default(),
                    total_insts: 0.0,
                    finished_at: None,
                    target_insts: target,
                }
            })
            .collect();
        Workload {
            apps,
            params: MemoryParams::default(),
            node_app,
            mcs,
            l2_pending: BinaryHeap::new(),
            tag_slot: HashMap::new(),
            next_id: 0,
            next_tag: 0,
            rng: Rng::seed_from_u64(seed),
            last_tick: None,
        }
    }

    /// Disables the instruction targets: applications run forever
    /// (steady-state measurement mode).
    pub fn set_endless(&mut self) {
        for a in self.apps.iter_mut() {
            a.target_insts = f64::INFINITY;
        }
    }

    /// Lets `app` also use `mc` (a shared MC of an adjacent region); the MC
    /// service model must already know the node (it belongs to some
    /// region).
    pub fn add_shared_mc(&mut self, app: usize, mc: NodeId) {
        self.apps[app].extra_mcs.push(mc);
        if let Err(at) = self.mcs.binary_search_by_key(&mc.0, |(k, _)| *k) {
            self.mcs.insert(at, (mc.0, McState::default()));
        }
    }

    /// Whether all applications finished.
    pub fn finished(&self) -> bool {
        self.apps.iter().all(|a| a.finished())
    }

    /// The completion time of the slowest app, if all finished.
    pub fn execution_time(&self) -> Option<u64> {
        self.apps
            .iter()
            .map(|a| a.finished_at)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(0))
    }

    /// One cycle: dispatch deliveries, run the MC/L2 service models, issue
    /// new requests and coherence traffic. Returns the number of packets
    /// offered to the network this cycle (the [`crate::Injector`]
    /// contract).
    ///
    /// The deliveries are [`Network::delivered`], the output of the most
    /// recent step only, so calls must alternate with steps; debug builds
    /// check that exactly one step ran since the previous tick.
    pub fn tick(&mut self, net: &mut Network) -> usize {
        let mut offered = 0;
        let now = net.now();
        debug_assert!(
            self.last_tick.is_none_or(|t| now == t + 1),
            "tick at cycle {now} after one at {:?}: every tick must follow \
             exactly one step, or deliveries are missed or handled twice",
            self.last_tick
        );
        self.last_tick = Some(now);

        // 1. Dispatch deliveries.
        for d in net.delivered() {
            let pkt = &d.packet;
            // Attribute stats to the app on the "core side".
            let owner = match pkt.kind {
                PacketKind::Reply => self.node_app[pkt.dst.index()],
                _ => self.node_app[pkt.src.index()],
            };
            if let Some(a) = owner {
                let e = &mut self.apps[a].epoch;
                e.delivered += 1;
                e.net_lat_sum += d.network_latency();
                e.queue_lat_sum += d.queuing_latency();
                e.hops_sum += d.hops as u64;
                e.latency_hist.observe(d.total_latency());
                match pkt.kind {
                    PacketKind::Reply => e.data_delivered += 1,
                    PacketKind::Coherence => e.coherence_delivered += 1,
                    PacketKind::Request => {}
                }
            }

            if let Ok(at) = self.mcs.binary_search_by_key(&pkt.dst.0, |(k, _)| *k) {
                let mc = &mut self.mcs[at].1;
                if pkt.kind == PacketKind::Request {
                    // Off-chip access: reply after DRAM latency, paced by
                    // the MC service bandwidth.
                    let ready = (now + self.params.dram_latency).max(mc.next_free);
                    mc.next_free = ready + self.params.mc_service_interval;
                    mc.pending.push(Reverse((ready, pkt.src.0, pkt.tag)));
                }
                continue;
            }
            match pkt.kind {
                PacketKind::Request => {
                    // Shared-L2 slice hit at the destination tile.
                    self.l2_pending.push(Reverse((
                        now + self.params.l2_latency,
                        pkt.dst.0,
                        pkt.src.0,
                        pkt.tag,
                    )));
                }
                PacketKind::Reply => {
                    if let Some((a, c, s)) = self.tag_slot.remove(&pkt.tag) {
                        let app = &mut self.apps[a];
                        let think = app.phase().think_time as u64;
                        let ipr = app.phase().insts_per_request;
                        app.cores[c].slots[s] = SlotState::Ready { at: now + think };
                        app.epoch.replies += 1;
                        app.epoch.insts += ipr;
                        app.epoch.l1i += app.phase().l1i_miss_ratio;
                        app.total_insts += ipr;
                        if app.finished_at.is_none() && app.total_insts >= app.target_insts {
                            app.finished_at = Some(now);
                        }
                    }
                }
                PacketKind::Coherence => {}
            }
        }

        // 2. MC replies (ascending node order: the reply injection order is
        // part of the deterministic behaviour contract).
        for (mc_node, mc) in self.mcs.iter_mut() {
            while let Some(&Reverse((ready, dst, tag))) = mc.pending.peek() {
                if ready > now {
                    break;
                }
                mc.pending.pop();
                self.next_id += 1;
                if net
                    .inject(Packet::reply(
                        self.next_id,
                        NodeId(*mc_node),
                        NodeId(dst),
                        tag,
                    ))
                    .is_ok()
                {
                    offered += 1;
                }
            }
        }

        // 3. L2 replies.
        while let Some(&Reverse((ready, slice, req, tag))) = self.l2_pending.peek() {
            if ready > now {
                break;
            }
            self.l2_pending.pop();
            self.next_id += 1;
            if net
                .inject(Packet::reply(self.next_id, NodeId(slice), NodeId(req), tag))
                .is_ok()
            {
                offered += 1;
            }
        }

        // 4. Issue requests and coherence.
        for a in 0..self.apps.len() {
            if self.apps[a].finished() {
                continue;
            }
            self.apps[a].advance_phase();
            let phase = *self.apps[a].phase();
            let n_cores = self.apps[a].cores.len();
            for c in 0..n_cores {
                // Coherence (open loop).
                if phase.coherence_per_kcycle > 0.0
                    && self.rng.random_f64() < phase.coherence_per_kcycle / 1000.0
                {
                    let src = self.apps[a].cores[c].node;
                    let peer = self.random_peer(a, c);
                    self.next_id += 1;
                    if net
                        .inject(Packet::coherence(self.next_id, src, peer, 0))
                        .is_ok()
                    {
                        offered += 1;
                    }
                    self.apps[a].epoch.coherence_sent += 1;
                }
                // Memory requests up to the phase's MLP.
                for s in 0..(phase.mlp as usize).min(self.apps[a].cores[c].slots.len()) {
                    let ready = match self.apps[a].cores[c].slots[s] {
                        SlotState::Ready { at } => at <= now,
                        SlotState::Waiting => false,
                    };
                    if !ready {
                        continue;
                    }
                    let src = self.apps[a].cores[c].node;
                    let to_mc = self.rng.random_f64() < phase.mc_fraction;
                    let dst = if to_mc {
                        self.pick_mc(a)
                    } else {
                        self.random_peer(a, c)
                    };
                    self.next_tag += 1;
                    self.next_id += 1;
                    let tag = self.next_tag;
                    if net
                        .inject(Packet::request(self.next_id, src, dst, tag))
                        .is_ok()
                    {
                        offered += 1;
                        self.apps[a].cores[c].slots[s] = SlotState::Waiting;
                        self.tag_slot.insert(tag, (a, c, s));
                        self.apps[a].epoch.requests += 1;
                        if to_mc {
                            self.apps[a].epoch.mc_requests += 1;
                        }
                    }
                }
            }
        }

        // 5. Injection-queue sampling.
        if now.is_multiple_of(64) {
            for a in 0..self.apps.len() {
                let mut sum = 0;
                for c in &self.apps[a].cores {
                    sum += net.ni_queue_len(c.node) as u64;
                }
                for k in 0..self.apps[a].mcs.len() {
                    sum += net.ni_queue_len(self.apps[a].mcs[k]) as u64;
                }
                self.apps[a].epoch.inj_queue_sum += sum;
                self.apps[a].epoch.inj_queue_samples += 1;
            }
        }
        offered
    }

    fn pick_mc(&mut self, a: usize) -> NodeId {
        // Addresses interleave across the region's MCs (plus any borrowed
        // ones), the usual page-interleaved MC mapping.
        let app = &self.apps[a];
        let n = app.mcs.len() + app.extra_mcs.len();
        if n == 0 {
            return app.mc;
        }
        let k = self.rng.random_below(n);
        if k < app.mcs.len() {
            app.mcs[k]
        } else {
            app.extra_mcs[k - app.mcs.len()]
        }
    }

    fn random_peer(&mut self, a: usize, c: usize) -> NodeId {
        let n = self.apps[a].cores.len();
        if n <= 1 {
            return self.apps[a].cores[c].node;
        }
        loop {
            let k = self.rng.random_below(n);
            if k != c {
                return self.apps[a].cores[k].node;
            }
        }
    }

    /// Epoch boundary: harvests the network's epoch report, builds one
    /// [`RegionTelemetry`] per region (state attributes + Eq.-2 reward
    /// inputs), and resets the per-epoch counters.
    pub fn epoch_telemetry(
        &mut self,
        net: &mut Network,
        layout: &ChipLayout,
        model: &EnergyModel,
    ) -> (EpochReport, Vec<RegionTelemetry>) {
        let fwd: Vec<u64> = net.router_forwarded_epoch().to_vec();
        let occ: Vec<u64> = net.router_occupancy_epoch().to_vec();
        let report = net.take_epoch();
        let cycles = report.static_cycles.cycles.max(1);
        let total_fwd: u64 = fwd.iter().sum::<u64>().max(1);
        let energy = model.energy(&report);
        let window_s = cycles as f64 * 1e-9;
        let total_active: f64 = net
            .spec()
            .routers
            .iter()
            .filter(|r| r.active)
            .count()
            .max(1) as f64;
        let cfg = net.config().clone();

        let mut out = Vec::with_capacity(self.apps.len());
        for app in self.apps.iter_mut() {
            let rect = layout.regions[app.region_idx].rect;
            let region_routers: Vec<usize> =
                rect.iter().map(|c| layout.grid.router(c).index()).collect();
            let r_fwd: u64 = region_routers.iter().map(|&r| fwd[r]).sum();
            let r_occ: u64 = region_routers.iter().map(|&r| occ[r]).sum();
            let n_routers = region_routers.len() as f64;
            let active_routers = region_routers
                .iter()
                .filter(|&&r| net.spec().routers[r].active)
                .count() as f64;

            let dyn_share = r_fwd as f64 / total_fwd as f64;
            // Static power follows the powered (non-gated) routers, so a
            // cmesh region's reward credit reflects its actual gating.
            let static_share = active_routers.max(1.0) / total_active;
            let power_w =
                (energy.dynamic_j * dyn_share + energy.static_j * static_share) / window_s;

            let capacity = n_routers * 5.0 * cfg.total_vcs() as f64 * cfg.vc_depth as f64;
            let e = app.epoch;
            let obs = Observation {
                l1d_misses: e.requests as f64,
                l1i_misses: e.l1i,
                l2_misses: e.mc_requests as f64,
                retired_instructions: e.insts,
                coherence_packets: (e.coherence_sent + e.coherence_delivered) as f64,
                data_packets: e.data_delivered as f64,
                buffer_utilization: r_occ as f64 / (cycles as f64 * capacity),
                injection_utilization: if e.inj_queue_samples == 0 {
                    0.0
                } else {
                    (e.inj_queue_sum as f64 / e.inj_queue_samples as f64) / (n_routers * 4.0)
                },
                router_throughput: r_fwd as f64 / (n_routers * cycles as f64),
                // current_topology / columns / rows are overwritten by the
                // controller, which knows the configured state.
                current_topology: 0.0,
                columns: rect.w as f64,
                rows: rect.h as f64,
            };
            out.push(RegionTelemetry {
                obs,
                power_w,
                network_latency: e.avg_network_latency(),
                queuing_latency: e.avg_queuing_latency(),
            });
            app.epoch = EpochCounters::default();
        }
        (report, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use adaptnoc_sim::config::SimConfig;
    use adaptnoc_topology::prelude::*;

    fn setup(gpu: bool) -> (ChipLayout, Network, Workload) {
        setup_with(gpu, if gpu { "KM" } else { "CA" })
    }

    fn setup_with(gpu: bool, name: &str) -> (ChipLayout, Network, Workload) {
        let layout = ChipLayout::single(Rect::new(0, 0, 4, 4), gpu);
        let cfg = SimConfig::baseline();
        let spec = mesh_chip(layout.grid, &cfg).unwrap();
        let net = Network::new(spec, cfg).unwrap();
        let profile = crate::profiles::by_name(name).unwrap();
        let wl = Workload::new(&layout, &[profile], 7);
        (layout, net, wl)
    }

    #[test]
    fn closed_loop_round_trips_complete() {
        let (_l, mut net, mut wl) = setup(false);
        for _ in 0..5000 {
            wl.tick(&mut net);
            net.step();
        }
        let app = &wl.apps[0];
        assert!(app.epoch.requests > 0, "cores must issue requests");
        assert!(app.epoch.replies > 0, "round trips must complete");
        assert!(app.epoch.mc_requests > 0, "some requests hit the MC");
        assert!(app.epoch.mc_requests < app.epoch.requests, "some hit L2");
        assert!(app.total_insts > 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exactly one step")]
    fn a_tick_after_two_steps_is_caught() {
        let (_l, mut net, mut wl) = setup(false);
        wl.tick(&mut net);
        net.run(2);
        wl.tick(&mut net);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exactly one step")]
    fn a_repeated_tick_is_caught() {
        let (_l, mut net, mut wl) = setup(false);
        wl.tick(&mut net);
        net.step();
        wl.tick(&mut net);
        wl.tick(&mut net);
    }

    #[test]
    fn gpu_profile_generates_more_traffic() {
        // Compare a typical GPU app against a typical (compute-bound) CPU
        // app; the most memory-bound CPU app (CA) intentionally approaches
        // GPU intensity, so it is not the comparator here.
        let run = |gpu: bool, name: &str| -> u64 {
            let (_l, mut net, mut wl) = setup_with(gpu, name);
            for _ in 0..5000 {
                wl.tick(&mut net);
                net.step();
            }
            wl.apps[0].epoch.requests
        };
        let cpu = run(false, "BS");
        let gpu = run(true, "KM");
        assert!(
            gpu > cpu * 2,
            "GPU ({gpu}) must out-inject CPU ({cpu}) substantially"
        );
    }

    #[test]
    fn mc_injection_port_is_the_gpu_bottleneck() {
        // The paper's tree motivation (Sec. II-B3): reply traffic congests
        // at the MC's injection port. The MC source queue must back up
        // under a reply-heavy GPU app.
        let (_l, mut net, mut wl) = setup(true);
        let mc = wl.apps[0].mc;
        for _ in 0..5000 {
            wl.tick(&mut net);
            net.step();
        }
        assert!(
            net.ni_queue_len(mc) > 4,
            "MC queue {} should back up",
            net.ni_queue_len(mc)
        );
    }

    #[test]
    fn app_finishes_and_execution_time_reported() {
        let (_l, mut net, mut wl) = setup(false);
        // Shrink the target so the test completes quickly.
        wl.apps[0].target_insts = 3_000.0;
        let mut cycles = 0u64;
        while !wl.finished() && cycles < 200_000 {
            wl.tick(&mut net);
            net.step();
            cycles += 1;
        }
        assert!(wl.finished(), "app must reach its instruction target");
        let t = wl.execution_time().unwrap();
        assert!(t > 0 && t <= cycles);
    }

    #[test]
    fn slower_network_slows_execution() {
        // Same app on a mesh vs a mesh whose injection is hobbled by a
        // stalled router: execution takes longer.
        let time_with = |stall: bool| -> u64 {
            let (_l, mut net, mut wl) = setup(false);
            wl.apps[0].target_insts = 2_000.0;
            if stall {
                // Periodically stall the central routers.
                for r in [5u16, 6, 9, 10] {
                    net.begin_router_config(adaptnoc_sim::ids::RouterId(r), 30_000);
                }
            }
            let mut cycles = 0;
            while !wl.finished() && cycles < 400_000 {
                wl.tick(&mut net);
                net.step();
                cycles += 1;
            }
            wl.execution_time().unwrap_or(cycles)
        };
        let fast = time_with(false);
        let slow = time_with(true);
        assert!(
            slow > fast,
            "stalled network ({slow}) must be slower than clean ({fast})"
        );
    }

    #[test]
    fn telemetry_populates_state_attributes() {
        let (layout, mut net, mut wl) = setup(true);
        let model = EnergyModel::new(net.config());
        for _ in 0..3000 {
            wl.tick(&mut net);
            net.step();
        }
        let (report, telemetry) = wl.epoch_telemetry(&mut net, &layout, &model);
        assert_eq!(telemetry.len(), 1);
        let t = &telemetry[0];
        assert!(t.obs.l1d_misses > 0.0);
        assert!(t.obs.l2_misses > 0.0);
        assert!(t.obs.data_packets > 0.0);
        assert!(t.obs.retired_instructions > 0.0);
        assert!(t.obs.buffer_utilization > 0.0);
        assert!(t.obs.router_throughput > 0.0);
        assert!(t.power_w > 0.0);
        assert!(t.network_latency > 0.0);
        assert!(report.stats.packets > 0);
        // Counters reset after harvest.
        assert_eq!(wl.apps[0].epoch.requests, 0);
    }

    #[test]
    fn shared_mc_receives_requests() {
        let layout = ChipLayout::paper_mixed();
        let cfg = SimConfig::baseline();
        let spec = mesh_chip(layout.grid, &cfg).unwrap();
        let mut net = Network::new(spec, cfg).unwrap();
        let profiles = vec![
            crate::profiles::by_name("CA").unwrap(),
            crate::profiles::by_name("KM").unwrap(),
            crate::profiles::by_name("BP").unwrap(),
        ];
        let mut wl = Workload::new(&layout, &profiles, 3);
        // App 0 borrows app 1's MC.
        let shared = layout.regions[1].mc;
        wl.add_shared_mc(0, shared);
        for _ in 0..4000 {
            wl.tick(&mut net);
            net.step();
        }
        assert!(wl.apps[0].epoch.replies > 0);
    }

    #[test]
    fn phases_cycle() {
        let layout = ChipLayout::single(Rect::new(0, 0, 4, 4), false);
        let profile = crate::profiles::by_name("X264").unwrap();
        let wl = Workload::new(&layout, std::slice::from_ref(&profile), 1);
        let mut app = wl.apps[0].clone();
        let total: u64 = profile.phases.iter().map(|p| p.duration).sum();
        for _ in 0..total {
            app.advance_phase();
        }
        assert_eq!(app.phase, 0, "phases must wrap around");
    }
}
