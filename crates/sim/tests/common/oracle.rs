//! A deliberately naive reference simulator: the yardstick the stepping
//! kernel (`Network::step`) is differentially tested against in
//! `tests/oracle_equivalence.rs`.
//!
//! It runs the router pipeline the textbook way, through the crate's public
//! API only — `NetworkSpec`, `SimConfig`, `Packet`, `Delivered`,
//! `TraceEvent`, `RoutingTables::lookup` and `ChannelSpec::class_after` —
//! and records its results in the public report types so they compare
//! field for field with `Network::totals()`:
//!
//! - routers, ports and VCs are plain structs, each input VC a `VecDeque`
//!   of flits that carry their packet by value;
//! - every cycle visits every router, channel and NI;
//! - RC walks the routing table for every head at every hop, and VA
//!   probes the output VCs one by one;
//! - the round-robin arbiters are its own few lines.
//!
//! There are no worklists, no lane words, no parked VCs, no VA digests,
//! no packet table and no lookahead, so none of the kernel's shortcuts can
//! hide a behaviour change. Out of scope: structural reconfiguration (only
//! a `reconfigure` that keeps the channels, NIs and router set, i.e. a
//! table and `vc_split` swap), `set_ni_paused`, telemetry, guards, and two
//! in-network packets sharing an id (the kernel orders such purge victims
//! by table handle, which the oracle does not have).

use adaptnoc_sim::prelude::*;
use adaptnoc_sim::spec::DIM_NONE;
use std::collections::VecDeque;

/// Grants the first requester after the previous winner, wrapping around;
/// the pointer only moves on a grant.
#[derive(Debug, Clone, Copy, Default)]
struct RoundRobin(usize);

impl RoundRobin {
    /// `requesters` must be ascending.
    fn grant(&mut self, requesters: &[usize]) -> Option<usize> {
        let pick = *requesters
            .iter()
            .find(|&&c| c > self.0)
            .or(requesters.first())?;
        self.0 = pick;
        Some(pick)
    }
}

#[derive(Debug, Clone, Copy)]
struct Flit {
    pkt: Packet,
    /// Which packet this is inside the network (ids repeat on retries).
    uid: u64,
    seq: u8,
    /// Buffered: earliest switch-allocation cycle. On a wire: arrival.
    ready_at: u64,
    /// Cycle the flit entered the source router; the tail's is the
    /// packet's `Delivered::injected_at`.
    injected_at: u64,
    hops: u16,
    vc_class: u8,
    last_dim: u8,
    /// The downstream VC, while on a wire.
    vc: usize,
}

impl Flit {
    fn is_head(&self) -> bool {
        self.seq == 0
    }

    fn is_tail(&self) -> bool {
        self.seq + 1 == self.pkt.len
    }
}

#[derive(Debug, Clone, Default)]
struct InVc {
    buf: VecDeque<Flit>,
    /// RC's output port for the packet at the front, kept until its tail
    /// leaves.
    route: Option<usize>,
    /// The packet holding `route` / `out_vc`; its flits may be elsewhere.
    owner: Option<(u64, Packet)>,
    /// VA's output VC.
    out_vc: Option<usize>,
    /// An NI is streaming a packet into this VC.
    ni_lock: bool,
}

#[derive(Debug, Clone)]
struct Port {
    vcs: Vec<InVc>,
    /// Output side: the input `(port, vc)` holding each output VC.
    alloc: Vec<Option<(usize, usize)>>,
    /// Wiring, from the spec: the channel leaving and entering this port,
    /// and the NIs attached to it.
    out: Option<usize>,
    feeder: Option<usize>,
    nis: Vec<usize>,
    va_rr: RoundRobin,
    sa_rr: RoundRobin,
    inj_rr: RoundRobin,
}

#[derive(Debug, Clone)]
struct Router {
    ports: Vec<Port>,
    sleeping: bool,
    failed: bool,
    wake_at: u64,
    config_until: u64,
    vc_mask: Vec<u8>,
}

#[derive(Debug, Clone)]
struct Channel {
    q: VecDeque<Flit>,
    /// Upstream credits per downstream VC.
    credits: Vec<u8>,
    faulted: bool,
}

#[derive(Debug, Clone, Copy)]
struct Stream {
    pkt: Packet,
    uid: u64,
    vc: usize,
    sent: u8,
}

#[derive(Debug, Clone, Default)]
struct Ni {
    queue: VecDeque<Packet>,
    cur: Option<Stream>,
}

/// The reference network. Method names and semantics follow `Network`.
#[derive(Debug, Clone)]
pub struct Oracle {
    cfg: SimConfig,
    spec: NetworkSpec,
    now: u64,
    routers: Vec<Router>,
    channels: Vec<Channel>,
    nis: Vec<Ni>,
    /// `(channel, vc)` credits returned next cycle.
    pending_credits: Vec<(usize, usize)>,
    next_uid: u64,
    /// The most recent step's deliveries.
    delivered: Vec<Delivered>,
    trace: Vec<TraceEvent>,
    stats: NetStats,
    events: EventCounts,
    statics: StaticCycles,
    unroutable: u64,
}

impl Oracle {
    /// A reference network for a spec and config `Network::new` accepts.
    pub fn new(spec: NetworkSpec, cfg: SimConfig) -> Oracle {
        let vcs = cfg.total_vcs();
        let port = Port {
            vcs: vec![InVc::default(); vcs],
            alloc: vec![None; vcs],
            out: None,
            feeder: None,
            nis: Vec::new(),
            va_rr: RoundRobin::default(),
            sa_rr: RoundRobin::default(),
            inj_rr: RoundRobin::default(),
        };
        let routers = spec
            .routers
            .iter()
            .map(|r| Router {
                ports: vec![port.clone(); r.n_ports as usize],
                sleeping: false,
                failed: false,
                wake_at: 0,
                config_until: 0,
                vc_mask: vec![u8::MAX; cfg.vnets as usize],
            })
            .collect();
        let channel = Channel {
            q: VecDeque::new(),
            credits: vec![cfg.vc_depth; vcs],
            faulted: false,
        };
        let capacity: usize = spec
            .routers
            .iter()
            .filter(|r| r.active)
            .map(|r| r.n_ports as usize * vcs * cfg.vc_depth as usize)
            .sum();
        let mut o = Oracle {
            channels: vec![channel; spec.channels.len()],
            nis: vec![Ni::default(); spec.nis.len()],
            routers,
            cfg,
            spec,
            now: 0,
            pending_credits: Vec::new(),
            next_uid: 0,
            delivered: Vec::new(),
            trace: Vec::new(),
            stats: NetStats::default(),
            events: EventCounts::default(),
            statics: StaticCycles::default(),
            unroutable: 0,
        };
        o.stats.buffer_capacity = capacity as u64;
        o.wire();
        o
    }

    fn wire(&mut self) {
        for (ci, c) in self.spec.channels.iter().enumerate() {
            self.routers[c.src.router.index()].ports[c.src.port.index()].out = Some(ci);
            self.routers[c.dst.router.index()].ports[c.dst.port.index()].feeder = Some(ci);
        }
        for (i, n) in self.spec.nis.iter().enumerate() {
            self.routers[n.router.index()].ports[n.port.index()]
                .nis
                .push(i);
        }
    }

    fn ni_of(&self, node: NodeId) -> Result<usize, NetworkError> {
        self.spec
            .nis
            .iter()
            .position(|n| n.node == node)
            .ok_or(NetworkError::NoSuchNode(node))
    }

    // ---- The public controls ----------------------------------------

    pub fn inject(&mut self, mut pkt: Packet) -> Result<(), NetworkError> {
        let ni = self.ni_of(pkt.src)?;
        pkt.created_at = self.now;
        self.nis[ni].queue.push_back(pkt);
        self.stats.packets_offered += 1;
        Ok(())
    }

    pub fn inject_retry(&mut self, pkt: Packet, attempt: u32) -> Result<(), NetworkError> {
        let ni = self.ni_of(pkt.src)?;
        self.trace.push(TraceEvent::Retried {
            packet: pkt.id,
            cycle: self.now,
            attempt,
        });
        self.nis[ni].queue.push_back(pkt);
        self.stats.retries += 1;
        Ok(())
    }

    pub fn try_sleep_router(&mut self, r: RouterId) -> bool {
        let active = self.spec.routers[r.index()].active;
        let rt = &mut self.routers[r.index()];
        let busy = rt.ports.iter().any(|p| {
            p.vcs.iter().any(|v| !v.buf.is_empty()) || p.alloc.iter().any(Option::is_some)
        });
        if !active || rt.sleeping || busy {
            return false;
        }
        rt.sleeping = true;
        rt.wake_at = u64::MAX;
        true
    }

    pub fn wake_router(&mut self, r: RouterId) {
        let at = self.now + self.cfg.wake_latency as u64;
        let rt = &mut self.routers[r.index()];
        if rt.sleeping {
            rt.wake_at = rt.wake_at.min(at);
        }
    }

    pub fn begin_router_config(&mut self, r: RouterId, cycles: u64) {
        let rt = &mut self.routers[r.index()];
        rt.config_until = rt.config_until.max(self.now + cycles);
    }

    pub fn set_vc_mask(&mut self, r: RouterId, vnet: Vnet, mask: u8) {
        self.routers[r.index()].vc_mask[vnet.index()] = mask;
    }

    pub fn install_tables(&mut self, tables: RoutingTables) {
        self.spec.tables = tables;
    }

    /// A `reconfigure` that keeps every channel, NI and router: new tables
    /// and `vc_split`s. Like the kernel, in-flight credit returns are
    /// dropped and every credit recounted from the flits that hold it.
    pub fn reconfigure(&mut self, spec: NetworkSpec) {
        let shape = |s: &NetworkSpec| {
            let routers: Vec<_> = s.routers.iter().map(|r| (r.active, r.n_ports)).collect();
            (s.channels.clone(), s.nis.clone(), routers)
        };
        assert!(
            shape(&spec) == shape(&self.spec),
            "the oracle models only reconfigurations that keep channels, NIs and routers"
        );
        self.spec = spec;
        self.pending_credits.clear();
        self.recount_credits();
    }

    pub fn set_channel_fault(
        &mut self,
        key: ChannelKey,
        faulted: bool,
    ) -> Result<Vec<Packet>, NetworkError> {
        let ci = (self.spec.channels.iter().position(|c| c.key() == key))
            .ok_or(NetworkError::NoSuchChannel(key))?;
        let was = std::mem::replace(&mut self.channels[ci].faulted, faulted);
        if !faulted || was {
            return Ok(Vec::new());
        }
        let mut doomed = Vec::new();
        for f in &self.channels[ci].q {
            doom(&mut doomed, (f.uid, f.pkt));
        }
        let rt = &self.routers[key.src.router.index()];
        for &(pi, vi) in rt.ports[key.src.port.index()].alloc.iter().flatten() {
            if let Some(owner) = rt.ports[pi].vcs[vi].owner {
                doom(&mut doomed, owner);
            }
        }
        Ok(self.purge(doomed))
    }

    pub fn fail_router(&mut self, r: RouterId) -> Vec<Packet> {
        let rt = &mut self.routers[r.index()];
        if rt.failed {
            return Vec::new();
        }
        (rt.failed, rt.sleeping, rt.wake_at) = (true, true, u64::MAX);
        let mut doomed = Vec::new();
        for vc in rt.ports.iter().flat_map(|p| &p.vcs) {
            doom_vc(&mut doomed, vc);
        }
        for (c, spec) in self.channels.iter().zip(&self.spec.channels) {
            for f in c.q.iter().filter(|_| spec.dst.router == r) {
                doom(&mut doomed, (f.uid, f.pkt));
            }
        }
        for (ni, spec) in self.nis.iter().zip(&self.spec.nis) {
            if let Some(s) = ni.cur.filter(|_| spec.router == r) {
                doom(&mut doomed, (s.uid, s.pkt));
            }
        }
        self.purge(doomed)
    }

    pub fn purge_blocked(&mut self) -> Vec<Packet> {
        let mut doomed = Vec::new();
        for (ri, rt) in self.routers.iter().enumerate() {
            for vc in rt.ports.iter().flat_map(|p| &p.vcs) {
                let Some(front) = vc.buf.front() else {
                    continue;
                };
                let blocked = match vc.route {
                    Some(po) => rt.ports[po].out.is_some_and(|ci| self.channels[ci].faulted),
                    None => {
                        let (vnet, dst) = (front.pkt.vnet, front.pkt.dst);
                        let here = RouterId(ri as u16);
                        front.is_head() && self.spec.tables.lookup(vnet, here, dst).is_none()
                    }
                };
                if blocked {
                    doom_vc(&mut doomed, vc);
                }
            }
        }
        self.purge(doomed)
    }

    /// Removes every flit of the doomed packets, frees what they held,
    /// recounts the credits and returns them oldest id first.
    fn purge(&mut self, mut doomed: Vec<(u64, Packet)>) -> Vec<Packet> {
        if doomed.is_empty() {
            return Vec::new();
        }
        let hit = |uid: u64| doomed.iter().any(|d| d.0 == uid);
        for c in &mut self.channels {
            c.q.retain(|f| !hit(f.uid));
        }
        for rt in &mut self.routers {
            for pi in 0..rt.ports.len() {
                for vi in 0..self.cfg.total_vcs() {
                    let vc = &mut rt.ports[pi].vcs[vi];
                    vc.buf.retain(|f| !hit(f.uid));
                    if vc.owner.is_some_and(|(uid, _)| hit(uid)) {
                        let held = (vc.route.take(), vc.out_vc.take());
                        vc.owner = None;
                        if let (Some(po), Some(ov)) = held {
                            rt.ports[po].alloc[ov] = None;
                        }
                    }
                }
            }
        }
        for (ni, spec) in self.nis.iter_mut().zip(&self.spec.nis) {
            if let Some(s) = ni.cur.take_if(|s| hit(s.uid)) {
                let port = &mut self.routers[spec.router.index()].ports[spec.port.index()];
                port.vcs[s.vc].ni_lock = false;
            }
        }
        self.pending_credits.clear();
        self.recount_credits();
        doomed.sort_by_key(|&(uid, p)| (p.id, uid));
        self.stats.nacks += doomed.len() as u64;
        for (_, p) in &doomed {
            self.trace.push(TraceEvent::Nacked {
                packet: p.id,
                cycle: self.now,
            });
        }
        doomed.into_iter().map(|(_, p)| p).collect()
    }

    /// Every credit from first principles: the VC depth minus the flits on
    /// the wire and in the downstream buffer.
    fn recount_credits(&mut self) {
        for (c, spec) in self.channels.iter_mut().zip(&self.spec.channels) {
            let down = &self.routers[spec.dst.router.index()].ports[spec.dst.port.index()];
            for (v, credit) in c.credits.iter_mut().enumerate() {
                let held = c.q.iter().filter(|f| f.vc == v).count() + down.vcs[v].buf.len();
                *credit = (self.cfg.vc_depth as usize).saturating_sub(held) as u8;
            }
        }
    }

    // ---- One cycle ------------------------------------------------------

    pub fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        self.delivered.clear();
        for rt in &mut self.routers {
            if rt.sleeping && !rt.failed && now >= rt.wake_at {
                (rt.sleeping, rt.wake_at) = (false, 0);
            }
        }
        for (ci, v) in std::mem::take(&mut self.pending_credits) {
            let c = &mut self.channels[ci].credits[v];
            *c = (*c + 1).min(self.cfg.vc_depth);
        }
        for ci in 0..self.channels.len() {
            self.link(ci);
        }
        for ri in 0..self.routers.len() {
            for pi in 0..self.routers[ri].ports.len() {
                self.inject_port(ri, pi);
            }
        }
        for ri in 0..self.routers.len() {
            let rt = &self.routers[ri];
            let runnable = self.spec.routers[ri].active
                && !rt.sleeping
                && !rt.failed
                && rt.config_until <= now;
            if runnable {
                self.route_and_allocate_vcs(ri);
                self.allocate_switch(ri);
            }
        }
        self.account_cycle();
    }

    /// Moves the flits whose wire latency elapsed into the downstream VC.
    fn link(&mut self, ci: usize) {
        let now = self.now;
        let dst = self.spec.channels[ci].dst;
        while self.channels[ci]
            .q
            .front()
            .is_some_and(|f| f.ready_at <= now)
        {
            let mut f = self.channels[ci].q.pop_front().expect("front checked");
            f.ready_at = now + self.cfg.router_latency as u64;
            let rt = &mut self.routers[dst.router.index()];
            if rt.sleeping && !rt.failed {
                rt.wake_at = rt.wake_at.min(now + self.cfg.wake_latency as u64);
            }
            rt.ports[dst.port.index()].vcs[f.vc].buf.push_back(f);
            self.events.buffer_writes += 1;
        }
    }

    /// The first VC of `vnet` an NI may start a packet in: unmasked, empty,
    /// unrouted and not being streamed into.
    fn injection_vc(&self, ri: usize, pi: usize, vnet: Vnet) -> Option<usize> {
        let per_vnet = self.cfg.vcs_per_vnet as usize;
        let mask = self.routers[ri].vc_mask[vnet.index()];
        (0..per_vnet)
            .filter(|&off| mask >> off & 1 != 0)
            .map(|off| vnet.index() * per_vnet + off)
            .find(|&v| {
                let vc = &self.routers[ri].ports[pi].vcs[v];
                vc.buf.is_empty() && vc.route.is_none() && !vc.ni_lock
            })
    }

    fn ni_can_send(&self, ni: usize) -> bool {
        let (ri, pi) = (
            self.spec.nis[ni].router.index(),
            self.spec.nis[ni].port.index(),
        );
        match &self.nis[ni].cur {
            Some(s) => self.routers[ri].ports[pi].vcs[s.vc].buf.len() < self.cfg.vc_depth as usize,
            None => (self.nis[ni].queue.front())
                .is_some_and(|p| self.injection_vc(ri, pi, p.vnet).is_some()),
        }
    }

    /// One flit per injection port per cycle, round-robin among its NIs.
    fn inject_port(&mut self, ri: usize, pi: usize) {
        if !self.spec.routers[ri].active || self.routers[ri].failed {
            return;
        }
        let nis = self.routers[ri].ports[pi].nis.clone();
        let ready: Vec<usize> = (0..nis.len())
            .filter(|&k| self.ni_can_send(nis[k]))
            .collect();
        if let Some(k) = self.routers[ri].ports[pi].inj_rr.grant(&ready) {
            self.ni_send(nis[k]);
        }
    }

    fn ni_send(&mut self, ni: usize) {
        let now = self.now;
        let spec = self.spec.nis[ni];
        let (ri, pi) = (spec.router.index(), spec.port.index());
        if self.nis[ni].cur.is_none() {
            let pkt = self.nis[ni]
                .queue
                .pop_front()
                .expect("a ready NI has a packet");
            let vc = (self.injection_vc(ri, pi, pkt.vnet)).expect("a ready NI has a VC");
            self.routers[ri].ports[pi].vcs[vc].ni_lock = true;
            self.next_uid += 1;
            let uid = self.next_uid;
            self.nis[ni].cur = Some(Stream {
                pkt,
                uid,
                vc,
                sent: 0,
            });
        }
        let s = self.nis[ni].cur.as_mut().expect("streaming");
        let (pkt, uid, vc, seq) = (s.pkt, s.uid, s.vc, s.sent);
        s.sent += 1;
        let rt = &mut self.routers[ri];
        if rt.sleeping {
            rt.wake_at = rt.wake_at.min(now + self.cfg.wake_latency as u64);
        }
        let buf = &mut rt.ports[pi].vcs[vc];
        let bypass = self.cfg.injection_bypass && buf.buf.is_empty();
        let f = Flit {
            pkt,
            uid,
            seq,
            ready_at: now
                + if bypass {
                    0
                } else {
                    self.cfg.router_latency as u64
                },
            injected_at: now,
            hops: 0,
            vc_class: 0,
            last_dim: DIM_NONE,
            vc,
        };
        buf.buf.push_back(f);
        if f.is_tail() {
            buf.ni_lock = false;
            self.nis[ni].cur = None;
        }
        if f.is_head() {
            self.trace.push(TraceEvent::Injected {
                packet: pkt.id,
                cycle: now,
                src: pkt.src,
                dst: pkt.dst,
            });
        }
        let e = &mut self.events;
        e.buffer_writes += 1;
        e.ni_injections += 1;
        e.bypass_injections += u64::from(bypass);
        e.mux_traversals += u64::from(spec.concentration);
    }

    fn out_faulted(&self, ri: usize, po: usize) -> bool {
        (self.routers[ri].ports[po].out).is_some_and(|ci| self.channels[ci].faulted)
    }

    /// RC for every head at a VC front without a route, then per output
    /// port: round-robin among the VCs requesting it, and the winner takes
    /// the first usable output VC with room for its whole packet
    /// (virtual cut-through).
    fn route_and_allocate_vcs(&mut self, ri: usize) {
        let vcs = self.cfg.total_vcs();
        let per_vnet = self.cfg.vcs_per_vnet as usize;
        let n_ports = self.routers[ri].ports.len();
        let mut requests = vec![Vec::new(); n_ports];
        for pi in 0..n_ports {
            for vi in 0..vcs {
                let vc = &self.routers[ri].ports[pi].vcs[vi];
                let Some(&front) = vc.buf.front() else {
                    continue;
                };
                if vc.out_vc.is_some() {
                    continue;
                }
                let po = match vc.route {
                    Some(po) => po,
                    None => {
                        let (vnet, dst) = (front.pkt.vnet, front.pkt.dst);
                        let here = RouterId(ri as u16);
                        let Some(port) = self.spec.tables.lookup(vnet, here, dst) else {
                            self.unroutable += 1;
                            continue;
                        };
                        let vc = &mut self.routers[ri].ports[pi].vcs[vi];
                        vc.route = Some(port.index());
                        vc.owner = Some((front.uid, front.pkt));
                        port.index()
                    }
                };
                if !self.out_faulted(ri, po) {
                    requests[po].push(pi * vcs + vi);
                }
            }
        }
        for (po, requesters) in requests.iter().enumerate() {
            let Some(key) = self.routers[ri].ports[po].va_rr.grant(requesters) else {
                continue;
            };
            let (pi, vi) = (key / vcs, key % vcs);
            let head = self.routers[ri].ports[pi].vcs[vi].buf[0];
            let out = self.routers[ri].ports[po].out;
            let class = out.map_or(head.vc_class, |ci| {
                self.spec.channels[ci].class_after(head.vc_class, head.last_dim)
            });
            // Ejection consumes the packet, so it ignores the dateline split.
            let ejects = !self.routers[ri].ports[po].nis.is_empty();
            let split = self.spec.routers[ri].vc_split.filter(|_| !ejects);
            let mask = self.routers[ri].vc_mask[head.pkt.vnet.index()];
            let need = head.pkt.len.min(self.cfg.vc_depth);
            let free = (0..per_vnet)
                .filter(|&off| mask >> off & 1 != 0)
                .filter(|&off| split.is_none_or(|k| (class == 0) == (off < k as usize)))
                .map(|off| head.pkt.vnet.index() * per_vnet + off)
                .find(|&v| {
                    self.routers[ri].ports[po].alloc[v].is_none()
                        && out.is_none_or(|ci| self.channels[ci].credits[v] >= need)
                });
            if let Some(v) = free {
                self.routers[ri].ports[po].alloc[v] = Some((pi, vi));
                self.routers[ri].ports[pi].vcs[vi].out_vc = Some(v);
                self.events.va_grants += 1;
            }
        }
    }

    /// Separable SA: every allocated VC whose front flit is ready and has
    /// a credit requests its output port; each output port grants one
    /// round-robin among requesters whose input port has not won yet.
    fn allocate_switch(&mut self, ri: usize) {
        let vcs = self.cfg.total_vcs();
        let rt = &self.routers[ri];
        let mut requests = vec![Vec::new(); rt.ports.len()];
        for (pi, port) in rt.ports.iter().enumerate() {
            for (vi, vc) in port.vcs.iter().enumerate() {
                let (Some(po), Some(ov), Some(front)) = (vc.route, vc.out_vc, vc.buf.front())
                else {
                    continue;
                };
                let credit = rt.ports[po]
                    .out
                    .is_none_or(|ci| self.channels[ci].credits[ov] > 0);
                if front.ready_at <= self.now && !self.out_faulted(ri, po) && credit {
                    requests[po].push(pi * vcs + vi);
                }
            }
        }
        let mut input_won = vec![false; requests.len()];
        for (po, requesters) in requests.iter().enumerate() {
            let free: Vec<usize> = requesters
                .iter()
                .copied()
                .filter(|&k| !input_won[k / vcs])
                .collect();
            if let Some(key) = self.routers[ri].ports[po].sa_rr.grant(&free) {
                input_won[key / vcs] = true;
                self.traverse_switch(ri, key / vcs, key % vcs, po);
            }
        }
    }

    /// ST: the granted flit leaves its VC onto the output channel (or to
    /// the NI), returning a credit upstream next cycle.
    fn traverse_switch(&mut self, ri: usize, pi: usize, vi: usize, po: usize) {
        let now = self.now;
        let vc = &mut self.routers[ri].ports[pi].vcs[vi];
        let ov = vc.out_vc.expect("SA grants allocated VCs");
        let mut f = vc.buf.pop_front().expect("SA grants occupied VCs");
        if f.is_tail() {
            (vc.route, vc.out_vc, vc.owner) = (None, None, None);
            self.routers[ri].ports[po].alloc[ov] = None;
        }
        let e = &mut self.events;
        e.buffer_reads += 1;
        e.crossbar_traversals += 1;
        e.sa_grants += 1;
        self.stats.flits_forwarded += 1;
        self.trace.push(TraceEvent::Forwarded {
            packet: f.pkt.id,
            cycle: now,
            router: RouterId(ri as u16),
            seq: f.seq,
        });
        if let Some(feeder) = self.routers[ri].ports[pi].feeder {
            self.pending_credits.push((feeder, vi));
            self.events.credits_sent += 1;
        }
        let Some(ci) = self.routers[ri].ports[po].out else {
            self.events.ni_ejections += 1;
            if f.is_tail() {
                self.trace.push(TraceEvent::Ejected {
                    packet: f.pkt.id,
                    cycle: now,
                    hops: f.hops,
                });
                let d = Delivered {
                    packet: f.pkt,
                    injected_at: f.injected_at,
                    ejected_at: now,
                    hops: f.hops,
                };
                self.stats.record(&d);
                self.delivered.push(d);
            }
            return;
        };
        let c = self.spec.channels[ci];
        self.channels[ci].credits[ov] -= 1;
        f.vc = ov;
        f.vc_class = c.class_after(f.vc_class, f.last_dim);
        f.last_dim = u8::from(c.dim_y);
        f.hops += 1;
        f.ready_at = now + c.latency as u64;
        let e = &mut self.events;
        e.link_flit_hops += 1;
        e.link_flit_mm += c.length_mm as f64;
        e.mux_traversals +=
            u64::from(c.kind.is_adaptable() || c.kind == ChannelKind::Concentration);
        e.interchip_crossings += u64::from(c.kind == ChannelKind::InterChip);
        self.channels[ci].q.push_back(f);
    }

    /// End-of-cycle statistics and static-power accounting, recounted.
    fn account_cycle(&mut self) {
        let vcs = self
            .routers
            .iter()
            .flat_map(|r| &r.ports)
            .flat_map(|p| &p.vcs);
        let buffered: usize = vcs.map(|v| v.buf.len()).sum();
        let queued: usize = self.nis.iter().map(|n| n.queue.len()).sum();
        self.stats.cycles += 1;
        self.stats.buffer_occupancy_sum += buffered as u64;
        self.stats.injection_queue_sum += queued as u64;

        let mut s = StaticCycles {
            cycles: 1,
            ..StaticCycles::default()
        };
        for (rt, spec) in self.routers.iter().zip(&self.spec.routers) {
            if spec.active && !rt.sleeping && !rt.failed {
                s.router_on_cycles += 1;
                let wired = |p: &&Port| p.out.is_some() || p.feeder.is_some() || !p.nis.is_empty();
                s.port_on_cycles += rt.ports.iter().filter(wired).count() as u64;
            } else {
                s.router_off_cycles += 1;
            }
        }
        for c in &self.spec.channels {
            let mm = c.length_mm as f64;
            match c.kind {
                ChannelKind::Mesh | ChannelKind::Express => s.mesh_link_mm_cycles += mm,
                ChannelKind::Adaptable | ChannelKind::AdaptableReversed => {
                    s.adapt_link_mm_cycles += mm
                }
                ChannelKind::Concentration => s.conc_link_mm_cycles += mm,
                ChannelKind::InterChip => s.interchip_link_mm_cycles += mm,
            }
        }
        for ni in self.spec.nis.iter().filter(|n| n.concentration) {
            s.conc_link_mm_cycles += ni.link_mm as f64;
        }
        self.statics.accumulate(&s);
    }

    // ---- Observation -----------------------------------------------------

    pub fn now(&self) -> u64 {
        self.now
    }

    /// The packets the most recent step delivered.
    pub fn delivered(&self) -> &[Delivered] {
        &self.delivered
    }

    /// Trace events since the previous call, oldest first.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Flits in buffers and on wires, flits still to stream from NIs, and
    /// packets queued at NIs.
    pub fn in_flight(&self) -> u64 {
        let wire: usize = self.channels.iter().map(|c| c.q.len()).sum();
        let ni: usize = (self.nis.iter())
            .map(|n| n.queue.len() + n.cur.map_or(0, |s| (s.pkt.len - s.sent) as usize))
            .sum();
        let buffered: u32 = (0..self.routers.len())
            .map(|r| self.router_flits(RouterId(r as u16)))
            .sum();
        (wire + ni) as u64 + buffered as u64
    }

    pub fn router_flits(&self, r: RouterId) -> u32 {
        let ports = &self.routers[r.index()].ports;
        ports
            .iter()
            .flat_map(|p| &p.vcs)
            .map(|v| v.buf.len() as u32)
            .sum()
    }

    pub fn unroutable_events(&self) -> u64 {
        self.unroutable
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    pub fn events(&self) -> &EventCounts {
        &self.events
    }

    pub fn static_cycles(&self) -> &StaticCycles {
        &self.statics
    }
}

/// Adds a packet to a purge's victims, once.
fn doom(doomed: &mut Vec<(u64, Packet)>, victim: (u64, Packet)) {
    if !doomed.iter().any(|d| d.0 == victim.0) {
        doomed.push(victim);
    }
}

/// Dooms every packet with a flit in `vc`, and the packet holding it.
fn doom_vc(doomed: &mut Vec<(u64, Packet)>, vc: &InVc) {
    for f in &vc.buf {
        doom(doomed, (f.uid, f.pkt));
    }
    if let Some(owner) = vc.owner {
        doom(doomed, owner);
    }
}
