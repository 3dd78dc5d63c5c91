//! The router-stage hot loop (RC + VA + SA + ST).
//!
//! [`StageView`] borrows the routers, every [`crate::soa::VcLanes`] array
//! and the channels and wires of one network, and runs the allocation
//! kernels over them on the stepping thread.
//!
//! Route computation is **lookahead**: when switch traversal pushes a
//! head flit onto a channel it also resolves, from the shared read-only
//! routing tables, the output port the flit will request at the channel's
//! *destination* router, and carries it in the flit. RC at the receiving
//! router is then a pre-resolved load; it walks the tables only when no
//! port is carried — the upstream lookup found none, or a table swap
//! cleared it mid-flight (`Network::invalidate_lookahead`). Allocation is
//! mask-driven end to end: the stage walks the busy-router [`BitSet`];
//! each output port's VA and SA requesters are
//! bit-vectors over (input port, VC) ([`Requests`]), granted by one mask
//! round-robin (`RoundRobin::grant_mask`) with the SA input-port
//! constraint as a mask; and the winner's output VC is a precomputed
//! candidate mask (`Network::va_cand`) intersected with the live
//! output-VC occupancy mask. Every walk visits set bits in ascending
//! order via `trailing_zeros` — the order a scan of every index would
//! use — so nothing is sorted. All of it is checked cycle for cycle
//! against a naive reference simulator that walks the tables at every
//! hop, keeps request lists and probes VCs one by one
//! (`tests/oracle_equivalence.rs`).
//!
//! Within one cycle's router stage there is **no cross-router
//! interaction**: forwarded flits enter channel queues (delivered next
//! cycle at the earliest), credits are returned through the
//! `pending_credits` list (applied next cycle), and VA/SA only read
//! channels *sourced* at the router being allocated. Writes to state
//! outside the view's borrow — global counters, the trace stream, the
//! busy-channel set and the packet table (read-only here: ejections are
//! recorded, and their slots freed afterwards) — are deferred into a
//! [`StageSink`], which the network applies once the walk is done.

use crate::arbiter::{Requests, MAX_PORTS};
use crate::bitset::{ones, BitSet};
use crate::events::EventCounts;
use crate::flit::Flit;
use crate::ids::{ChannelId, RouterId, Vnet};
use crate::network::{ChannelRt, RouterRt};
use crate::packets::Slot;
use crate::soa;
use crate::spec::{ChannelKind, NetworkSpec};
use crate::trace::TraceEvent;

/// Side effects of one cycle's router stage on state outside the
/// [`StageView`], in walk order, applied by the network after the walk.
#[derive(Debug, Clone, Default)]
pub(crate) struct StageSink {
    /// Event counters accumulated by the stage.
    pub(crate) events: EventCounts,
    /// Flits forwarded (added to both epoch and total stats).
    pub(crate) flits_forwarded: u64,
    /// Packets that hit a missing routing entry.
    pub(crate) unroutable: u64,
    /// Flits removed from input buffers (decrements `occupied_flits`).
    pub(crate) removed: u64,
    /// Flits pushed onto wires (increments `wire_flits`).
    pub(crate) wire_pushed: u64,
    /// Credits to return upstream next cycle.
    pub(crate) pending_credits: Vec<(ChannelId, u8)>,
    /// Channels whose wire left the idle state (busy-set additions).
    pub(crate) busy_channels: Vec<usize>,
    /// Trace events in walk order (only filled when `trace_on`).
    pub(crate) trace: Vec<TraceEvent>,
    /// Whether a tracer is attached this cycle.
    pub(crate) trace_on: bool,
    /// Flits ejected to an NI, in walk order. Applying the sink accounts
    /// each against its packet's slot and turns tails into deliveries.
    pub(crate) ejected: Vec<Ejected>,
}

/// One flit handed to its destination NI.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ejected {
    /// The packet's table handle.
    pub(crate) pkt: u32,
    /// Channel traversals the flit took.
    pub(crate) hops: u16,
    /// Whether this was the packet's last flit.
    pub(crate) tail: bool,
}

/// Reusable allocation requests of the router being allocated: per output
/// port, its VA requesters (`va`) and SA requesters (`sa`) as (input port,
/// VC) bit-vectors, gathered by one fused scan over the occupied-VC
/// bitmasks. Only the ports a router requested are reset after it, so a
/// request-free port costs nothing.
///
/// On span-sampled cycles the walk runs in two phases — RC+VA over
/// every busy router, then SA+ST over the same routers in the same
/// order — so each router's SA requests are saved at the end of its RC+VA
/// pass: the router and its requested ports into `sa_routers`, the
/// requests themselves into `sa_saved`. On untimed cycles the walk is
/// fused and SA runs straight off `sa`.
#[derive(Debug, Clone, Default)]
pub(crate) struct StageScratch {
    pub(crate) va: Vec<Requests>,
    pub(crate) sa: Vec<Requests>,
    /// Two-phase walk: `(router, output ports with SA requests)` for every
    /// router with any, in walk order.
    pub(crate) sa_routers: Vec<(u32, u32)>,
    /// Two-phase walk: those routers' SA requests, in walk order and
    /// ascending output port within a router.
    pub(crate) sa_saved: Vec<Requests>,
}

impl StageScratch {
    /// Readies the scratch for a walk.
    fn prep(&mut self) {
        if self.va.is_empty() {
            self.va = vec![Requests::default(); MAX_PORTS];
            self.sa = vec![Requests::default(); MAX_PORTS];
        }
        self.sa_routers.clear();
        self.sa_saved.clear();
    }
}

/// The router stage's borrow of the network: the routers, every
/// [`crate::soa::VcLanes`] array, the channels and the wire arena,
/// mutably; the spec, packet table, VA candidate masks and port wiring,
/// read-only. All indices are global.
pub(crate) struct StageView<'a> {
    pub(crate) routers: &'a mut [RouterRt],
    /// Per-(router, vnet) VA candidate masks, index `router * vnets +
    /// vnet` (see `Network::va_cand`).
    pub(crate) va_cand: &'a [[u8; 3]],
    pub(crate) vnets: usize,
    pub(crate) occ: &'a mut [u32],
    /// Per-port visit masks: `occ & scan` is the set the allocation scan
    /// walks; `occ & !scan` is the credit-parked set (see [`crate::soa`]).
    pub(crate) scan: &'a mut [u32],
    pub(crate) va_rr: &'a mut [crate::arbiter::RoundRobin],
    pub(crate) sa_rr: &'a mut [crate::arbiter::RoundRobin],
    /// Per-VC hot-lane words (route + output VC + front readiness; see
    /// [`crate::soa`]'s `LANE_*` layout).
    pub(crate) lane: &'a mut [u64],
    /// Per-VC packed VA digest of the front head flit (see
    /// [`crate::soa::VcLanes::va_meta`]).
    pub(crate) va_meta: &'a mut [u32],
    pub(crate) owner: &'a mut [u32],
    pub(crate) credits: &'a mut [u8],
    pub(crate) alloc: &'a mut [Option<(u8, u8)>],
    /// Per-port allocated-output-VC bitmask (kept in sync with `alloc`).
    pub(crate) alloc_mask: &'a mut [u32],
    /// Per-port zero-credit output-VC bitmask (kept in sync with
    /// `credits`).
    pub(crate) credit_zero: &'a mut [u32],
    /// Per-VC buffers and the ring pool they index (see [`crate::soa`]).
    /// The stage only pops, so the pool's slots are read-only here; a pop
    /// that empties a VC returns its ring to `free_rings`.
    pub(crate) bufs: &'a mut [soa::Buf],
    pub(crate) slots: &'a [Flit],
    pub(crate) free_rings: &'a mut Vec<u32>,
    pub(crate) router_forwarded: &'a mut [u64],
    pub(crate) channels: &'a mut [ChannelRt],
    /// The wire arena the channels' rings index (see [`crate::wire`]).
    pub(crate) wires: &'a mut [Flit],
    /// Per-channel flit traversals in the epoch window.
    pub(crate) channel_flits: &'a mut [u64],
    pub(crate) spec: &'a NetworkSpec,
    /// The packet table's slots, indexed by flit handle (read-only: every
    /// table write happens in the phases around the router stage).
    pub(crate) packets: &'a [Slot],
    /// Port prefix sums.
    pub(crate) port_base: &'a [u32],
    /// Per global port: the channel leaving it.
    pub(crate) out_channel: &'a [Option<ChannelId>],
    /// Per global port: the channel feeding it.
    pub(crate) feeder: &'a [Option<ChannelId>],
    /// Per router: bitmask of the output ports that eject to an NI.
    pub(crate) eject_out: &'a [u32],
    pub(crate) total_vcs: usize,
    pub(crate) vcs_per_vnet: usize,
    pub(crate) depth: usize,
}

impl StageView<'_> {
    #[inline]
    fn ring_front(&self, gv: usize) -> Option<&Flit> {
        soa::ring_front(self.bufs, self.slots, self.depth, gv)
    }

    #[inline]
    fn n_ports(&self, ri: usize) -> usize {
        (self.port_base[ri + 1] - self.port_base[ri]) as usize
    }

    /// Runs the router stage over the members of the busy-router set,
    /// ascending, and returns the (RC+VA, SA+ST) span nanoseconds (zero on
    /// an untimed cycle). The set names exactly the routers holding flits;
    /// the stage only reads it, and the routers it drains are pruned in
    /// `Network::step_finish`.
    ///
    /// On an untimed cycle (the overwhelmingly common case) the walk is
    /// fused: each router runs RC+VA and then immediately SA+ST off the
    /// still-warm `scratch.sa` requests, with nothing saved in between.
    /// On a span-timed cycle the walk is two-phase instead: RC+VA for
    /// every runnable router first, then SA+ST over the same routers in
    /// the same order. The phases commute across routers — SA+ST only
    /// mutates the forwarding router's own lanes plus the deferred sink
    /// queues (credits apply next cycle, channel pushes deliver after the
    /// link latency), none of which a later router's RC+VA reads — so
    /// both walks produce byte-identical state (pinned by the telemetry
    /// observation-only suite), and the phase split lets the stage spans
    /// be taken once per cycle instead of twice per router (a clock read
    /// costs more than a small router's whole scan; see DESIGN.md §13).
    pub(crate) fn run(
        &mut self,
        busy: &BitSet,
        now: u64,
        timed: bool,
        sink: &mut StageSink,
        scratch: &mut StageScratch,
    ) -> (u64, u64) {
        scratch.prep();
        let t0 = timed.then(std::time::Instant::now);
        for ri in busy.iter() {
            let r = &self.routers[ri];
            debug_assert!(r.flits > 0, "busy-router set names an empty router");
            if r.active && !r.sleeping && !r.failed && r.config_until <= now {
                self.vc_allocate(ri, now, sink, scratch, !timed);
            }
        }
        let Some(t0) = t0 else {
            return (0, 0);
        };
        let t1 = std::time::Instant::now();
        let mut saved = scratch.sa_saved.iter();
        for &(ri, ports) in &scratch.sa_routers {
            let reqs = ones(ports as u64).zip(saved.by_ref());
            self.switch_allocate(ri as usize, now, sink, reqs);
        }
        ((t1 - t0).as_nanos() as u64, t1.elapsed().as_nanos() as u64)
    }

    /// Route computation + output-VC allocation for one router, fused with
    /// switch-allocation candidate gathering: a single pass over occupied
    /// input VCs sets each VA requester (a VC without an output VC yet)
    /// in `scratch.va` and each switch-ready requester (an allocated VC
    /// with a ready, creditable front flit) in `scratch.sa`, under the
    /// output port it requests. Head-flit routes come from the carried
    /// lookahead port when fresh (see the module docs), falling back to a
    /// table walk. Each output port's VA round-robin then picks a winner
    /// under the virtual-cut-through rule, with the eligible-VC set
    /// computed as candidate-mask ∧ ¬allocated bit arithmetic; a freshly
    /// granted winner that is already switch-ready sets its bit in the SA
    /// requests — where a separate post-VA rescan would have found it — so
    /// the fusion is byte-identical to the classic two-scan pipeline at
    /// half the scan cost.
    fn vc_allocate(
        &mut self,
        ri: usize,
        now: u64,
        sink: &mut StageSink,
        scratch: &mut StageScratch,
        fuse: bool,
    ) {
        let n_ports = self.n_ports(ri);
        let total_vcs = self.total_vcs;
        let depth = self.depth as u8;
        let base_gp = self.port_base[ri] as usize;
        let faulted_out = self.routers[ri].faulted_out;
        let eject_out = self.eject_out[ri];

        // Output ports with VA / SA requesters this cycle: they drive the
        // arbitration walks and the scratch reset.
        let (mut va_ports, mut sa_ports) = (0u32, 0u32);
        for pi in 0..n_ports {
            let gp = base_gp + pi;
            // Visit only awake occupied VCs: a VC parked on an exhausted
            // downstream credit is skipped wholesale until the credit
            // return wakes it (`Network::step_credits`), turning the
            // saturated steady state — where most occupied VCs are
            // credit-blocked — from a rescan-everything walk into a walk
            // of the VCs that can actually act.
            let occ = self.occ[gp] & self.scan[gp];
            for vi in ones(occ as u64) {
                let gv = gp * total_vcs + vi;
                // One hot-lane load answers every question the scan asks of
                // this VC: streaming or not, routed or not, front ready or
                // not, and toward which port/VC.
                let s = self.lane[gv];
                if s & soa::LANE_HAS_OUT != 0 {
                    // Streaming VC: qualify directly for switch allocation.
                    // The lane's front-readiness field keeps the common
                    // "flit still in the router pipeline" case off the flit
                    // ring.
                    if (s >> soa::LANE_READY_SHIFT) > now {
                        continue;
                    }
                    if s & soa::LANE_HAS_ROUTE == 0 {
                        continue; // allocation without a route; defensive
                    }
                    debug_assert!(self.ring_front(gv).is_some(), "occupied VC without a front");
                    let po = ((s >> soa::LANE_PO_SHIFT) & 0x3F) as usize;
                    // Never drive flits onto a faulted channel.
                    if faulted_out & (1 << po) != 0 {
                        continue;
                    }
                    let gvc = (s & soa::LANE_GVC) as usize;
                    // Port-local zero-credit mask instead of the other
                    // port's per-VC credit byte: same verdict, no stray
                    // cache line. Park the VC off the visit mask while
                    // blocked; the credit return wakes it (and an
                    // interleaving buffer push wakes it spuriously but
                    // harmlessly — it just re-parks here).
                    if eject_out & (1 << po) == 0
                        && self.credit_zero[base_gp + po] & (1 << gvc) != 0
                    {
                        self.scan[gp] &= !(1 << vi);
                        continue;
                    }
                    scratch.sa[po].add(pi, vi);
                    sa_ports |= 1 << po;
                    continue;
                }
                // Route computation for a fresh head flit, or a head still
                // waiting for VA. A VC with a route but no output VC can
                // only hold the head that computed the route at its front
                // (flits drain in FIFO order and nothing pops without an
                // output VC), so the waiting case needs no ring probe.
                let route = match soa::lane_route(s) {
                    Some(r) => {
                        debug_assert!(
                            self.ring_front(gv).is_some_and(|f| f.pos.is_head()),
                            "non-head at routed VA-waiting VC front"
                        );
                        r
                    }
                    None => {
                        let Some(&front) = self.ring_front(gv) else {
                            continue;
                        };
                        debug_assert!(front.pos.is_head(), "non-head at route-less VC front");
                        // The one visit per head per hop that reads the
                        // packet's slot: VA and SA run off `va_meta`.
                        let table = self.packets;
                        let pkt = &table[front.pkt as usize].pkt;
                        // Lookahead RC: the upstream router (or the NI, for
                        // the first hop) resolved this head's output port
                        // already. A table swap clears the carried port of
                        // every flit in flight, so one that is still set
                        // agrees with the installed tables; without one,
                        // walk them.
                        let port = if front.la_port != crate::flit::LA_NONE {
                            debug_assert_eq!(
                                self.spec
                                    .tables
                                    .lookup(pkt.vnet, RouterId(ri as u16), pkt.dst),
                                Some(crate::ids::PortId(front.la_port)),
                                "carried lookahead port diverged from the live tables"
                            );
                            crate::ids::PortId(front.la_port)
                        } else {
                            match self
                                .spec
                                .tables
                                .lookup(pkt.vnet, RouterId(ri as u16), pkt.dst)
                            {
                                Some(port) => port,
                                None => {
                                    sink.unroutable += 1;
                                    continue;
                                }
                            }
                        };
                        soa::lane_set_route(&mut self.lane[gv], port.0);
                        // Cache the head's VA digest while the flit is in
                        // hand; the arbitration loop below reads this word
                        // (plus the lane's readiness field) instead of
                        // re-loading the head from its ring every cycle the
                        // winner fails the availability or credit probe. A
                        // routed-but-unallocated VC cannot pop, so the
                        // digest stays valid exactly as long as the route.
                        self.va_meta[gv] =
                            soa::pack_va_meta(pkt.vnet.0, front.vc_class, front.last_dim, pkt.len);
                        self.owner[gv] = front.pkt;
                        port
                    }
                };
                let po = route.index();
                // A faulted output channel accepts no new packets, and a
                // port past the radix (only a corrupt route names one)
                // never arbitrates.
                if po >= n_ports || faulted_out & (1 << po) != 0 {
                    continue;
                }
                scratch.va[po].add(pi, vi);
                va_ports |= 1 << po;
            }
        }
        // Ascending set-bit order is the order of a walk over every port.
        for po in ones(va_ports as u64) {
            let va = &mut scratch.va[po];
            let Some((pi, vi)) = self.va_rr[base_gp + po].grant_mask(va, 0) else {
                continue; // a requested port always grants; defensive
            };
            va.clear();
            let gv_in = (base_gp + pi) * total_vcs + vi;
            // The gather loop proved this VC routed, so its RC-time VA digest
            // is current (see `soa::VcLanes::va_meta`) and the lane word
            // carries the head's readiness — no flit-ring load for the
            // arbitration winner, which in saturation usually just fails the
            // credit probe below.
            let meta = self.va_meta[gv_in];
            let (vnet, vc_class, last_dim, pkt_len) = soa::unpack_va_meta(meta);
            let vnet = crate::ids::Vnet(vnet);
            let ready_at = self.lane[gv_in] >> soa::LANE_READY_SHIFT;
            debug_assert!(
                self.ring_front(gv_in).is_some_and(|f| {
                    let p = &self.packets[f.pkt as usize].pkt;
                    p.vnet == vnet
                        && f.vc_class == vc_class
                        && f.last_dim == last_dim
                        && p.len == pkt_len
                        && f.ready_at == soa::ready_lo(ready_at)
                }),
                "stale VA digest at arbitration winner"
            );
            // The class that matters is the one the packet will carry on the
            // *output* channel.
            let class = match self.out_channel[base_gp + po] {
                Some(ch) => self.channels[ch.index()]
                    .spec
                    .class_after(vc_class, last_dim),
                None => vc_class,
            };
            let out_eject = eject_out & (1 << po) != 0;
            let out_base = (base_gp + po) * total_vcs;
            // Virtual cut-through: output VC must be unallocated and its
            // downstream buffer must have room for the entire packet. The VC
            // must also be in the packet's dateline class and usable per the
            // (OSCAR) mask — both folded into the precomputed per-(vnet,
            // class) candidate masks (ejection consumes packets, so it
            // bypasses the dateline split). Intersecting with the
            // allocated-VC bitmask leaves only the credit check per
            // candidate; `trailing_zeros` iteration visits VCs in the same
            // ascending-offset order the probe loop used.
            let cand = {
                let c = &self.va_cand[ri * self.vnets + vnet.index()];
                if out_eject {
                    c[2]
                } else {
                    c[(class != 0) as usize]
                }
            };
            let start = self.vnet_vcs_start(vnet);
            let gp_out = base_gp + po;
            let avail = ((cand as u32) << start) & !self.alloc_mask[gp_out];
            let need = pkt_len.min(depth);
            let free =
                ones(avail as u64).find(|&gvc| out_eject || self.credits[out_base + gvc] >= need);
            if let Some(gvc) = free {
                self.alloc[out_base + gvc] = Some((pi as u8, vi as u8));
                self.alloc_mask[gp_out] |= 1 << gvc;
                soa::lane_set_out_vc(&mut self.lane[gv_in], gvc as u8);
                sink.events.va_grants += 1;
                // A winner whose head is already ready joins this cycle's SA
                // requests. Credits need no re-check: the cut-through rule
                // just guaranteed at least a full packet of room (and
                // ejection ignores credits), and the faulted mask was checked
                // at gather time.
                if ready_at <= now {
                    scratch.sa[po].add(pi, vi);
                    sa_ports |= 1 << po;
                }
            }
        }
        if sa_ports == 0 {
            return;
        }
        if fuse {
            // Fused walk: switch-allocate straight off the requests while
            // they (and this router's state) are still warm.
            let reqs = ones(sa_ports as u64).map(|po| (po, &scratch.sa[po]));
            self.switch_allocate(ri, now, sink, reqs);
        } else {
            // Two-phase walk: save this router's SA requests; the SA phase
            // replays them after every router's RC+VA has run.
            scratch.sa_routers.push((ri as u32, sa_ports));
            let saved = ones(sa_ports as u64).map(|po| scratch.sa[po]);
            scratch.sa_saved.extend(saved);
        }
        for po in ones(sa_ports as u64) {
            scratch.sa[po].clear();
        }
    }

    /// First global VC of `vnet` within a port's VC range.
    #[inline]
    fn vnet_vcs_start(&self, vnet: Vnet) -> usize {
        vnet.index() * self.vcs_per_vnet
    }

    /// Switch allocation + traversal for one router: round-robin per
    /// output port among requesters whose input port is still free this
    /// cycle, forward the winners. `reqs` yields each output port with
    /// requests and its requests, in ascending port order (the warm
    /// scratch in the fused walk, the saved copies in the two-phase walk).
    fn switch_allocate<'c>(
        &mut self,
        ri: usize,
        now: u64,
        sink: &mut StageSink,
        reqs: impl Iterator<Item = (usize, &'c Requests)>,
    ) {
        let base_gp = self.port_base[ri] as usize;
        // Crossbar input constraint: an input port sends one flit a cycle.
        let mut inputs_used = 0u32;
        for (po, req) in reqs {
            if let Some((pi, vi)) = self.sa_rr[base_gp + po].grant_mask(req, inputs_used) {
                inputs_used |= 1 << pi;
                self.forward_flit(ri, pi, vi, po, now, sink);
            }
        }
    }

    /// Switch traversal for one granted flit: pop it from its input VC and
    /// push it onto the output channel (or eject it).
    fn forward_flit(
        &mut self,
        ri: usize,
        pi: usize,
        vi: usize,
        po: usize,
        now: u64,
        sink: &mut StageSink,
    ) {
        let base_gp = self.port_base[ri] as usize;
        let total_vcs = self.total_vcs;
        let gv_in = (base_gp + pi) * total_vcs + vi;
        let Some(gvc) = soa::lane_out_vc(self.lane[gv_in]) else {
            return; // SA only grants allocated VCs; defensive
        };
        let Some(mut flit) = soa::ring_pop(
            self.bufs,
            self.slots,
            self.free_rings,
            self.lane,
            self.depth,
            gv_in,
            now,
        ) else {
            return; // SA only grants occupied VCs; defensive
        };
        if self.bufs[gv_in].len() == 0 {
            self.occ[base_gp + pi] &= !(1 << vi);
        }
        self.routers[ri].flits -= 1;
        sink.removed += 1;
        sink.events.buffer_reads += 1;
        sink.events.crossbar_traversals += 1;
        sink.events.sa_grants += 1;
        sink.flits_forwarded += 1;
        self.router_forwarded[ri] += 1;
        if sink.trace_on {
            sink.trace.push(TraceEvent::Forwarded {
                packet: self.packets[flit.pkt as usize].pkt.id,
                cycle: now,
                router: RouterId(ri as u16),
                seq: flit.seq,
            });
        }

        // Credit back to the upstream feeder, applied next cycle.
        if let Some(feeder) = self.feeder[base_gp + pi] {
            sink.pending_credits.push((feeder, vi as u8));
            sink.events.credits_sent += 1;
        }

        let is_tail = flit.pos.is_tail();
        let gv_out = (base_gp + po) * total_vcs + gvc as usize;
        if is_tail {
            soa::lane_clear_alloc(&mut self.lane[gv_in]);
            self.owner[gv_in] = crate::flit::NO_PACKET;
            self.alloc[gv_out] = None;
            self.alloc_mask[base_gp + po] &= !(1 << gvc);
        }

        if let Some(ch) = self.out_channel[base_gp + po] {
            let ci = ch.index();
            self.credits[gv_out] -= 1;
            if self.credits[gv_out] == 0 {
                self.credit_zero[base_gp + po] |= 1 << gvc;
            }
            let spec = self.channels[ci].spec;
            if flit.pos.is_head() {
                // Lookahead RC: resolve the head's *next-hop* output port
                // against the current tables while the flit is in hand, so
                // RC at the downstream router is a pre-resolved load.
                let table = self.packets;
                let pkt = &table[flit.pkt as usize].pkt;
                flit.la_port = match self.spec.tables.lookup(pkt.vnet, spec.dst.router, pkt.dst) {
                    Some(p) => p.0,
                    None => crate::flit::LA_NONE,
                };
            }
            flit.assigned_vc = gvc;
            flit.vc_class = spec.class_after(flit.vc_class, flit.last_dim);
            flit.last_dim = spec.dim();
            flit.hops += 1;
            sink.events.link_flit_hops += 1;
            sink.events.link_flit_mm += spec.length_mm as f64;
            if spec.kind.is_adaptable() || spec.kind == ChannelKind::Concentration {
                sink.events.mux_traversals += 1;
            }
            if spec.kind == ChannelKind::InterChip {
                sink.events.interchip_crossings += 1;
            }
            self.channel_flits[ci] += 1;
            // On the wire `ready_at` is the arrival cycle.
            flit.ready_at = soa::ready_lo(now + spec.latency as u64);
            let wire = &mut self.channels[ci].wire;
            wire.push(self.wires, flit);
            sink.wire_pushed += 1;
            // The wire was idle, so not in the busy-channel set (one push
            // per channel per cycle: its output port grants once).
            if wire.len() == 1 {
                sink.busy_channels.push(ci);
            }
        } else {
            // Ejection.
            debug_assert!(
                self.eject_out[ri] & (1 << po) != 0,
                "SA winner routed to unwired port"
            );
            sink.events.ni_ejections += 1;
            if is_tail && sink.trace_on {
                sink.trace.push(TraceEvent::Ejected {
                    packet: self.packets[flit.pkt as usize].pkt.id,
                    cycle: now,
                    hops: flit.hops,
                });
            }
            sink.ejected.push(Ejected {
                pkt: flit.pkt,
                hops: flit.hops,
                tail: is_tail,
            });
        }
    }
}
