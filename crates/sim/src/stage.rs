//! The router-stage hot loop (RC + VA + SA + ST) over a *band* of routers.
//!
//! [`BandView`] borrows a contiguous router range plus the matching
//! sub-slices of every [`crate::soa::VcLanes`] array, and runs the
//! allocation kernels over it. Stepping without a multi-threaded
//! [`crate::par::StepPool`] runs one band covering the whole network; with
//! one, the view is split at router boundaries with [`split_band`] and
//! bands 1.. run on the pool's workers while band 0 runs on the caller.
//!
//! Route computation is **lookahead**: when switch traversal pushes a
//! head flit onto a channel it also resolves, from the shared read-only
//! routing tables, the output port the flit will request at the channel's
//! *destination* router, and carries it in the flit. RC at the receiving
//! router is then a pre-resolved load; it walks the tables only when no
//! port is carried — the upstream lookup found none, or a table swap
//! cleared it mid-flight (`Network::invalidate_lookahead`). Allocation is
//! mask-driven end to end: the band walks the busy-router [`BitSet`] over
//! its own router range; each output port's VA and SA requesters are
//! bit-vectors over (input port, VC) ([`Requests`]), granted by one mask
//! round-robin (`RoundRobin::grant_mask`) with the SA input-port
//! constraint as a mask; and the winner's output VC is a precomputed
//! candidate mask (`RouterRt::va_cand`) intersected with the live
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
//! channels *sourced* at the router being allocated. The only shared state
//! is global counters, the trace stream, and the packet table (read-only
//! here: ejections are recorded, and their slots freed at the merge) — all
//! of which the kernels defer into a per-band [`StageSink`]. The network
//! applies sinks in ascending band order, which reproduces the serial
//! ascending-router order byte for byte; this is what makes
//! region-parallel output identical to serial at any thread count (pinned
//! by `tests/region_parallel_equivalence.rs`).

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

/// Side effects of one band's router stage, deferred so bands can run
/// concurrently and merge deterministically (in band order).
#[derive(Debug, Clone, Default)]
pub(crate) struct StageSink {
    /// Event counters accumulated by this band.
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
    /// Trace events in intra-band order (only filled when `trace_on`).
    pub(crate) trace: Vec<TraceEvent>,
    /// Whether a tracer is attached this cycle.
    pub(crate) trace_on: bool,
    /// Flits ejected to an NI, in intra-band order. The merge accounts
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

impl StageSink {
    /// Whether the sink carries nothing (cheap pre-check before applying).
    pub(crate) fn is_empty(&self) -> bool {
        self.events == EventCounts::default()
            && self.flits_forwarded == 0
            && self.unroutable == 0
            && self.removed == 0
            && self.wire_pushed == 0
            && self.pending_credits.is_empty()
            && self.busy_channels.is_empty()
            && self.trace.is_empty()
            && self.ejected.is_empty()
    }
}

/// Reusable allocation requests of the router being allocated: per output
/// port, its VA requesters (`va`) and SA requesters (`sa`) as (input port,
/// VC) bit-vectors, gathered by one fused scan over the occupied-VC
/// bitmasks. Only the ports a router requested are reset after it, so a
/// request-free port costs nothing.
///
/// On span-sampled cycles the band walk runs in two phases — RC+VA over
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
    /// Readies the scratch for a band walk.
    fn prep(&mut self) {
        if self.va.is_empty() {
            self.va = vec![Requests::default(); MAX_PORTS];
            self.sa = vec![Requests::default(); MAX_PORTS];
        }
        self.sa_routers.clear();
        self.sa_saved.clear();
    }
}

/// Mutable access to the channel array from inside a band.
///
/// Channels are indexed globally and not contiguous per band, so they
/// cannot be sliced like the lane arrays. Instead each band gets a shard
/// holding raw pointers to the full arrays, under the contract that a band
/// only ever touches channels whose **source router lies inside the band**
/// (VA/SA/ST only read or write channels leaving the router being
/// allocated). Bands partition routers, so concurrent shard accesses are
/// disjoint; debug assertions in [`BandView`] check the ownership rule on
/// every access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelShard {
    channels: *mut ChannelRt,
    flits: *mut u64,
    n: usize,
}

// SAFETY: the shard is only sent to a worker as part of a `BandJob`, and
// the band-ownership contract above makes all cross-thread accesses
// disjoint. Synchronization is provided by the step barrier (workers
// finish before the main thread reads the results).
#[allow(unsafe_code)]
unsafe impl Send for ChannelShard {}

#[allow(unsafe_code)]
impl ChannelShard {
    pub(crate) fn new(channels: &mut [ChannelRt], flits: &mut [u64]) -> Self {
        debug_assert_eq!(channels.len(), flits.len());
        ChannelShard {
            n: channels.len(),
            channels: channels.as_mut_ptr(),
            flits: flits.as_mut_ptr(),
        }
    }

    #[inline]
    fn get(&self, ci: usize) -> &ChannelRt {
        debug_assert!(ci < self.n);
        // SAFETY: in-bounds; disjointness per the band-ownership contract.
        unsafe { &*self.channels.add(ci) }
    }

    #[inline]
    fn get_mut(&mut self, ci: usize) -> &mut ChannelRt {
        debug_assert!(ci < self.n);
        // SAFETY: in-bounds; disjointness per the band-ownership contract.
        unsafe { &mut *self.channels.add(ci) }
    }

    #[inline]
    fn count_traversal(&mut self, ci: usize) {
        debug_assert!(ci < self.n);
        // SAFETY: in-bounds; disjointness per the band-ownership contract.
        unsafe { *self.flits.add(ci) += 1 };
    }
}

/// A contiguous band of routers with the matching lane sub-slices.
///
/// All indices passed to the kernel methods are *global*; the `ri0` /
/// `gp0` / `gv0` offsets translate them into the borrowed slices.
pub(crate) struct BandView<'a> {
    /// First router of the band.
    pub(crate) ri0: usize,
    pub(crate) routers: &'a mut [RouterRt],
    /// Global port index of the band's first port.
    pub(crate) gp0: usize,
    pub(crate) occ: &'a mut [u32],
    /// Per-port visit masks: `occ & scan` is the set the allocation scan
    /// walks; `occ & !scan` is the credit-parked set (see [`crate::soa`]).
    pub(crate) scan: &'a mut [u32],
    pub(crate) va_rr: &'a mut [crate::arbiter::RoundRobin],
    pub(crate) sa_rr: &'a mut [crate::arbiter::RoundRobin],
    /// Global VC index of the band's first VC.
    pub(crate) gv0: usize,
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
    pub(crate) head: &'a mut [u8],
    pub(crate) len: &'a mut [u8],
    pub(crate) slots: &'a mut [Flit],
    pub(crate) router_forwarded: &'a mut [u64],
    pub(crate) channels: ChannelShard,
    pub(crate) spec: &'a NetworkSpec,
    /// The packet table's slots, indexed by flit handle (read-only: every
    /// table write happens in the serial phases around the router stage).
    pub(crate) packets: &'a [Slot],
    /// Full (network-wide) port prefix sums.
    pub(crate) port_base: &'a [u32],
    /// Full per-global-port output-channel cache (read-only, so bands share
    /// the whole array and index it globally).
    pub(crate) out_channel: &'a [Option<ChannelId>],
    /// Full per-global-port input-feeder cache (read-only).
    pub(crate) feeder: &'a [Option<ChannelId>],
    pub(crate) total_vcs: usize,
    pub(crate) vcs_per_vnet: usize,
    pub(crate) depth: usize,
}

/// Splits `view` into `[ri0, mid)` and `[mid, end)` bands at a router
/// boundary. All lane arrays split at the matching port/VC offsets, so
/// both halves are fully disjoint safe borrows; only the channel shard is
/// duplicated (see [`ChannelShard`] for why that is sound).
pub(crate) fn split_band(view: BandView<'_>, mid: usize) -> (BandView<'_>, BandView<'_>) {
    let n_r = mid - view.ri0;
    let mid_gp = view.port_base[mid] as usize;
    let n_p = mid_gp - view.gp0;
    let n_v = n_p * view.total_vcs;
    let (r_a, r_b) = view.routers.split_at_mut(n_r);
    let (occ_a, occ_b) = view.occ.split_at_mut(n_p);
    let (scan_a, scan_b) = view.scan.split_at_mut(n_p);
    let (vrr_a, vrr_b) = view.va_rr.split_at_mut(n_p);
    let (srr_a, srr_b) = view.sa_rr.split_at_mut(n_p);
    let (lane_a, lane_b) = view.lane.split_at_mut(n_v);
    let (vm_a, vm_b) = view.va_meta.split_at_mut(n_v);
    let (own_a, own_b) = view.owner.split_at_mut(n_v);
    let (cr_a, cr_b) = view.credits.split_at_mut(n_v);
    let (al_a, al_b) = view.alloc.split_at_mut(n_v);
    let (am_a, am_b) = view.alloc_mask.split_at_mut(n_p);
    let (cz_a, cz_b) = view.credit_zero.split_at_mut(n_p);
    let (hd_a, hd_b) = view.head.split_at_mut(n_v);
    let (ln_a, ln_b) = view.len.split_at_mut(n_v);
    let (sl_a, sl_b) = view.slots.split_at_mut(n_v * view.depth);
    let (fw_a, fw_b) = view.router_forwarded.split_at_mut(n_r);
    let a = BandView {
        ri0: view.ri0,
        routers: r_a,
        gp0: view.gp0,
        occ: occ_a,
        scan: scan_a,
        va_rr: vrr_a,
        sa_rr: srr_a,
        gv0: view.gv0,
        lane: lane_a,
        va_meta: vm_a,
        owner: own_a,
        credits: cr_a,
        alloc: al_a,
        alloc_mask: am_a,
        credit_zero: cz_a,
        head: hd_a,
        len: ln_a,
        slots: sl_a,
        router_forwarded: fw_a,
        channels: view.channels,
        spec: view.spec,
        packets: view.packets,
        port_base: view.port_base,
        out_channel: view.out_channel,
        feeder: view.feeder,
        total_vcs: view.total_vcs,
        vcs_per_vnet: view.vcs_per_vnet,
        depth: view.depth,
    };
    let b = BandView {
        ri0: mid,
        routers: r_b,
        gp0: mid_gp,
        occ: occ_b,
        scan: scan_b,
        va_rr: vrr_b,
        sa_rr: srr_b,
        gv0: mid_gp * view.total_vcs,
        lane: lane_b,
        va_meta: vm_b,
        owner: own_b,
        credits: cr_b,
        alloc: al_b,
        alloc_mask: am_b,
        credit_zero: cz_b,
        head: hd_b,
        len: ln_b,
        slots: sl_b,
        router_forwarded: fw_b,
        channels: view.channels,
        spec: view.spec,
        packets: view.packets,
        port_base: view.port_base,
        out_channel: view.out_channel,
        feeder: view.feeder,
        total_vcs: view.total_vcs,
        vcs_per_vnet: view.vcs_per_vnet,
        depth: view.depth,
    };
    (a, b)
}

impl BandView<'_> {
    /// Local VC index for global `gv`.
    #[inline]
    fn lv(&self, gv: usize) -> usize {
        gv - self.gv0
    }

    #[inline]
    fn ring_front(&self, lv: usize) -> Option<&Flit> {
        soa::ring_front(self.head, self.len, self.slots, self.depth, lv)
    }

    #[inline]
    fn n_ports(&self, ri: usize) -> usize {
        (self.port_base[ri + 1] - self.port_base[ri]) as usize
    }

    /// Asserts the channel-ownership contract: `ci` leaves a band router.
    #[inline]
    fn assert_owned(&self, ci: usize) {
        debug_assert!(
            {
                let src = self.channels.get(ci).spec.src.router.index();
                src >= self.ri0 && src < self.ri0 + self.routers.len()
            },
            "band touched a channel sourced outside it"
        );
    }

    /// Runs the router stage over the members of the busy-router set that
    /// lie in this band's router range, ascending. The set names exactly
    /// the routers holding flits; the band only reads it, and the routers
    /// this stage drains are pruned after the band-ordered merge (see
    /// `Network::step_finish`), so no two bands write one word.
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
    /// be taken once per band instead of twice per router (a clock read
    /// costs more than a small router's whole scan; see DESIGN.md §13).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_band(
        &mut self,
        busy: &BitSet,
        now: u64,
        timed: bool,
        sink: &mut StageSink,
        scratch: &mut StageScratch,
        rc_va_ns: &mut u64,
        sa_st_ns: &mut u64,
    ) {
        scratch.prep();
        let t0 = timed.then(std::time::Instant::now);
        for ri in busy.range(self.ri0, self.ri0 + self.routers.len()) {
            let r = &self.routers[ri - self.ri0];
            debug_assert!(r.flits > 0, "busy-router set names an empty router");
            if r.active && !r.sleeping && !r.failed && r.config_until <= now {
                self.vc_allocate(ri, now, sink, scratch, !timed);
            }
        }
        if let Some(t0) = t0 {
            let t1 = std::time::Instant::now();
            let mut saved = scratch.sa_saved.iter();
            for &(ri, ports) in &scratch.sa_routers {
                let reqs = ones(ports as u64).zip(saved.by_ref());
                self.switch_allocate(ri as usize, now, sink, reqs);
            }
            *rc_va_ns += (t1 - t0).as_nanos() as u64;
            *sa_st_ns += t1.elapsed().as_nanos() as u64;
        }
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
        let lr = ri - self.ri0;
        let n_ports = self.n_ports(ri);
        let total_vcs = self.total_vcs;
        let depth = self.depth as u8;
        let base_gp = self.port_base[ri] as usize;
        let faulted_out = self.routers[lr].faulted_out;
        let eject_out = self.routers[lr].eject_out;

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
            let occ = self.occ[gp - self.gp0] & self.scan[gp - self.gp0];
            for vi in ones(occ as u64) {
                let lv = self.lv(gp * total_vcs + vi);
                // One hot-lane load answers every question the scan asks of
                // this VC: streaming or not, routed or not, front ready or
                // not, and toward which port/VC.
                let s = self.lane[lv];
                if s & soa::LANE_HAS_OUT != 0 {
                    // Streaming VC: qualify directly for switch allocation.
                    // The lane's front-readiness field keeps the common
                    // "flit still in the router pipeline" case off the flit
                    // slab.
                    if (s >> soa::LANE_READY_SHIFT) > now {
                        continue;
                    }
                    if s & soa::LANE_HAS_ROUTE == 0 {
                        continue; // allocation without a route; defensive
                    }
                    debug_assert!(self.ring_front(lv).is_some(), "occupied VC without a front");
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
                        && self.credit_zero[base_gp + po - self.gp0] & (1 << gvc) != 0
                    {
                        self.scan[gp - self.gp0] &= !(1 << vi);
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
                // output VC), so the waiting case needs no slab probe.
                let route = match soa::lane_route(s) {
                    Some(r) => {
                        debug_assert!(
                            self.ring_front(lv).is_some_and(|f| f.pos.is_head()),
                            "non-head at routed VA-waiting VC front"
                        );
                        r
                    }
                    None => {
                        let Some(&front) = self.ring_front(lv) else {
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
                        soa::lane_set_route(&mut self.lane[lv], port.0);
                        // Cache the head's VA digest while the flit is in
                        // hand; the arbitration loop below reads this word
                        // (plus the lane's readiness field) instead of
                        // re-loading the head from the slab every cycle the
                        // winner fails the availability or credit probe. A
                        // routed-but-unallocated VC cannot pop, so the
                        // digest stays valid exactly as long as the route.
                        self.va_meta[lv] =
                            soa::pack_va_meta(pkt.vnet.0, front.vc_class, front.last_dim, pkt.len);
                        self.owner[lv] = front.pkt;
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
            let Some((pi, vi)) = self.va_rr[base_gp + po - self.gp0].grant_mask(va, 0) else {
                continue; // a requested port always grants; defensive
            };
            va.clear();
            let lv_in = self.lv((base_gp + pi) * total_vcs + vi);
            // The gather loop proved this VC routed, so its RC-time VA digest
            // is current (see `soa::VcLanes::va_meta`) and the lane word
            // carries the head's readiness — no flit slab load for the
            // arbitration winner, which in saturation usually just fails the
            // credit probe below.
            let meta = self.va_meta[lv_in];
            let (vnet, vc_class, last_dim, pkt_len) = soa::unpack_va_meta(meta);
            let vnet = crate::ids::Vnet(vnet);
            let ready_at = self.lane[lv_in] >> soa::LANE_READY_SHIFT;
            debug_assert!(
                self.ring_front(lv_in).is_some_and(|f| {
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
                Some(ch) => self
                    .channels
                    .get(ch.index())
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
                let c = &self.routers[lr].va_cand[vnet.index()];
                if out_eject {
                    c[2]
                } else {
                    c[(class != 0) as usize]
                }
            };
            let start = self.vnet_vcs_start(vnet);
            let lp_out = base_gp + po - self.gp0;
            let avail = ((cand as u32) << start) & !self.alloc_mask[lp_out];
            let need = pkt_len.min(depth);
            let free = ones(avail as u64)
                .find(|&gvc| out_eject || self.credits[self.lv(out_base + gvc)] >= need);
            if let Some(gvc) = free {
                let lv_out = self.lv(out_base + gvc);
                self.alloc[lv_out] = Some((pi as u8, vi as u8));
                self.alloc_mask[lp_out] |= 1 << gvc;
                soa::lane_set_out_vc(&mut self.lane[lv_in], gvc as u8);
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
        let base_lp = self.port_base[ri] as usize - self.gp0;
        // Crossbar input constraint: an input port sends one flit a cycle.
        let mut inputs_used = 0u32;
        for (po, req) in reqs {
            if let Some((pi, vi)) = self.sa_rr[base_lp + po].grant_mask(req, inputs_used) {
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
        let lr = ri - self.ri0;
        let base_gp = self.port_base[ri] as usize;
        let total_vcs = self.total_vcs;
        let lv_in = self.lv((base_gp + pi) * total_vcs + vi);
        let Some(gvc) = soa::lane_out_vc(self.lane[lv_in]) else {
            return; // SA only grants allocated VCs; defensive
        };
        let Some(mut flit) = soa::ring_pop(
            self.head, self.len, self.slots, self.lane, self.depth, lv_in, now,
        ) else {
            return; // SA only grants occupied VCs; defensive
        };
        if self.len[lv_in] == 0 {
            self.occ[base_gp + pi - self.gp0] &= !(1 << vi);
        }
        self.routers[lr].flits -= 1;
        sink.removed += 1;
        sink.events.buffer_reads += 1;
        sink.events.crossbar_traversals += 1;
        sink.events.sa_grants += 1;
        sink.flits_forwarded += 1;
        self.router_forwarded[lr] += 1;
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
        let lv_out = self.lv((base_gp + po) * total_vcs + gvc as usize);
        if is_tail {
            soa::lane_clear_alloc(&mut self.lane[lv_in]);
            self.owner[lv_in] = crate::flit::NO_PACKET;
            self.alloc[lv_out] = None;
            self.alloc_mask[base_gp + po - self.gp0] &= !(1 << gvc);
        }

        if let Some(ch) = self.out_channel[base_gp + po] {
            let ci = ch.index();
            self.assert_owned(ci);
            self.credits[lv_out] -= 1;
            if self.credits[lv_out] == 0 {
                self.credit_zero[base_gp + po - self.gp0] |= 1 << gvc;
            }
            let spec = self.channels.get(ci).spec;
            if flit.pos.is_head() {
                // Lookahead RC: resolve the head's *next-hop* output port
                // against the current tables while the flit is in hand, so
                // RC at the downstream router is a pre-resolved load. The
                // cross-router table read is safe under region-parallel
                // stepping (the shared spec is read-only during the stage).
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
            self.channels.count_traversal(ci);
            // On the wire `ready_at` is the arrival cycle.
            flit.ready_at = soa::ready_lo(now + spec.latency as u64);
            let c = self.channels.get_mut(ci);
            c.q.push_back(flit);
            sink.wire_pushed += 1;
            // The wire was idle, so not in the busy-channel set (one push
            // per channel per cycle: its output port grants once).
            if c.q.len() == 1 {
                sink.busy_channels.push(ci);
            }
        } else {
            // Ejection.
            debug_assert!(
                self.routers[lr].eject_out & (1 << po) != 0,
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

/// One band's worth of router-stage work, with lifetime-erased borrows so
/// a persistent worker pool can hold it across the spawn boundary. Created
/// only by `network::dispatch_bands`, whose caller keeps the borrowed
/// network alive and blocked until every job completes.
pub(crate) struct BandJob {
    pub(crate) view: BandView<'static>,
    /// The busy-router set, shared read-only by every band.
    pub(crate) busy: &'static BitSet,
    pub(crate) now: u64,
    pub(crate) timed: bool,
    pub(crate) trace_on: bool,
}

// SAFETY: the job's borrows point into a `Network` that is exclusively
// borrowed for the whole parallel step; bands are disjoint by
// construction (`split_band`), and the step barrier orders all worker
// writes before the main thread's merge reads.
#[allow(unsafe_code)]
unsafe impl Send for BandJob {}

/// Per-band worker-side state, persisted across cycles so the hot loop
/// never allocates (sinks and scratch keep their capacity).
#[derive(Debug, Default)]
pub(crate) struct WorkerState {
    pub(crate) sink: StageSink,
    pub(crate) scratch: StageScratch,
    pub(crate) rc_va_ns: u64,
    pub(crate) sa_st_ns: u64,
}

/// Runs one band job into its worker state.
pub(crate) fn run_band_job(mut job: BandJob, state: &mut WorkerState) {
    state.rc_va_ns = 0;
    state.sa_st_ns = 0;
    state.sink.trace_on = job.trace_on;
    job.view.run_band(
        job.busy,
        job.now,
        job.timed,
        &mut state.sink,
        &mut state.scratch,
        &mut state.rc_va_ns,
        &mut state.sa_st_ns,
    );
}
