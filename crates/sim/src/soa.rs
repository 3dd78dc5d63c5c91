//! Data-oriented (structure-of-arrays) storage for per-port and per-VC
//! router state.
//!
//! [`VcLanes`] holds every port's wiring, arbiter pointers and VC state in
//! contiguous arrays indexed by a *global port index* or a *global VC
//! index*
//!
//! ```text
//! gp = port_base[ri] + pi          // global port index
//! gv = gp * total_vcs + vi         // global VC index
//! ```
//!
//! so one loaded cycle touches a handful of dense arrays instead of
//! thousands of small heap objects, and no router owns heap data. Input-side
//! state (the hot `lane` word packing route + output VC + front readiness,
//! plus `owner`, `ni_lock`, buffers, `occ`) is indexed by input port;
//! output-side state (`credits`, `alloc`, and the port-level
//! `alloc_mask`/`credit_zero` bitmasks) by output port. Routers always have
//! matching input/output port counts, so both sides share the same index
//! space. The global port index also names a port's bit in the network's
//! injection-port set, which the injection stage walks in ascending order;
//! `port_router` maps it back to `(router, port)` in O(1).
//!
//! Port wiring — the channel leaving and feeding each port, each router's
//! ejection ports and the NIs on each injection port — is stored here and
//! nowhere else. [`VcLanes::wire`] derives all of it from the spec, at
//! construction and at each reconfiguration.
//!
//! Flit buffers are fixed-capacity ring buffers living in one shared
//! `slots` slab, `vc_depth` slots per VC. That bound is sound: every input
//! VC buffer is limited to `vc_depth` flits by construction — the credit
//! loop bounds wire + downstream occupancy per VC at `vc_depth`, NI
//! injection checks `buf_len < vc_depth`, and purges only remove flits.
//! The always-on buffer-occupancy invariant guard treats `len > depth` as a
//! violation, so the capacity assumption is continuously checked.
//!
//! The arrays are plain `Vec`s (not nested), so the router stage's view
//! (see [`crate::stage`]) borrows each one as a flat `&mut` slice.

use crate::arbiter::RoundRobin;
use crate::flit::{Flit, NO_PACKET};
use crate::ids::ChannelId;
use crate::spec::NetworkSpec;

/// Flat per-port and per-VC state for every router in the network. See the
/// module docs for the index scheme.
#[derive(Debug, Clone)]
pub(crate) struct VcLanes {
    /// VCs per port (`SimConfig::total_vcs()`); immutable for the network's
    /// life (reconfiguration cannot change it).
    pub(crate) total_vcs: usize,
    /// Ring capacity per VC (`SimConfig::vc_depth`).
    pub(crate) depth: usize,
    /// Prefix sums of per-router port counts; `port_base[ri]` is router
    /// `ri`'s first global port, `port_base[n_routers]` the total port
    /// count. Immutable for the network's life (reconfiguration rejects
    /// port-count changes).
    pub(crate) port_base: Vec<u32>,
    /// Per global port: its router (the inverse of `port_base`).
    pub(crate) port_router: Vec<u16>,
    /// Per global port: bitmask of VCs with buffered flits.
    pub(crate) occ: Vec<u32>,
    /// Per global port (input side): bitmask of VCs the allocation scan
    /// must visit. A streaming VC blocked on an exhausted downstream VC
    /// contributes nothing until a credit returns, so the scan *parks* it
    /// (clears its bit) and `Network::step_credits` wakes it O(1) when
    /// the blocking credit transitions away from zero — the output VC's
    /// `alloc` back-link names the unique parked lane. Every buffer push
    /// and every wholesale rebuild (reconfigure, purge) also wakes, so
    /// `occ & !scan` is exactly the credit-parked set (checked by the
    /// Allocation invariant guard). Stale set bits on drained VCs are
    /// harmless: the scan masks with `occ`.
    pub(crate) scan: Vec<u32>,
    /// Per global port: the channel leaving this output port, if any. This
    /// and the next three fields are the port wiring [`wire`](Self::wire)
    /// derives.
    pub(crate) out_channel: Vec<Option<ChannelId>>,
    /// Per global port: the channel feeding this input port, if any.
    pub(crate) feeder: Vec<Option<ChannelId>>,
    /// Per router: bitmask of output ports that eject to an NI.
    pub(crate) eject_out: Vec<u32>,
    /// NIs on each injection port, as a CSR list: the NIs of global port
    /// `gp` are `port_nis[ni_base[gp]..ni_base[gp + 1]]`, indices into the
    /// spec's (and the network's) NI list in that list's order.
    pub(crate) ni_base: Vec<u32>,
    /// See `ni_base`.
    pub(crate) port_nis: Vec<u32>,
    /// Per global port: output-VC allocation round-robin pointer. Port
    /// counts are immutable, so every pointer survives reconfiguration.
    pub(crate) va_rr: Vec<RoundRobin>,
    /// Per global port: switch allocation round-robin pointer.
    pub(crate) sa_rr: Vec<RoundRobin>,
    /// Per global port: the round-robin pointer among the port's NIs.
    pub(crate) inj_rr: Vec<RoundRobin>,
    /// Per global VC (input side): the dense hot-lane word packing the
    /// route (output port), allocated output VC, and front-flit readiness
    /// the allocation scan reads every cycle — one load where three
    /// separate arrays (`route`, `out_vc`, `front_ready`) used to cost
    /// three cache touches. See the `LANE_*` constants for the layout.
    pub(crate) lane: Vec<u64>,
    /// Per global VC (input side): VA metadata of the front head flit,
    /// packed `vnet | vc_class << 8 | last_dim << 16 | pkt_len << 24`.
    /// Written at route computation (the one scan visit that loads the
    /// head from the slab anyway) and valid until the route clears: a
    /// routed-but-unallocated VC cannot pop (nothing forwards without an
    /// output VC), so its front — and this digest of it — is frozen. VA
    /// arbitration reads this word instead of re-loading the winner's
    /// head flit from the slab every cycle it fails the availability or
    /// credit probe.
    pub(crate) va_meta: Vec<u32>,
    /// Per global VC (input side): packet-table handle of the packet that
    /// owns the lane's route/output-VC allocation ([`NO_PACKET`] if none).
    pub(crate) owner: Vec<u32>,
    /// Per global VC (input side): set while an NI streams a packet in.
    pub(crate) ni_lock: Vec<bool>,
    /// Per global VC (output side): credits for the downstream VC.
    pub(crate) credits: Vec<u8>,
    /// Per global VC (output side): which local input VC holds this output
    /// VC, as `(in_port, in_vc)`.
    pub(crate) alloc: Vec<Option<(u8, u8)>>,
    /// Per global port (output side): bitmask of allocated output VCs —
    /// bit `v` mirrors `alloc[gp * total_vcs + v].is_some()`. The VA scan
    /// intersects this with the precomputed candidate masks so picking a
    /// free output VC is mask arithmetic instead of per-lane `Option`
    /// probing; every `alloc` write keeps the two in sync (checked by the
    /// Allocation invariant guard).
    pub(crate) alloc_mask: Vec<u32>,
    /// Per global port (output side): bitmask of output VCs with zero
    /// credits — bit `v` mirrors `credits[gp * total_vcs + v] == 0`. The
    /// streaming-VC scan tests this port-local mask instead of loading the
    /// per-VC credit byte of a *different* port's row (a cache line the
    /// scan otherwise never touches); every credit transition through zero
    /// keeps the two in sync (checked by the Allocation invariant guard).
    pub(crate) credit_zero: Vec<u32>,
    /// Per global VC: ring-buffer head slot (< `depth`).
    pub(crate) head: Vec<u8>,
    /// Per global VC: ring-buffer length (<= `depth`).
    pub(crate) len: Vec<u8>,
    /// The flit slab: slot `k` of VC `gv` lives at
    /// `slots[gv * depth + (head[gv] + k) % depth]`.
    pub(crate) slots: Vec<Flit>,
}

/// Placeholder flit for unoccupied slab slots.
pub(crate) fn filler() -> Flit {
    Flit::new(NO_PACKET, 0, 1)
}

// Layout of the per-VC hot-lane word (`VcLanes::lane`), low to high:
//
// ```text
// bits  0..6   allocated output VC (valid iff LANE_HAS_OUT)
// bits  6..12  route: chosen output port (valid iff LANE_HAS_ROUTE)
// bit   12     LANE_HAS_OUT   — an output VC is allocated
// bit   13     LANE_HAS_ROUTE — a route is computed
// bits 16..64  `ready_at` of the front flit (stale when the ring is
//              empty); 48 bits bound simulated time at ~2.8e14 cycles
// ```
//
// A flit itself only stores the low 32 bits of its `ready_at` (see the
// `ready_*` helpers below); the lane keeps the front's full value so the
// allocation scan compares plain integers.
//
// Ports and VCs are bounded by the `u32` port/VC bitmasks used throughout
// the hot loop, so six bits each always suffice.

/// Mask of the allocated-output-VC field.
pub(crate) const LANE_GVC: u64 = 0x3F;
/// Shift of the route (output port) field.
pub(crate) const LANE_PO_SHIFT: u32 = 6;
/// Mask of the route field (in place).
pub(crate) const LANE_PO: u64 = 0x3F << LANE_PO_SHIFT;
/// Set when the lane holds an allocated output VC.
pub(crate) const LANE_HAS_OUT: u64 = 1 << 12;
/// Set when the lane holds a computed route.
pub(crate) const LANE_HAS_ROUTE: u64 = 1 << 13;
/// The whole allocation state (route + output VC + both flags).
pub(crate) const LANE_ALLOC: u64 = 0xFFFF;
/// Shift of the front-flit `ready_at` field.
pub(crate) const LANE_READY_SHIFT: u32 = 16;

/// The lane's route, decoded.
#[inline]
pub(crate) fn lane_route(s: u64) -> Option<crate::ids::PortId> {
    if s & LANE_HAS_ROUTE != 0 {
        Some(crate::ids::PortId(((s >> LANE_PO_SHIFT) & 0x3F) as u8))
    } else {
        None
    }
}

/// The lane's allocated output VC, decoded.
#[inline]
pub(crate) fn lane_out_vc(s: u64) -> Option<u8> {
    if s & LANE_HAS_OUT != 0 {
        Some((s & LANE_GVC) as u8)
    } else {
        None
    }
}

/// Stores a computed route in the lane.
#[inline]
pub(crate) fn lane_set_route(s: &mut u64, po: u8) {
    debug_assert!(po < 64);
    *s = (*s & !LANE_PO) | ((po as u64) << LANE_PO_SHIFT) | LANE_HAS_ROUTE;
}

/// Stores an allocated output VC in the lane.
#[inline]
pub(crate) fn lane_set_out_vc(s: &mut u64, gvc: u8) {
    debug_assert!((gvc as u64) <= LANE_GVC);
    *s = (*s & !LANE_GVC) | gvc as u64 | LANE_HAS_OUT;
}

/// Clears the lane's allocation state (route + output VC), keeping the
/// front-readiness field.
#[inline]
pub(crate) fn lane_clear_alloc(s: &mut u64) {
    *s &= !LANE_ALLOC;
}

/// Refreshes the lane's front-readiness field, keeping the allocation
/// state.
#[inline]
pub(crate) fn lane_set_ready(s: &mut u64, ready_at: u64) {
    debug_assert!(ready_at < 1 << 48, "simulated time outside the lane field");
    *s = (*s & LANE_ALLOC) | (ready_at << LANE_READY_SHIFT);
}

/// The low 32 bits of `cycle`, as stored in `Flit::ready_at`.
#[inline]
pub(crate) fn ready_lo(cycle: u64) -> u32 {
    cycle as u32
}

/// Whether the cycle whose low 32 bits are `lo` is at or before `now`.
/// Exact while the two are less than 2^31 cycles apart: a flit's
/// `ready_at` is set at most a link or router latency ahead of `now`, so
/// only a flit blocked in place for over 2^31 cycles could alias.
#[inline]
pub(crate) fn ready_reached(lo: u32, now: u64) -> bool {
    (now as u32).wrapping_sub(lo) as i32 >= 0
}

/// The full cycle whose low 32 bits are `lo`: the one within 2^31 of `now`.
#[inline]
pub(crate) fn ready_widen(lo: u32, now: u64) -> u64 {
    let ahead = lo.wrapping_sub(now as u32) as i32;
    let full = now.wrapping_add(ahead as i64 as u64);
    debug_assert!(
        full < 1 << 48,
        "ready_at {lo:#x} outside the 2^31 window around cycle {now}"
    );
    full
}

/// Packs a head flit's VA-relevant fields into a `va_meta` word:
/// `vnet | vc_class << 8 | last_dim << 16 | pkt_len << 24`.
#[inline]
pub(crate) fn pack_va_meta(vnet: u8, vc_class: u8, last_dim: u8, pkt_len: u8) -> u32 {
    vnet as u32 | (vc_class as u32) << 8 | (last_dim as u32) << 16 | (pkt_len as u32) << 24
}

/// Unpacks a `va_meta` word into `(vnet, vc_class, last_dim, pkt_len)`.
#[inline]
pub(crate) fn unpack_va_meta(m: u32) -> (u8, u8, u8, u8) {
    (m as u8, (m >> 8) as u8, (m >> 16) as u8, (m >> 24) as u8)
}

impl VcLanes {
    /// Builds empty lanes for routers with the given per-router port counts.
    pub(crate) fn new(port_counts: &[usize], total_vcs: usize, depth: usize) -> Self {
        let mut port_base = Vec::with_capacity(port_counts.len() + 1);
        let mut port_router = Vec::new();
        let mut acc = 0u32;
        port_base.push(0);
        for (ri, &n) in port_counts.iter().enumerate() {
            acc += n as u32;
            port_base.push(acc);
            port_router.extend(std::iter::repeat_n(ri as u16, n));
        }
        let n_ports = acc as usize;
        let n_vcs = n_ports * total_vcs;
        VcLanes {
            total_vcs,
            depth,
            port_base,
            port_router,
            occ: vec![0; n_ports],
            scan: vec![0; n_ports],
            out_channel: vec![None; n_ports],
            feeder: vec![None; n_ports],
            eject_out: vec![0; port_counts.len()],
            ni_base: vec![0; n_ports + 1],
            port_nis: Vec::new(),
            va_rr: vec![RoundRobin::new(); n_ports],
            sa_rr: vec![RoundRobin::new(); n_ports],
            inj_rr: vec![RoundRobin::new(); n_ports],
            lane: vec![0; n_vcs],
            va_meta: vec![0; n_vcs],
            owner: vec![NO_PACKET; n_vcs],
            ni_lock: vec![false; n_vcs],
            credits: vec![depth as u8; n_vcs],
            alloc: vec![None; n_vcs],
            alloc_mask: vec![0; n_ports],
            credit_zero: vec![
                // All VCs start with `depth` credits; only a zero-depth
                // configuration (rejected upstream) would start exhausted.
                if depth == 0 {
                    u32::MAX >> (32 - total_vcs.clamp(1, 32))
                } else {
                    0
                };
                n_ports
            ],
            head: vec![0; n_vcs],
            len: vec![0; n_vcs],
            slots: vec![filler(); n_vcs * depth],
        }
    }

    /// Resets the port wiring and derives it from `spec`: each port's
    /// outgoing and feeding channel, each router's ejection ports and each
    /// injection port's NIs (in `spec.nis` order). The spec must have the
    /// port counts these lanes were built with. Arbiter pointers and VC
    /// state are left alone.
    pub(crate) fn wire(&mut self, spec: &NetworkSpec) {
        self.out_channel.fill(None);
        self.feeder.fill(None);
        self.eject_out.fill(0);
        for (i, c) in spec.channels.iter().enumerate() {
            let ch = Some(ChannelId(i as u32));
            let src = self.gp(c.src.router.index(), c.src.port.index());
            let dst = self.gp(c.dst.router.index(), c.dst.port.index());
            self.out_channel[src] = ch;
            self.feeder[dst] = ch;
        }
        self.ni_base.fill(0);
        for n in &spec.nis {
            let (ri, pi) = (n.router.index(), n.port.index());
            self.ni_base[self.port_base[ri] as usize + pi + 1] += 1;
            self.eject_out[ri] |= 1 << pi;
        }
        for gp in 1..self.ni_base.len() {
            self.ni_base[gp] += self.ni_base[gp - 1];
        }
        // A stable sort by port keeps each port's NIs in spec order.
        let base = &self.port_base;
        self.port_nis.clear();
        self.port_nis.reserve_exact(spec.nis.len());
        self.port_nis.extend(0..spec.nis.len() as u32);
        self.port_nis.sort_by_key(|&i| {
            let n = &spec.nis[i as usize];
            base[n.router.index()] as usize + n.port.index()
        });
    }

    /// The NIs on injection port `gp`, as indices into the NI list.
    #[inline]
    pub(crate) fn port_nis(&self, gp: usize) -> &[u32] {
        &self.port_nis[self.ni_base[gp] as usize..self.ni_base[gp + 1] as usize]
    }

    /// Global port index of `(router, port)`.
    #[inline]
    pub(crate) fn gp(&self, ri: usize, pi: usize) -> usize {
        self.port_base[ri] as usize + pi
    }

    /// `(router, port)` of global port `gp`.
    #[inline]
    pub(crate) fn port_of(&self, gp: usize) -> (usize, usize) {
        let ri = self.port_router[gp] as usize;
        (ri, gp - self.port_base[ri] as usize)
    }

    /// Global VC index of `(router, port, vc)`.
    #[inline]
    pub(crate) fn gv(&self, ri: usize, pi: usize, vi: usize) -> usize {
        (self.port_base[ri] as usize + pi) * self.total_vcs + vi
    }

    /// Number of ports on router `ri`.
    #[inline]
    pub(crate) fn n_ports(&self, ri: usize) -> usize {
        (self.port_base[ri + 1] - self.port_base[ri]) as usize
    }

    /// Buffered flits in VC `gv`.
    #[inline]
    pub(crate) fn buf_len(&self, gv: usize) -> usize {
        self.len[gv] as usize
    }

    /// The flit at the front of VC `gv`, if any.
    #[inline]
    pub(crate) fn front(&self, gv: usize) -> Option<&Flit> {
        ring_front(&self.head, &self.len, &self.slots, self.depth, gv)
    }

    /// The `k`-th buffered flit of VC `gv` (0 = front).
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `k >= buf_len(gv)`.
    #[inline]
    pub(crate) fn flit_at(&self, gv: usize, k: usize) -> &Flit {
        debug_assert!(k < self.buf_len(gv));
        &self.slots[slot_index(&self.head, self.depth, gv, k)]
    }

    /// The route stored in VC `gv`'s lane, if any.
    #[inline]
    pub(crate) fn route(&self, gv: usize) -> Option<crate::ids::PortId> {
        lane_route(self.lane[gv])
    }

    /// The output VC allocated to VC `gv`'s lane, if any.
    #[inline]
    pub(crate) fn out_vc(&self, gv: usize) -> Option<u8> {
        lane_out_vc(self.lane[gv])
    }

    /// Clears VC `gv`'s route + output-VC allocation.
    #[inline]
    pub(crate) fn clear_alloc(&mut self, gv: usize) {
        lane_clear_alloc(&mut self.lane[gv]);
    }

    /// Recomputes every channel's upstream credits exactly, from what is
    /// on its wire and in the downstream buffer, then rebuilds the
    /// zero-credit masks. Used where flits were removed or channels rewired
    /// wholesale (purge, reconfigure) and incremental maintenance would be
    /// error-prone for no gain.
    pub(crate) fn recompute_credits(
        &mut self,
        channels: &[crate::network::ChannelRt],
        wires: &[Flit],
    ) {
        for c in channels {
            // VC counts are bounded by the `u32` VC bitmasks.
            let mut wire = [0u8; 32];
            for f in c.wire.iter(wires) {
                wire[f.assigned_vc as usize] += 1;
            }
            let down_gv = self.gv(c.spec.dst.router.index(), c.spec.dst.port.index(), 0);
            let up_gv = self.gv(c.spec.src.router.index(), c.spec.src.port.index(), 0);
            for (v, &w) in wire[..self.total_vcs].iter().enumerate() {
                self.credits[up_gv + v] =
                    (self.depth as u8).saturating_sub(w + self.len[down_gv + v]);
            }
        }
        self.rebuild_credit_zero();
    }

    /// Recomputes every port's zero-credit mask from `credits` and wakes
    /// every parked VC (any blocking credit may just have changed).
    fn rebuild_credit_zero(&mut self) {
        for gp in 0..self.credit_zero.len() {
            let mut m = 0u32;
            for v in 0..self.total_vcs {
                if self.credits[gp * self.total_vcs + v] == 0 {
                    m |= 1 << v;
                }
            }
            self.credit_zero[gp] = m;
        }
        self.scan.fill(u32::MAX);
    }

    /// Appends a flit to VC `gv` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics (in debug) on ring overflow; release builds rely on the
    /// credit/NI bounds (see module docs) and the occupancy guard.
    #[inline]
    pub(crate) fn push_back(&mut self, gv: usize, f: Flit, now: u64) {
        ring_push(
            &self.head,
            &mut self.len,
            &mut self.slots,
            &mut self.lane,
            self.depth,
            gv,
            f,
            now,
        );
    }

    /// Pops the front flit of VC `gv` at cycle `now`.
    #[inline]
    pub(crate) fn pop_front(&mut self, gv: usize, now: u64) -> Option<Flit> {
        ring_pop(
            &mut self.head,
            &mut self.len,
            &self.slots,
            &mut self.lane,
            self.depth,
            gv,
            now,
        )
    }

    /// Clears the carried lookahead port of every flit buffered in router
    /// `ri` (a table swap invalidates them; see `Flit::la_port`).
    pub(crate) fn clear_lookahead(&mut self, ri: usize) {
        let (lo, hi) = (self.port_base[ri] as usize, self.port_base[ri + 1] as usize);
        for gv in lo * self.total_vcs..hi * self.total_vcs {
            for k in 0..self.len[gv] as usize {
                self.slots[slot_index(&self.head, self.depth, gv, k)].la_port =
                    crate::flit::LA_NONE;
            }
        }
    }

    /// Heap bytes held by the lane arrays and the flit slab (capacity, not
    /// length).
    pub(crate) fn heap_bytes(&self) -> usize {
        use vec_bytes as b;
        b(&self.port_base)
            + b(&self.port_router)
            + b(&self.occ)
            + b(&self.scan)
            + b(&self.out_channel)
            + b(&self.feeder)
            + b(&self.eject_out)
            + b(&self.ni_base)
            + b(&self.port_nis)
            + b(&self.va_rr)
            + b(&self.sa_rr)
            + b(&self.inj_rr)
            + b(&self.lane)
            + b(&self.va_meta)
            + b(&self.owner)
            + b(&self.ni_lock)
            + b(&self.credits)
            + b(&self.alloc)
            + b(&self.alloc_mask)
            + b(&self.credit_zero)
            + b(&self.head)
            + b(&self.len)
            + b(&self.slots)
    }

    /// Empties VC `gv` (the slots keep their stale contents).
    #[inline]
    pub(crate) fn clear_buf(&mut self, gv: usize) {
        self.head[gv] = 0;
        self.len[gv] = 0;
    }
}

/// Heap bytes behind `v`: capacity × element size.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Slab index of buffered flit `k` of VC `v` (head-relative).
#[inline]
pub(crate) fn slot_index(head: &[u8], depth: usize, v: usize, k: usize) -> usize {
    let mut p = head[v] as usize + k;
    // head < depth and k < depth, so one conditional subtract replaces `%`.
    if p >= depth {
        p -= depth;
    }
    v * depth + p
}

/// Front flit of VC `v`, if any. Operates on raw lane components so the
/// router-stage view in [`crate::stage`] can reuse it on its borrows.
#[inline]
pub(crate) fn ring_front<'s>(
    head: &[u8],
    len: &[u8],
    slots: &'s [Flit],
    depth: usize,
    v: usize,
) -> Option<&'s Flit> {
    if len[v] == 0 {
        None
    } else {
        Some(&slots[v * depth + head[v] as usize])
    }
}

/// Appends a flit to VC `v`, refreshing the lane's front-readiness field
/// when the ring was empty.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn ring_push(
    head: &[u8],
    len: &mut [u8],
    slots: &mut [Flit],
    lane: &mut [u64],
    depth: usize,
    v: usize,
    f: Flit,
    now: u64,
) {
    let n = len[v] as usize;
    debug_assert!(n < depth, "VC ring overflow (depth {depth})");
    if n == 0 {
        lane_set_ready(&mut lane[v], ready_widen(f.ready_at, now));
    }
    slots[slot_index(head, depth, v, n)] = f;
    len[v] = n as u8 + 1;
}

/// Pops the front flit of VC `v`, refreshing the lane's front-readiness
/// field from the new front.
#[inline]
pub(crate) fn ring_pop(
    head: &mut [u8],
    len: &mut [u8],
    slots: &[Flit],
    lane: &mut [u64],
    depth: usize,
    v: usize,
    now: u64,
) -> Option<Flit> {
    if len[v] == 0 {
        return None;
    }
    let f = slots[v * depth + head[v] as usize];
    let h = head[v] as usize + 1;
    head[v] = if h == depth { 0 } else { h as u8 };
    len[v] -= 1;
    if len[v] > 0 {
        let front = slots[v * depth + head[v] as usize].ready_at;
        lane_set_ready(&mut lane[v], ready_widen(front, now));
    }
    Some(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(pkt: u32) -> Flit {
        Flit::new(pkt, 0, 1)
    }

    #[test]
    fn ring_push_pop_wraps_around() {
        let mut lanes = VcLanes::new(&[2], 3, 4);
        let gv = lanes.gv(0, 1, 2);
        for round in 0..3u32 {
            for i in 0..4 {
                lanes.push_back(gv, flit(round * 10 + i), 0);
            }
            assert_eq!(lanes.buf_len(gv), 4);
            for i in 0..4 {
                assert_eq!(lanes.front(gv).unwrap().pkt, round * 10 + i);
                assert_eq!(lanes.pop_front(gv, 0).unwrap().pkt, round * 10 + i);
            }
            assert!(lanes.pop_front(gv, 0).is_none());
        }
    }

    #[test]
    fn global_indices_follow_port_prefix_sums() {
        let lanes = VcLanes::new(&[5, 3, 5], 6, 4);
        assert_eq!(lanes.port_base, vec![0, 5, 8, 13]);
        assert_eq!(lanes.n_ports(1), 3);
        assert_eq!(lanes.gp(1, 2), 7);
        assert_eq!(lanes.gv(2, 0, 5), 8 * 6 + 5);
        assert_eq!(lanes.port_of(7), (1, 2));
        assert_eq!(lanes.port_of(12), (2, 4));
        assert_eq!(lanes.occ.len(), 13);
        assert_eq!(lanes.lane.len(), 13 * 6);
        assert_eq!(lanes.slots.len(), 13 * 6 * 4);
    }

    #[test]
    fn flit_at_indexes_from_the_front() {
        let mut lanes = VcLanes::new(&[1], 1, 4);
        // Force a wrapped ring: push 3, pop 2, push 2.
        for i in 0..3 {
            lanes.push_back(0, flit(i), 0);
        }
        lanes.pop_front(0, 0);
        lanes.pop_front(0, 0);
        lanes.push_back(0, flit(3), 0);
        lanes.push_back(0, flit(4), 0);
        let got: Vec<u32> = (0..lanes.buf_len(0))
            .map(|k| lanes.flit_at(0, k).pkt)
            .collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn ready_helpers_agree_with_full_width_cycles_around_every_wrap() {
        const T_R: u64 = 3;
        for k in [0u64, 1, 2, 7] {
            let base = k << 32;
            for now in base.saturating_sub(4)..base + 5 {
                // Ready in the past, this cycle, and up to `T_r` ahead.
                for ready in now.saturating_sub(6)..=now + T_R {
                    let lo = ready_lo(ready);
                    assert_eq!(ready_reached(lo, now), ready <= now, "{ready} vs {now}");
                    assert_eq!(ready_widen(lo, now), ready, "{ready} vs {now}");
                }
            }
        }
        // A flit blocked for a long (but < 2^31) stretch still compares
        // and widens exactly, on either side of a wrap.
        let now = (3u64 << 32) + 5;
        let ready = now - (1 << 31) + 1;
        assert!(ready_reached(ready_lo(ready), now));
        assert_eq!(ready_widen(ready_lo(ready), now), ready);
    }

    #[test]
    fn lane_front_readiness_is_full_width_across_the_wrap() {
        let mut lanes = VcLanes::new(&[1], 1, 4);
        let now = (1u64 << 32) - 2;
        // First flit ready just before the wrap, second just after it.
        let mut a = flit(1);
        a.ready_at = ready_lo(now + 1);
        let mut b = flit(2);
        b.ready_at = ready_lo(now + 3);
        lanes.push_back(0, a, now);
        lanes.push_back(0, b, now);
        assert_eq!(lanes.lane[0] >> LANE_READY_SHIFT, now + 1);
        lanes.pop_front(0, now + 1);
        assert_eq!(lanes.lane[0] >> LANE_READY_SHIFT, now + 3);
        assert_eq!(now + 3, (1u64 << 32) + 1);
    }

    #[test]
    fn clear_lookahead_touches_only_the_named_router() {
        let mut lanes = VcLanes::new(&[2, 2], 2, 4);
        for ri in 0..2 {
            let gv = lanes.gv(ri, 1, 1);
            let mut f = flit(ri as u32);
            f.la_port = 3;
            lanes.push_back(gv, f, 0);
        }
        lanes.clear_lookahead(1);
        assert_eq!(lanes.front(lanes.gv(0, 1, 1)).unwrap().la_port, 3);
        assert_eq!(
            lanes.front(lanes.gv(1, 1, 1)).unwrap().la_port,
            crate::flit::LA_NONE
        );
    }
}
