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
//! Flit buffers are fixed-capacity ring buffers of `vc_depth` slots drawn
//! from one shared pool (`slots`). A VC holds a ring only while it holds
//! flits: the push into an empty VC takes one (the most recently freed
//! first, else the pool grows by one ring), and the pop that empties it
//! or a purge that clears it gives it back. The pool never shrinks. Each
//! held ring belongs to exactly one VC and no held ring is free, so the
//! pool never exceeds the number of VCs that were non-empty at the same
//! moment, at most `n_vcs` rings. The `vc_depth` capacity is sound: every
//! input VC buffer is limited to `vc_depth` flits by construction — the
//! credit loop bounds wire + downstream occupancy per VC at `vc_depth`, NI
//! injection checks `buf_len < vc_depth`, and purges only remove flits.
//! The always-on buffer-occupancy invariant guard treats `len > depth` and
//! any breach of ring ownership as violations, so both assumptions are
//! continuously checked.
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
    /// head from its ring anyway) and valid until the route clears: a
    /// routed-but-unallocated VC cannot pop (nothing forwards without an
    /// output VC), so its front — and this digest of it — is frozen. VA
    /// arbitration reads this word instead of re-loading the winner's
    /// head flit from its ring every cycle it fails the availability or
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
    /// Per global VC: its buffer — the pool ring it holds, the front slot
    /// and the length, packed so one load answers "empty? where is the
    /// front?".
    pub(crate) bufs: Vec<Buf>,
    /// The ring pool: ring `r` owns `slots[r * depth..(r + 1) * depth]`,
    /// and slot `k` of VC `gv` lives at
    /// `slots[ring * depth + (head + k) % depth]` of `bufs[gv]`. A ring is
    /// held by exactly one non-empty VC or is on `free_rings`; the pool
    /// grows only when no ring is free, never shrinks, and so holds at most
    /// the peak count of VCs non-empty at once (at most `n_vcs` rings).
    pub(crate) slots: Vec<Flit>,
    /// Rings no VC holds, last freed on top: the warmest ring is reused
    /// first.
    pub(crate) free_rings: Vec<u32>,
}

/// Most VCs a network may have: a [`Buf`] names its ring in 24 bits, and
/// the pool never holds more rings than VCs.
pub(crate) const MAX_VCS: usize = 1 << 24;

/// One VC's buffer in one word: the length in bits 0..4, the front's slot
/// within the ring (`head < depth`) in bits 4..8 and the pool ring in bits
/// 8..32, meaningful only while the length is non-zero. Four-bit fields
/// bound `vc_depth` at 15 (`SimConfig::validate`), the ring field the VC
/// count at [`MAX_VCS`] (`Network::new`). A word, not a struct of `u32` +
/// two `u8`, because every update is one store and the array stays at 4
/// bytes a VC: an 8-byte record measured 1–2 % slower on the loaded 8x8
/// chip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Buf(u32);

impl Buf {
    /// The buffer of `len` flits from slot `head` of pool ring `ring`.
    #[inline]
    pub(crate) fn new(ring: u32, head: usize, len: usize) -> Buf {
        debug_assert!(ring < MAX_VCS as u32 && head < 16 && len < 16);
        Buf(ring << 8 | (head as u32) << 4 | len as u32)
    }

    /// The pool ring (meaningful while `len() > 0`).
    #[inline]
    pub(crate) fn ring(self) -> u32 {
        self.0 >> 8
    }

    /// The front's slot within the ring.
    #[inline]
    pub(crate) fn head(self) -> usize {
        (self.0 >> 4) as usize & 15
    }

    /// Buffered flits.
    #[inline]
    pub(crate) fn len(self) -> usize {
        self.0 as usize & 15
    }
}

/// Placeholder flit for unoccupied pool and wire slots.
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
        assert!(n_vcs <= MAX_VCS, "{n_vcs} VCs exceed the ring ids");
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
            bufs: vec![Buf::default(); n_vcs],
            slots: Vec::new(),
            free_rings: Vec::new(),
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
        self.bufs[gv].len()
    }

    /// The flit at the front of VC `gv`, if any.
    #[inline]
    pub(crate) fn front(&self, gv: usize) -> Option<&Flit> {
        ring_front(&self.bufs, &self.slots, self.depth, gv)
    }

    /// The `k`-th buffered flit of VC `gv` (0 = front).
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `k >= buf_len(gv)`.
    #[inline]
    pub(crate) fn flit_at(&self, gv: usize, k: usize) -> &Flit {
        debug_assert!(k < self.buf_len(gv));
        &self.slots[slot_index(self.bufs[gv], self.depth, k)]
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
                    (self.depth as u8).saturating_sub(w + self.bufs[down_gv + v].len() as u8);
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

    /// Appends a flit to VC `gv` at cycle `now`, taking a pool ring if the
    /// VC was empty (the last freed one, else a new one) and refreshing the
    /// lane's front-readiness field then.
    ///
    /// # Panics
    ///
    /// Panics (in debug) on ring overflow; release builds rely on the
    /// credit/NI bounds (see module docs) and the occupancy guard.
    #[inline]
    pub(crate) fn push_back(&mut self, gv: usize, f: Flit, now: u64) {
        let depth = self.depth;
        let mut b = self.bufs[gv];
        debug_assert!(b.len() < depth, "VC ring overflow (depth {depth})");
        if b.len() == 0 {
            let ring = match self.free_rings.pop() {
                Some(r) => r,
                None => self.grow_pool(),
            };
            b = Buf::new(ring, 0, 0);
            lane_set_ready(&mut self.lane[gv], ready_widen(f.ready_at, now));
        }
        self.slots[slot_index(b, depth, b.len())] = f;
        // The length is the low field, and it stays below 16.
        self.bufs[gv] = Buf(b.0 + 1);
    }

    /// Adds one ring to the pool and returns its id (the pool is out of
    /// free rings).
    #[cold]
    #[inline(never)]
    fn grow_pool(&mut self) -> u32 {
        let r = self.slots.len() / self.depth;
        self.slots.resize(self.slots.len() + self.depth, filler());
        // The pool holds at most one ring per VC (`MAX_VCS` fits a `u32`).
        r as u32
    }

    /// Pops the front flit of VC `gv` at cycle `now` (the router stage
    /// calls [`ring_pop`] on its own borrows).
    #[cfg(test)]
    pub(crate) fn pop_front(&mut self, gv: usize, now: u64) -> Option<Flit> {
        ring_pop(
            &mut self.bufs,
            &self.slots,
            &mut self.free_rings,
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
            for k in 0..self.bufs[gv].len() {
                self.slots[slot_index(self.bufs[gv], self.depth, k)].la_port = crate::flit::LA_NONE;
            }
        }
    }

    /// Heap bytes held by the lane arrays and the ring pool (capacity, not
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
            + b(&self.bufs)
            + b(&self.slots)
            + b(&self.free_rings)
    }

    /// Empties VC `gv`, giving its ring back to the pool (the slots keep
    /// their stale contents).
    #[inline]
    pub(crate) fn clear_buf(&mut self, gv: usize) {
        let b = std::mem::take(&mut self.bufs[gv]);
        if b.len() > 0 {
            self.free_rings.push(b.ring());
        }
    }

    /// Whether VC `gv`'s head and ring lie inside the pool, so its slots
    /// can be read (always, unless ring ownership is broken).
    pub(crate) fn ring_in_pool(&self, gv: usize) -> bool {
        let b = self.bufs[gv];
        b.head() < self.depth && (b.ring() as usize + 1) * self.depth <= self.slots.len()
    }

    /// Test hook: puts the ring VC `gv` holds on the free list as well,
    /// breaking ring ownership without touching any buffered flit.
    #[cfg(test)]
    pub(crate) fn free_held_ring(&mut self, gv: usize) {
        assert!(self.bufs[gv].len() > 0, "VC {gv} holds no ring");
        self.free_rings.push(self.bufs[gv].ring());
    }

    /// Every breach of ring ownership, described: a non-empty VC holding a
    /// ring outside the pool or a head outside its ring, two VCs holding
    /// one ring, a held ring on the free list, a ring listed free twice, or
    /// held plus free rings not adding up to the pool size.
    pub(crate) fn ring_faults(&self) -> Vec<String> {
        const FREE: u32 = u32::MAX;
        const UNSEEN: u32 = u32::MAX - 1;
        let rings = self.slots.len() / self.depth;
        // Per ring: the VC holding it, `FREE` or `UNSEEN`.
        let mut seen = vec![UNSEEN; rings];
        let mut out = Vec::new();
        let name = |gv: usize| {
            let (ri, pi) = self.port_of(gv / self.total_vcs);
            format!("R{ri}:p{pi} vc{}", gv % self.total_vcs)
        };
        let mut held = 0;
        for (gv, b) in self.bufs.iter().enumerate().filter(|(_, b)| b.len() > 0) {
            let r = b.ring() as usize;
            if b.head() >= self.depth {
                out.push(format!("{} head {} outside its ring", name(gv), b.head()));
            }
            match seen.get(r) {
                None => out.push(format!("{} holds ring {r} of a pool of {rings}", name(gv))),
                Some(&UNSEEN) => {
                    seen[r] = gv as u32;
                    held += 1;
                }
                Some(&other) => out.push(format!(
                    "{} and {} both hold ring {r}",
                    name(other as usize),
                    name(gv)
                )),
            }
        }
        for &r in &self.free_rings {
            match seen.get(r as usize) {
                None => out.push(format!("free ring {r} outside a pool of {rings}")),
                Some(&UNSEEN) => seen[r as usize] = FREE,
                Some(&FREE) => out.push(format!("ring {r} is on the free list twice")),
                Some(&holder) => out.push(format!(
                    "ring {r} is on the free list but held by {}",
                    name(holder as usize)
                )),
            }
        }
        if held + self.free_rings.len() != rings {
            out.push(format!(
                "{held} held + {} free rings, pool of {rings}",
                self.free_rings.len()
            ));
        }
        out
    }
}

/// Heap bytes behind `v`: capacity × element size.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Pool index of buffered flit `k` (head-relative) of the VC buffer `b`.
#[inline]
pub(crate) fn slot_index(b: Buf, depth: usize, k: usize) -> usize {
    let mut p = b.head() + k;
    // head < depth and k < depth, so one conditional subtract replaces `%`.
    if p >= depth {
        p -= depth;
    }
    b.ring() as usize * depth + p
}

/// Front flit of VC `v`, if any. Operates on raw lane components so the
/// router-stage view in [`crate::stage`] can reuse it on its borrows.
#[inline]
pub(crate) fn ring_front<'s>(
    bufs: &[Buf],
    slots: &'s [Flit],
    depth: usize,
    v: usize,
) -> Option<&'s Flit> {
    let b = bufs[v];
    if b.len() == 0 {
        None
    } else {
        Some(&slots[b.ring() as usize * depth + b.head()])
    }
}

/// Pops the front flit of VC `v`, refreshing the lane's front-readiness
/// field from the new front, or giving the ring back to `free` if the pop
/// emptied the VC.
#[inline]
pub(crate) fn ring_pop(
    bufs: &mut [Buf],
    slots: &[Flit],
    free: &mut Vec<u32>,
    lane: &mut [u64],
    depth: usize,
    v: usize,
    now: u64,
) -> Option<Flit> {
    let b = bufs[v];
    if b.len() == 0 {
        return None;
    }
    let base = b.ring() as usize * depth;
    let f = slots[base + b.head()];
    if b.len() == 1 {
        free.push(b.ring());
        bufs[v] = Buf::default();
    } else {
        let h = b.head() + 1;
        let h = if h == depth { 0 } else { h };
        bufs[v] = Buf::new(b.ring(), h, b.len() - 1);
        lane_set_ready(&mut lane[v], ready_widen(slots[base + h].ready_at, now));
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
        assert_eq!(lanes.bufs.len(), 13 * 6);
        assert!(lanes.slots.is_empty(), "an empty network holds no rings");
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

    /// Random push, pop, `clear_buf` and `clear_lookahead` over 400 VCs of
    /// depth 4, against a `VecDeque` per VC. Fill-biased and drain-biased
    /// phases alternate so occupancy swings between near-empty and
    /// near-full: contents must agree, ownership must hold, and the pool
    /// must never exceed the peak count of VCs non-empty at once.
    #[test]
    fn ring_pool_matches_a_deque_model() {
        use std::collections::VecDeque;
        const DEPTH: usize = 4;
        let ports = [5usize; 20];
        let mut lanes = VcLanes::new(&ports, 4, DEPTH);
        let n_vcs = lanes.bufs.len();
        let mut model = vec![VecDeque::<Flit>::new(); n_vcs];
        let mut rng = crate::rng::Rng::seed_from_u64(41);
        let (mut nonempty, mut peak, mut next_pkt) = (0usize, 0usize, 0u32);
        let mut pool_peak = 0;
        for step in 0..60_000u64 {
            let fill = (step / 3_000) % 2 == 0;
            let gv = rng.random_below(n_vcs);
            let roll = rng.random_below(1000);
            let was_empty = model[gv].is_empty();
            if roll < 2 {
                let ri = rng.random_below(ports.len());
                lanes.clear_lookahead(ri);
                let (lo, hi) = (lanes.gv(ri, 0, 0), lanes.gv(ri + 1, 0, 0));
                for q in &mut model[lo..hi] {
                    q.iter_mut().for_each(|f| f.la_port = crate::flit::LA_NONE);
                }
            } else if roll < 6 {
                lanes.clear_buf(gv);
                model[gv].clear();
            } else if (roll < 700) == fill && model[gv].len() < DEPTH {
                let mut f = flit(next_pkt);
                f.la_port = (next_pkt % 5) as u8;
                f.ready_at = step as u32;
                next_pkt += 1;
                lanes.push_back(gv, f, step);
                model[gv].push_back(f);
            } else {
                assert_eq!(lanes.pop_front(gv, step), model[gv].pop_front());
            }
            match (was_empty, model[gv].is_empty()) {
                (true, false) => nonempty += 1,
                (false, true) => nonempty -= 1,
                _ => {}
            }
            peak = peak.max(nonempty);
            let rings = lanes.slots.len() / DEPTH;
            assert!(rings <= peak, "step {step}: {rings} rings, peak {peak}");
            pool_peak = pool_peak.max(rings);
            assert_eq!(lanes.buf_len(gv), model[gv].len());
            assert_eq!(lanes.front(gv), model[gv].front());
            if step % 1_000 == 0 {
                for (v, q) in model.iter().enumerate() {
                    let got: Vec<Flit> = (0..lanes.buf_len(v))
                        .map(|k| *lanes.flit_at(v, k))
                        .collect();
                    assert_eq!(got, Vec::from(q.clone()), "VC {v} at step {step}");
                }
                assert_eq!(lanes.ring_faults(), Vec::<String>::new(), "step {step}");
            }
        }
        assert_eq!(lanes.ring_faults(), Vec::<String>::new());
        // The phases really swung occupancy, and the pool recycled rings
        // instead of growing one per push into an empty VC.
        assert!(
            peak > n_vcs / 2 && pool_peak == peak,
            "peak {peak}, pool {pool_peak}"
        );
    }

    #[test]
    fn ring_faults_name_shared_stray_and_double_freed_rings() {
        let mut lanes = VcLanes::new(&[2], 2, 4);
        for gv in 0..3 {
            lanes.push_back(gv, flit(gv as u32), 0);
        }
        assert!(lanes.ring_faults().is_empty());
        lanes.bufs[1] = Buf::new(lanes.bufs[0].ring(), 0, 1);
        let faults = lanes.ring_faults();
        assert!(
            faults.iter().any(|f| f.contains("both hold ring 0")),
            "{faults:?}"
        );
        lanes.bufs[1] = Buf::new(7, 0, 1);
        assert!(lanes.ring_faults().iter().any(|f| f.contains("pool of 3")));
        lanes.bufs[1] = Buf::new(1, 0, 1);
        lanes.pop_front(2, 0);
        lanes.free_rings.push(2);
        let faults = lanes.ring_faults();
        assert!(
            faults.iter().any(|f| f.contains("free list twice")),
            "{faults:?}"
        );
    }
}
