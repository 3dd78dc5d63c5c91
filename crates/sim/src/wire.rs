//! The wire arena: every channel's in-flight flits in one flat slab.
//!
//! A channel takes at most one flit per cycle (its output port grants
//! once) and delivers every flit whose arrival cycle has come, so the
//! flits on a wire were pushed on distinct cycles no earlier than the
//! front's, and the front was pushed less than its latency ago: a wire
//! never holds more flits than the latency its oldest flit was sent
//! under. Each channel therefore owns a fixed ring of that many slots in
//! one `Vec<Flit>` shared by the whole network, laid out back to back in
//! channel order (CSR offsets) — one allocation per network instead of a
//! heap buffer per channel, and neighbouring channels' wires are
//! neighbours in memory.

use crate::flit::Flit;

/// One channel's ring in the wire arena: `len` flits, oldest first,
/// starting at slot `head` of the `cap` slots from `base` on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WireRing {
    base: u32,
    cap: u8,
    head: u8,
    len: u8,
}

impl WireRing {
    /// An empty ring over arena slots `base..base + cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` exceeds 255 (channel latencies are `u8`) or
    /// `base` exceeds `u32::MAX`.
    pub(crate) fn new(base: usize, cap: usize) -> Self {
        WireRing {
            base: u32::try_from(base).expect("wire arena exceeds u32 slots"),
            cap: u8::try_from(cap).expect("wire ring capacity exceeds 255"),
            head: 0,
            len: 0,
        }
    }

    /// Flits on the wire.
    #[inline]
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Slots the ring owns in the arena.
    pub(crate) fn cap(self) -> usize {
        self.cap as usize
    }

    /// Arena index of the `k`-th flit (oldest first).
    #[inline]
    fn slot(self, k: usize) -> usize {
        let mut p = self.head as usize + k;
        // head < cap and k < cap, so one conditional subtract replaces `%`.
        if p >= self.cap as usize {
            p -= self.cap as usize;
        }
        self.base as usize + p
    }

    /// The ring's flits as two arena slices, oldest first (the second is
    /// non-empty once the ring has wrapped).
    pub(crate) fn as_slices(self, arena: &[Flit]) -> (&[Flit], &[Flit]) {
        let ring = &arena[self.base as usize..self.base as usize + self.cap as usize];
        let (wrapped, from_head) = ring.split_at(self.head as usize);
        let first = (self.len as usize).min(from_head.len());
        (&from_head[..first], &wrapped[..self.len as usize - first])
    }

    /// [`as_slices`](Self::as_slices), mutably.
    pub(crate) fn as_mut_slices(self, arena: &mut [Flit]) -> (&mut [Flit], &mut [Flit]) {
        let ring = &mut arena[self.base as usize..self.base as usize + self.cap as usize];
        let (wrapped, from_head) = ring.split_at_mut(self.head as usize);
        let first = (self.len as usize).min(from_head.len());
        (
            &mut from_head[..first],
            &mut wrapped[..self.len as usize - first],
        )
    }

    /// The flits on the wire, oldest first.
    pub(crate) fn iter(self, arena: &[Flit]) -> impl Iterator<Item = &Flit> {
        let (a, b) = self.as_slices(arena);
        a.iter().chain(b)
    }

    /// Appends a flit. The capacity bound is a property of the schedule
    /// (see the module doc), so it is only debug-checked.
    #[inline]
    pub(crate) fn push(&mut self, arena: &mut [Flit], f: Flit) {
        debug_assert!(self.len < self.cap, "wire ring overflow (cap {})", self.cap);
        arena[self.slot(self.len as usize)] = f;
        self.len += 1;
    }

    /// Pops the front flit if `ready` accepts it.
    #[inline]
    pub(crate) fn pop_if(
        &mut self,
        arena: &[Flit],
        ready: impl FnOnce(&Flit) -> bool,
    ) -> Option<Flit> {
        if self.len == 0 {
            return None;
        }
        let f = arena[self.slot(0)];
        if !ready(&f) {
            return None;
        }
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        self.len -= 1;
        Some(f)
    }

    /// Keeps only the flits `keep` accepts, in order, compacting the ring
    /// in place; returns how many it removed.
    pub(crate) fn retain(
        &mut self,
        arena: &mut [Flit],
        mut keep: impl FnMut(&Flit) -> bool,
    ) -> usize {
        let mut kept = 0;
        for k in 0..self.len as usize {
            let f = arena[self.slot(k)];
            if keep(&f) {
                // kept <= k: the write never lands on an unread flit.
                arena[self.slot(kept)] = f;
                kept += 1;
            }
        }
        let removed = self.len as usize - kept;
        self.len = kept as u8;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(pkt: u32) -> Flit {
        Flit::new(pkt, 0, 1)
    }

    fn pkts(r: WireRing, arena: &[Flit]) -> Vec<u32> {
        r.iter(arena).map(|f| f.pkt).collect()
    }

    /// Two neighbouring rings: filling, wrapping and draining one never
    /// touches the other's slots.
    #[test]
    fn rings_wrap_inside_their_own_slots() {
        let mut arena = vec![flit(99); 7];
        let mut a = WireRing::new(0, 3);
        let mut b = WireRing::new(3, 4);
        for p in 0..4 {
            b.push(&mut arena, flit(100 + p));
        }
        for p in 0..10 {
            a.push(&mut arena, flit(p));
            if a.len() == a.cap() {
                assert_eq!(a.pop_if(&arena, |_| true).map(|f| f.pkt), Some(p - 2));
            }
        }
        assert_eq!(pkts(a, &arena), [8, 9]);
        assert_eq!(pkts(b, &arena), [100, 101, 102, 103]);
        assert!(a.pop_if(&arena, |f| f.pkt == 9).is_none(), "front is 8");
        let (first, second) = a.as_slices(&arena);
        assert_eq!(first.len() + second.len(), 2);
        assert!(!second.is_empty(), "the ring has wrapped");
    }

    /// `retain` on a wrapped ring keeps the survivors in FIFO order and
    /// leaves the ring usable at full capacity.
    #[test]
    fn retain_compacts_a_wrapped_ring_in_order() {
        let mut arena = vec![flit(99); 5];
        let mut r = WireRing::new(0, 5);
        for p in 0..11 {
            r.push(&mut arena, flit(p));
            if r.len() == 4 {
                r.pop_if(&arena, |_| true);
            }
        }
        assert!(!r.as_slices(&arena).1.is_empty(), "the ring has wrapped");
        assert_eq!(pkts(r, &arena), [8, 9, 10]);
        assert_eq!(r.retain(&mut arena, |f| f.pkt != 9), 1);
        assert_eq!(pkts(r, &arena), [8, 10]);
        for p in 20..23 {
            r.push(&mut arena, flit(p));
        }
        assert_eq!(pkts(r, &arena), [8, 10, 20, 21, 22]);
        assert_eq!(r.retain(&mut arena, |_| false), 5);
        assert!(r.is_empty());
    }
}
