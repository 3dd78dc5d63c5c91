//! The network's packet table: one record per packet with flits inside the
//! network.
//!
//! Flits are 16-byte handles (see [`crate::flit`]); everything the
//! simulator knows about a *packet* — the [`Packet`] as injected, the cycle
//! its latest flit entered the source router, how many of its flits are
//! still inside — lives here, once. A slot is allocated when an NI starts
//! streaming a packet and freed when the tail is ejected or the packet is
//! purged, so the table is bounded by buffer + wire capacity (source queues
//! hold `Packet`s by value) and grows on demand: nothing is sized per node
//! or per buffer slot.
//!
//! All writes (allocation, `injected_at`, the live-flit count, purge marks,
//! frees) happen in NI injection, when the router stage's sink is applied,
//! or between cycles. The router stage itself only reads
//! [`PacketTable::slots`].

use crate::flit::{Packet, NO_PACKET};

/// One live packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// The packet, as handed to [`Network::inject`](crate::network::Network::inject).
    pub(crate) pkt: Packet,
    /// Cycle the packet's most recently injected flit entered the source
    /// router's input buffer; once the NI finishes streaming, the tail's.
    pub(crate) injected_at: u64,
    /// Flits not yet ejected or purged: still to stream from the NI,
    /// buffered, or on a wire. Zero marks a free slot.
    pub(crate) live: u8,
    /// Set while a purge is collecting its victims.
    marked: bool,
}

/// Slot storage plus a LIFO free list.
#[derive(Debug, Clone, Default)]
pub(crate) struct PacketTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl PacketTable {
    /// Stores `pkt` and returns its handle. Reuses the most recently freed
    /// slot, else grows the table.
    ///
    /// # Panics
    ///
    /// Panics if `pkt.len == 0` (a packet without flits could never be
    /// freed) or the table would exceed the `u32` handle space.
    pub(crate) fn alloc(&mut self, pkt: Packet) -> u32 {
        assert!(pkt.len >= 1, "packet length must be >= 1");
        let slot = Slot {
            pkt,
            injected_at: 0,
            live: pkt.len,
            marked: false,
        };
        match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = slot;
                h
            }
            None => {
                let h = u32::try_from(self.slots.len()).expect("packet table handle space");
                assert!(h != NO_PACKET, "packet table handle space");
                self.slots.push(slot);
                h
            }
        }
    }

    /// The slots, indexed by handle (read-only view for the router stage).
    pub(crate) fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The packet in slot `h`.
    pub(crate) fn packet(&self, h: u32) -> &Packet {
        &self.slots[h as usize].pkt
    }

    /// Whether `h` names a live slot.
    pub(crate) fn is_live(&self, h: u32) -> bool {
        self.slots.get(h as usize).is_some_and(|s| s.live > 0)
    }

    /// Number of live slots.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Live slots as `(handle, slot)`, ascending by handle.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (u32, &Slot)> {
        (0u32..).zip(self.slots.iter()).filter(|(_, s)| s.live > 0)
    }

    /// Records the cycle a flit of packet `h` entered the source router.
    pub(crate) fn set_injected_at(&mut self, h: u32, now: u64) {
        self.slots[h as usize].injected_at = now;
    }

    /// Accounts one ejected flit of packet `h`; returns how many are left.
    pub(crate) fn flit_left(&mut self, h: u32) -> u8 {
        let s = &mut self.slots[h as usize];
        debug_assert!(s.live > 0, "flit of a freed packet left the network");
        s.live = s.live.saturating_sub(1);
        s.live
    }

    /// Frees slot `h`, returning the packet and its `injected_at`.
    pub(crate) fn free(&mut self, h: u32) -> (Packet, u64) {
        let s = &mut self.slots[h as usize];
        s.live = 0;
        s.marked = false;
        let out = (s.pkt, s.injected_at);
        self.free.push(h);
        out
    }

    /// Adds packet `h` to a purge's victim list, once (no packet —
    /// [`NO_PACKET`] — is ignored). Victims are handles, not caller-chosen
    /// ids: two in-flight packets that share an id are still two packets.
    pub(crate) fn doom(&mut self, doomed: &mut Vec<u32>, h: u32) {
        if h != NO_PACKET && !std::mem::replace(&mut self.slots[h as usize].marked, true) {
            doomed.push(h);
        }
    }

    /// Whether packet `h` is marked for the purge in progress.
    pub(crate) fn is_marked(&self, h: u32) -> bool {
        self.slots[h as usize].marked
    }

    /// Starts a check of the table against the flits actually inside the
    /// network: report each with [`Audit::flits`], then [`Audit::finish`].
    pub(crate) fn audit(&self) -> Audit<'_> {
        Audit {
            table: self,
            found: vec![0; self.slots.len()],
            stray: 0,
        }
    }

    /// Heap bytes held (capacity, not length).
    pub(crate) fn heap_bytes(&self) -> usize {
        crate::soa::vec_bytes(&self.slots) + crate::soa::vec_bytes(&self.free)
    }
}

/// A flit census in progress (see [`PacketTable::audit`]): every flit must
/// name a live slot and every live slot must count exactly its flits.
#[derive(Debug)]
pub(crate) struct Audit<'a> {
    table: &'a PacketTable,
    /// Flits seen per handle.
    found: Vec<u32>,
    /// Flits seen that name a free (or never allocated) slot.
    stray: u32,
}

impl Audit<'_> {
    /// Reports `n` flits of packet `h` found inside the network (buffered
    /// and wire flits one by one, an NI's still-to-stream remainder at once).
    pub(crate) fn flits(&mut self, h: u32, n: u32) {
        if self.table.is_live(h) {
            self.found[h as usize] += n;
        } else {
            self.stray += n;
        }
    }

    /// One line per discrepancy.
    pub(crate) fn finish(self) -> Vec<String> {
        let mut out = Vec::new();
        if self.stray > 0 {
            out.push(format!("{} flit(s) name a freed packet slot", self.stray));
        }
        for (h, s) in self.table.iter_live() {
            if self.found[h as usize] != s.live as u32 {
                out.push(format!(
                    "packet {} (slot {h}) counts {} live flits, the network holds {}",
                    s.pkt.id, s.live, self.found[h as usize]
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn pkt(id: u64, len: u8) -> Packet {
        Packet {
            len,
            ..Packet::reply(id, NodeId(0), NodeId(1), 0)
        }
    }

    #[test]
    fn handles_are_reused_most_recently_freed_first() {
        let mut t = PacketTable::default();
        let hs: Vec<u32> = (0..4).map(|i| t.alloc(pkt(i, 1))).collect();
        assert_eq!(hs, vec![0, 1, 2, 3]);
        assert_eq!(t.free(1).0.id, 1);
        assert_eq!(t.free(3).0.id, 3);
        // LIFO: 3 comes back before 1, and only then does the table grow.
        assert_eq!(t.alloc(pkt(10, 1)), 3);
        assert_eq!(t.alloc(pkt(11, 1)), 1);
        assert_eq!(t.alloc(pkt(12, 1)), 4);
        assert_eq!(t.packet(3).id, 10);
        assert_eq!(t.packet(1).id, 11);
        // The same sequence on a second table yields the same handles.
        let mut u = PacketTable::default();
        for i in 0..4 {
            u.alloc(pkt(i, 1));
        }
        u.free(1);
        u.free(3);
        assert_eq!((u.alloc(pkt(10, 1)), u.alloc(pkt(11, 1))), (3, 1));
    }

    #[test]
    fn live_count_follows_allocs_flits_and_frees() {
        let mut t = PacketTable::default();
        assert_eq!(t.live(), 0);
        let a = t.alloc(pkt(1, 3));
        let b = t.alloc(pkt(2, 1));
        assert_eq!(t.live(), 2);
        assert_eq!(t.slots()[a as usize].live, 3);
        assert_eq!(t.flit_left(a), 2);
        assert_eq!(t.flit_left(a), 1);
        assert_eq!(t.flit_left(a), 0);
        t.set_injected_at(a, 42);
        assert_eq!(t.free(a), (pkt(1, 3), 42));
        assert_eq!(t.live(), 1);
        let live: Vec<u32> = t.iter_live().map(|(h, _)| h).collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    fn a_freed_handle_is_not_live_and_marks_do_not_survive_reuse() {
        let mut t = PacketTable::default();
        let h = t.alloc(pkt(1, 2));
        assert!(t.is_live(h));
        assert!(!t.is_live(h + 1), "never allocated");
        let mut doomed = Vec::new();
        t.doom(&mut doomed, h);
        t.doom(&mut doomed, h);
        t.doom(&mut doomed, NO_PACKET);
        assert_eq!(doomed, vec![h], "listed once; no-packet ignored");
        assert!(t.is_marked(h));
        t.free(h);
        assert!(!t.is_live(h));
        let again = t.alloc(pkt(2, 1));
        assert_eq!(again, h);
        assert!(t.is_live(h) && !t.is_marked(h));
    }

    #[test]
    fn audit_reports_stray_flits_and_miscounted_slots() {
        let mut t = PacketTable::default();
        let a = t.alloc(pkt(1, 3));
        let b = t.alloc(pkt(2, 2));
        let gone = t.alloc(pkt(3, 1));
        t.free(gone);
        let mut ok = t.audit();
        ok.flits(a, 1);
        ok.flits(a, 2);
        ok.flits(b, 2);
        assert!(ok.finish().is_empty());
        let mut bad = t.audit();
        bad.flits(a, 3);
        bad.flits(b, 1); // one flit of `b` went missing
        bad.flits(gone, 1); // a flit outlived its packet
        bad.flits(77, 1); // never allocated
        let lines = bad.finish();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("2 flit(s) name a freed"));
        assert!(lines[1].contains("packet 2") && lines[1].contains("counts 2"));
    }

    #[test]
    fn an_empty_table_owns_no_heap() {
        assert_eq!(PacketTable::default().heap_bytes(), 0);
    }
}
