//! Packets and flits.
//!
//! Endpoints inject [`Packet`]s. When a network interface starts streaming
//! one, the network stores it once in its packet table
//! (`crate::packets::PacketTable`) and serializes it into 16-byte flits
//! that carry only a handle to that slot plus the state the pipeline
//! changes per hop (readiness, hop count, VC class, lookahead port). Route
//! computation reads `vnet`/`dst` from the slot on its one visit per head
//! per hop; ejection of the tail rebuilds the
//! [`Delivered`](crate::stats::Delivered) record from it and frees it.

use crate::ids::{NodeId, Vnet};

/// Sentinel for `Flit::la_port`: no lookahead route is carried (the
/// upstream resolver found no table entry, or a table swap cleared it).
/// Route computation falls back to a table walk.
pub(crate) const LA_NONE: u8 = u8::MAX;

/// The semantic class of a packet; used for traffic accounting and for the
/// RL state's "number of coherence packets / data packets" attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A memory read/write request towards an MC or a cache slice (1 flit).
    Request,
    /// A data reply carrying a cache line (multi-flit).
    Reply,
    /// A coherence control message between cores (1 flit).
    Coherence,
}

/// A packet as injected by an endpoint node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Globally unique packet id (assigned by the caller; the workload layer
    /// uses a monotonically increasing counter).
    pub id: u64,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Virtual network the packet travels on.
    pub vnet: Vnet,
    /// Packet length in flits (>= 1).
    pub len: u8,
    /// Semantic class for accounting.
    pub kind: PacketKind,
    /// Opaque correlation tag; the workload layer uses it to match replies
    /// to outstanding requests.
    pub tag: u64,
    /// Cycle at which the packet was handed to the NI (set by the network on
    /// injection via [`Network::inject`](crate::network::Network::inject)).
    pub created_at: u64,
}

impl Packet {
    /// Creates a request packet (1 flit, request vnet).
    pub fn request(id: u64, src: NodeId, dst: NodeId, tag: u64) -> Self {
        Packet {
            id,
            src,
            dst,
            vnet: Vnet::REQUEST,
            len: crate::config::CONTROL_PACKET_FLITS,
            kind: PacketKind::Request,
            tag,
            created_at: 0,
        }
    }

    /// Creates a data reply packet (multi-flit, reply vnet).
    pub fn reply(id: u64, src: NodeId, dst: NodeId, tag: u64) -> Self {
        Packet {
            id,
            src,
            dst,
            vnet: Vnet::REPLY,
            len: crate::config::DATA_PACKET_FLITS,
            kind: PacketKind::Reply,
            tag,
            created_at: 0,
        }
    }

    /// Creates a coherence control packet (1 flit, request vnet).
    pub fn coherence(id: u64, src: NodeId, dst: NodeId, tag: u64) -> Self {
        Packet {
            id,
            src,
            dst,
            vnet: Vnet::REQUEST,
            len: crate::config::CONTROL_PACKET_FLITS,
            kind: PacketKind::Coherence,
            tag,
            created_at: 0,
        }
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitPos {
    /// First flit of a multi-flit packet; carries routing information.
    Head,
    /// Interior flit.
    Body,
    /// Last flit; releases VC allocations as it drains.
    Tail,
    /// Single-flit packet (head and tail at once).
    Single,
}

impl FlitPos {
    /// Whether this flit performs route computation / VC allocation.
    pub fn is_head(self) -> bool {
        matches!(self, FlitPos::Head | FlitPos::Single)
    }

    /// Whether this flit releases the VC when it drains.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitPos::Tail | FlitPos::Single)
    }

    /// The flit position for flit `seq` of a packet of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= len` or `len == 0`.
    pub fn of(seq: u8, len: u8) -> FlitPos {
        assert!(len >= 1, "packet length must be >= 1");
        assert!(seq < len, "flit sequence out of range");
        match (seq, len) {
            (0, 1) => FlitPos::Single,
            (0, _) => FlitPos::Head,
            (s, l) if s + 1 == l => FlitPos::Tail,
            _ => FlitPos::Body,
        }
    }
}

/// Sentinel packet handle: no packet (an unowned VC lane, a filler slot).
pub(crate) const NO_PACKET: u32 = u32::MAX;

/// A flow-control unit traversing the network: a handle to its packet's
/// [`PacketTable`](crate::packets::PacketTable) slot plus the per-flit
/// state the router pipeline mutates hop by hop. Exactly 16 bytes, so a
/// depth-4 VC ring is one cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Flit {
    /// Handle of the packet's slot in the network's packet table.
    pub(crate) pkt: u32,
    /// Low 32 bits of a cycle: while the flit is buffered, the earliest
    /// cycle it may win switch allocation at the router holding it (models
    /// the `T_r` pipeline); while it is on a wire, its arrival cycle.
    /// Compared and widened against `now` with the wrapping helpers in
    /// [`crate::soa`].
    pub(crate) ready_at: u32,
    /// Number of router-to-router channel traversals so far. Kept in the
    /// flit (not the packet's slot) so the router stage never writes the
    /// packet table.
    pub(crate) hops: u16,
    /// Sequence number within the packet (0-based).
    pub(crate) seq: u8,
    /// Position within the packet.
    pub(crate) pos: FlitPos,
    /// Dateline VC class: 0 before crossing a dateline channel, 1 after a
    /// torus wrap (Sec. II-C3, reset per dimension), or the sticky
    /// [`crate::spec::CLASS_INTERCHIP`] after a chip boundary crossing.
    pub(crate) vc_class: u8,
    /// Dimension of the last channel traversed (0 = X, 1 = Y,
    /// [`crate::spec::DIM_NONE`] before the first hop); used for the
    /// per-dimension dateline class reset.
    pub(crate) last_dim: u8,
    /// The downstream VC (global index) assigned by the upstream VA stage;
    /// meaningful while the flit is on a channel.
    pub(crate) assigned_vc: u8,
    /// Lookahead route: the output port this head flit will request at the
    /// router it is travelling toward, pre-resolved one hop upstream from
    /// the routing tables (or at the NI for the first hop). [`LA_NONE`]
    /// when no lookahead is carried; only meaningful on head flits (body
    /// and tail inherit the head's route decision). A table swap clears it
    /// on every flit in flight, so a carried port always agrees with the
    /// installed tables.
    pub(crate) la_port: u8,
}

const _: () = assert!(std::mem::size_of::<Flit>() == 16);

impl Flit {
    /// Builds the `seq`-th flit of the `len`-flit packet in slot `pkt`.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= len`.
    pub(crate) fn new(pkt: u32, seq: u8, len: u8) -> Flit {
        Flit {
            pkt,
            ready_at: 0,
            hops: 0,
            seq,
            pos: FlitPos::of(seq, len),
            vc_class: 0,
            last_dim: crate::spec::DIM_NONE,
            assigned_vc: 0,
            la_port: LA_NONE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_positions_for_multiflit_packet() {
        assert_eq!(FlitPos::of(0, 4), FlitPos::Head);
        assert_eq!(FlitPos::of(1, 4), FlitPos::Body);
        assert_eq!(FlitPos::of(2, 4), FlitPos::Body);
        assert_eq!(FlitPos::of(3, 4), FlitPos::Tail);
        assert_eq!(FlitPos::of(0, 1), FlitPos::Single);
    }

    #[test]
    #[should_panic(expected = "flit sequence out of range")]
    fn flit_position_out_of_range_panics() {
        let _ = FlitPos::of(4, 4);
    }

    #[test]
    fn head_and_tail_classification() {
        assert!(FlitPos::Head.is_head());
        assert!(FlitPos::Single.is_head());
        assert!(!FlitPos::Body.is_head());
        assert!(!FlitPos::Tail.is_head());
        assert!(FlitPos::Tail.is_tail());
        assert!(FlitPos::Single.is_tail());
        assert!(!FlitPos::Head.is_tail());
    }

    #[test]
    fn packet_constructors_use_expected_vnets() {
        let rq = Packet::request(1, NodeId(0), NodeId(5), 42);
        assert_eq!(rq.vnet, Vnet::REQUEST);
        assert_eq!(rq.len, 1);
        let rp = Packet::reply(2, NodeId(5), NodeId(0), 42);
        assert_eq!(rp.vnet, Vnet::REPLY);
        assert!(rp.len > 1);
        assert_eq!(rp.kind, PacketKind::Reply);
        let co = Packet::coherence(3, NodeId(1), NodeId(2), 0);
        assert_eq!(co.vnet, Vnet::REQUEST);
        assert_eq!(co.kind, PacketKind::Coherence);
    }

    #[test]
    fn flits_of_a_packet_cover_all_positions_once() {
        let p = Packet::reply(1, NodeId(0), NodeId(1), 0);
        let flits: Vec<Flit> = (0..p.len).map(|s| Flit::new(0, s, p.len)).collect();
        assert_eq!(flits.len(), p.len as usize);
        assert_eq!(flits.iter().filter(|f| f.pos.is_head()).count(), 1);
        assert_eq!(flits.iter().filter(|f| f.pos.is_tail()).count(), 1);
    }
}
