//! Table-based routing.
//!
//! Every router holds, per virtual network, a table mapping destination
//! *node* to output port. The adaptable router's "reconfigurable routing
//! table" (Sec. II-A1) is modeled by swapping these tables at runtime;
//! the deadlock-free reconfiguration protocol of Sec. II-C1 is built on the
//! guarantee that a table swap is atomic with respect to route computation
//! (in-flight packets re-resolve at every subsequent router they enter).

use crate::ids::{NodeId, PortId, RouterId, Vnet};
use std::sync::Arc;

/// The byte a table row holds for "no route". Every other value is the
/// output port id, so a row is directly the per-destination port vector.
pub const NO_ROUTE: u8 = u8::MAX;

/// Dense routing tables: `[vnet][router][destination node] -> output port`.
///
/// One *row* is the contiguous `nodes`-byte slice of a `(vnet, router)`
/// pair, one byte per destination ([`NO_ROUTE`] or the port id). Bulk
/// producers and consumers (table fill, spec validation) work on whole
/// rows through [`RoutingTables::row`] / [`RoutingTables::row_mut`];
/// [`RoutingTables::set`] and [`RoutingTables::lookup`] address single
/// entries.
///
/// The backing storage is shared behind an [`Arc`], so cloning a table (or
/// a [`crate::spec::NetworkSpec`] that embeds one) is O(1); mutation uses
/// copy-on-write semantics and only copies when the storage is shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTables {
    vnets: usize,
    routers: usize,
    nodes: usize,
    table: Arc<Vec<u8>>,
}

impl RoutingTables {
    /// Creates tables with every entry unreachable.
    pub fn new(vnets: usize, routers: usize, nodes: usize) -> Self {
        RoutingTables {
            vnets,
            routers,
            nodes,
            table: Arc::new(vec![NO_ROUTE; vnets * routers * nodes]),
        }
    }

    fn idx(&self, vnet: Vnet, router: RouterId, dst: NodeId) -> usize {
        debug_assert!(vnet.index() < self.vnets, "vnet out of range");
        debug_assert!(router.index() < self.routers, "router out of range");
        debug_assert!(dst.index() < self.nodes, "node out of range");
        (vnet.index() * self.routers + router.index()) * self.nodes + dst.index()
    }

    fn row_range(&self, vnet: Vnet, router: RouterId) -> std::ops::Range<usize> {
        assert!(vnet.index() < self.vnets, "vnet out of range");
        assert!(router.index() < self.routers, "router out of range");
        let start = (vnet.index() * self.routers + router.index()) * self.nodes;
        start..start + self.nodes
    }

    /// The row of `(vnet, router)`: one byte per destination node, either
    /// [`NO_ROUTE`] or the output port id.
    ///
    /// # Panics
    ///
    /// Panics if `vnet` or `router` is out of range.
    pub fn row(&self, vnet: Vnet, router: RouterId) -> &[u8] {
        &self.table[self.row_range(vnet, router)]
    }

    /// The writable row of `(vnet, router)`. Un-shares the storage once
    /// per call (not per entry), so filling a table row by row costs one
    /// copy-on-write check per router.
    ///
    /// # Panics
    ///
    /// Panics if `vnet` or `router` is out of range.
    pub fn row_mut(&mut self, vnet: Vnet, router: RouterId) -> &mut [u8] {
        let range = self.row_range(vnet, router);
        &mut Arc::make_mut(&mut self.table)[range]
    }

    /// Sets the output port at `router` for packets of `vnet` headed to `dst`.
    pub fn set(&mut self, vnet: Vnet, router: RouterId, dst: NodeId, port: PortId) {
        let i = self.idx(vnet, router, dst);
        Arc::make_mut(&mut self.table)[i] = port.0;
    }

    /// Clears the route (marks unreachable).
    pub fn clear(&mut self, vnet: Vnet, router: RouterId, dst: NodeId) {
        let i = self.idx(vnet, router, dst);
        Arc::make_mut(&mut self.table)[i] = NO_ROUTE;
    }

    /// Looks up the output port, or `None` if the destination is unreachable
    /// from this router on this vnet.
    pub fn lookup(&self, vnet: Vnet, router: RouterId, dst: NodeId) -> Option<PortId> {
        let v = self.table[self.idx(vnet, router, dst)];
        if v == NO_ROUTE {
            None
        } else {
            Some(PortId(v))
        }
    }

    /// Number of virtual networks covered.
    pub fn vnets(&self) -> usize {
        self.vnets
    }

    /// Number of routers covered.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// Number of destination nodes covered.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Copies all routes of `vnet` from `other` (same dimensions required).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn copy_vnet_from(&mut self, other: &RoutingTables, vnet: Vnet) {
        assert_eq!(
            (self.vnets, self.routers, self.nodes),
            (other.vnets, other.routers, other.nodes),
            "routing table dimensions must match"
        );
        let per_vnet = self.routers * self.nodes;
        let start = vnet.index() * per_vnet;
        Arc::make_mut(&mut self.table)[start..start + per_vnet]
            .copy_from_slice(&other.table[start..start + per_vnet]);
    }

    /// Whether two tables share the same backing storage (O(1) clone check;
    /// exposed for tests of the copy-on-write behaviour).
    pub fn shares_storage_with(&self, other: &RoutingTables) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// Iterates over all `(vnet, router, dst, port)` entries that have
    /// routes, row by row.
    pub fn iter(&self) -> impl Iterator<Item = (Vnet, RouterId, NodeId, PortId)> + '_ {
        let rows = self.table.chunks_exact(self.nodes.max(1));
        rows.enumerate().flat_map(move |(i, row)| {
            let vnet = Vnet((i / self.routers) as u8);
            let router = RouterId((i % self.routers) as u16);
            row.iter()
                .enumerate()
                .filter(|&(_, &p)| p != NO_ROUTE)
                .map(move |(n, &p)| (vnet, router, NodeId(n as u16), PortId(p)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_lookup_clear_roundtrip() {
        let mut t = RoutingTables::new(2, 4, 6);
        assert_eq!(t.lookup(Vnet(0), RouterId(1), NodeId(2)), None);
        t.set(Vnet(0), RouterId(1), NodeId(2), PortId(3));
        assert_eq!(t.lookup(Vnet(0), RouterId(1), NodeId(2)), Some(PortId(3)));
        // Other vnet unaffected.
        assert_eq!(t.lookup(Vnet(1), RouterId(1), NodeId(2)), None);
        t.clear(Vnet(0), RouterId(1), NodeId(2));
        assert_eq!(t.lookup(Vnet(0), RouterId(1), NodeId(2)), None);
    }

    #[test]
    fn entries_are_independent() {
        let mut t = RoutingTables::new(2, 3, 3);
        t.set(Vnet(0), RouterId(0), NodeId(0), PortId(0));
        t.set(Vnet(1), RouterId(2), NodeId(2), PortId(4));
        assert_eq!(t.lookup(Vnet(0), RouterId(0), NodeId(0)), Some(PortId(0)));
        assert_eq!(t.lookup(Vnet(1), RouterId(2), NodeId(2)), Some(PortId(4)));
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn rows_alias_the_entries_and_iter_walks_them_in_order() {
        let mut t = RoutingTables::new(2, 3, 4);
        t.row_mut(Vnet(1), RouterId(2))
            .copy_from_slice(&[4, NO_ROUTE, 0, 1]);
        t.set(Vnet(0), RouterId(1), NodeId(3), PortId(2));
        assert_eq!(t.row(Vnet(1), RouterId(2)), &[4, NO_ROUTE, 0, 1]);
        assert_eq!(
            t.row(Vnet(0), RouterId(1)),
            &[NO_ROUTE, NO_ROUTE, NO_ROUTE, 2]
        );
        assert_eq!(t.lookup(Vnet(1), RouterId(2), NodeId(1)), None);
        assert_eq!(t.lookup(Vnet(1), RouterId(2), NodeId(2)), Some(PortId(0)));
        let all: Vec<_> = t.iter().collect();
        assert_eq!(
            all,
            vec![
                (Vnet(0), RouterId(1), NodeId(3), PortId(2)),
                (Vnet(1), RouterId(2), NodeId(0), PortId(4)),
                (Vnet(1), RouterId(2), NodeId(2), PortId(0)),
                (Vnet(1), RouterId(2), NodeId(3), PortId(1)),
            ]
        );
        assert_eq!(RoutingTables::new(2, 3, 0).iter().count(), 0);
    }

    #[test]
    fn row_mut_copies_shared_storage_once() {
        let a = RoutingTables::new(1, 2, 2);
        let mut b = a.clone();
        b.row_mut(Vnet(0), RouterId(1))[0] = 3;
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a.lookup(Vnet(0), RouterId(1), NodeId(0)), None);
        assert_eq!(b.lookup(Vnet(0), RouterId(1), NodeId(0)), Some(PortId(3)));
    }

    #[test]
    fn copy_vnet_from_copies_only_that_vnet() {
        let mut a = RoutingTables::new(2, 2, 2);
        let mut b = RoutingTables::new(2, 2, 2);
        b.set(Vnet(0), RouterId(0), NodeId(1), PortId(1));
        b.set(Vnet(1), RouterId(1), NodeId(0), PortId(2));
        a.copy_vnet_from(&b, Vnet(1));
        assert_eq!(a.lookup(Vnet(1), RouterId(1), NodeId(0)), Some(PortId(2)));
        assert_eq!(a.lookup(Vnet(0), RouterId(0), NodeId(1)), None);
    }

    #[test]
    fn clone_is_shared_until_written() {
        let mut a = RoutingTables::new(2, 2, 2);
        a.set(Vnet(0), RouterId(0), NodeId(1), PortId(1));
        let b = a.clone();
        assert!(a.shares_storage_with(&b), "clone must be O(1) shared");
        let mut c = b.clone();
        c.set(Vnet(1), RouterId(1), NodeId(0), PortId(2));
        assert!(!c.shares_storage_with(&a), "write must copy");
        // The original is unaffected by the copy-on-write mutation.
        assert_eq!(a.lookup(Vnet(1), RouterId(1), NodeId(0)), None);
        assert_eq!(c.lookup(Vnet(0), RouterId(0), NodeId(1)), Some(PortId(1)));
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn copy_vnet_dimension_mismatch_panics() {
        let mut a = RoutingTables::new(2, 2, 2);
        let b = RoutingTables::new(2, 3, 2);
        a.copy_vnet_from(&b, Vnet(0));
    }
}
