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

/// Handle of a destination-class map registered with
/// [`RoutingTables::class_map`]. Only meaningful for the table that issued
/// it and that table's clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassMap(u32);

/// The map of a fresh row: every destination in class 0.
const UNROUTED: ClassMap = ClassMap(0);
/// The map of a per-entry row: destination `d` in class `d`.
const IDENTITY: ClassMap = ClassMap(1);

/// One `(vnet, router)` row: its class map and where its port bytes start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    map: u32,
    start: u32,
}

/// The row every `(vnet, router)` of a fresh table shares: the all-class-0
/// map over the single [`NO_ROUTE`] byte at the head of the port arena.
const FRESH: Row = Row {
    map: UNROUTED.0,
    start: 0,
};

#[derive(Debug, Clone)]
struct Store {
    /// One per `(vnet, router)`, vnet-major.
    rows: Vec<Row>,
    /// The class maps back to back, `nodes` classes each.
    maps: Vec<u16>,
    /// Classes of each map, which is the port-byte count of a row on it.
    map_classes: Vec<u32>,
    /// FNV-1a of each map: registering an equal map finds it by hash.
    map_hash: Vec<u64>,
    /// The port bytes of all rows, one per class, rows back to back.
    /// Bytes of replaced rows stay behind: a row is rewritten at most a
    /// few times per build, so the arena is never compacted.
    ports: Vec<u8>,
}

/// Routing tables: `[vnet][router][destination node] -> output port`,
/// stored factored. A *row* — the per-destination port vector of one
/// `(vnet, router)` — is a reference to a *destination-class map* (one
/// `u16` class per node, shared by every row that partitions the
/// destinations the same way) plus one port byte per class:
///
/// ```text
/// port = ports[row.start + class_map[row.map][dst]]
/// ```
///
/// Bulk producers whose rows are a function of few numbers (a
/// dimension-ordered fill needs one class per column plus one per node of
/// the router's own column) commit whole rows with
/// [`RoutingTables::class_map`] + [`RoutingTables::merge_row`]. Per-entry writers ([`RoutingTables::set`], [`RoutingTables::clear`],
/// [`RoutingTables::row_mut`]) first move the touched row onto the
/// identity map — class `d` for destination `d`, i.e. one byte per
/// destination — so they pay for dense rows only where they write them.
/// Readers see entries, never the representation: [`PartialEq`] and
/// [`RoutingTables::iter`] agree for any two tables with the same
/// entries.
///
/// The backing storage is shared behind an [`Arc`], so cloning a table (or
/// a [`crate::spec::NetworkSpec`] that embeds one) is O(1); mutation uses
/// copy-on-write semantics and only copies when the storage is shared.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    vnets: usize,
    routers: usize,
    nodes: usize,
    store: Arc<Store>,
}

/// FNV-1a over the classes, four to a step.
fn map_hash(map: &[u16]) -> u64 {
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let quads = map.chunks_exact(4);
    let tail = quads.remainder().iter().fold(0, |w, &c| w << 16 | c as u64);
    let h = quads.fold(0xcbf2_9ce4_8422_2325, |h, q| {
        step(h, q.iter().fold(0, |w, &c| w << 16 | c as u64))
    });
    step(h, tail)
}

impl Store {
    fn map(&self, map: u32, nodes: usize) -> &[u16] {
        &self.maps[map as usize * nodes..][..nodes]
    }

    fn class_ports(&self, row: Row) -> &[u8] {
        &self.ports[row.start as usize..][..self.map_classes[row.map as usize] as usize]
    }

    /// Where the next row's port bytes will start.
    fn next_start(&self) -> u32 {
        u32::try_from(self.ports.len()).expect("routing port arena exceeds 4 GiB")
    }

    /// Moves row `i` onto the identity map (one byte per destination,
    /// owned by this row alone) unless it is there already; returns where
    /// its bytes start.
    fn promote(&mut self, i: usize, nodes: usize) -> usize {
        let row = self.rows[i];
        if row.map != IDENTITY.0 {
            let start = self.next_start();
            self.ports.reserve(nodes);
            for d in 0..nodes {
                let class = self.maps[row.map as usize * nodes + d];
                let port = self.ports[row.start as usize + class as usize];
                self.ports.push(port);
            }
            self.rows[i] = Row {
                map: IDENTITY.0,
                start,
            };
        }
        self.rows[i].start as usize
    }
}

impl RoutingTables {
    /// Creates tables with every entry unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the [`NodeId`] space.
    pub fn new(vnets: usize, routers: usize, nodes: usize) -> Self {
        assert!(nodes <= 1 << 16, "more nodes than node ids");
        let mut maps = vec![0; 2 * nodes];
        for (d, class) in maps[nodes..].iter_mut().enumerate() {
            *class = d as u16;
        }
        let store = Store {
            rows: vec![FRESH; vnets * routers],
            // One class each way round, unless there is no node to be in it.
            map_classes: vec![nodes.min(1) as u32, nodes as u32],
            map_hash: vec![map_hash(&maps[..nodes]), map_hash(&maps[nodes..])],
            maps,
            ports: vec![NO_ROUTE],
        };
        RoutingTables {
            vnets,
            routers,
            nodes,
            store: Arc::new(store),
        }
    }

    fn row_index(&self, vnet: Vnet, router: RouterId) -> usize {
        assert!(vnet.index() < self.vnets, "vnet out of range");
        assert!(router.index() < self.routers, "router out of range");
        vnet.index() * self.routers + router.index()
    }

    /// Registers a destination-class map — `map[d]` is the class of
    /// destination node `d` — for use with [`RoutingTables::merge_row`]. An
    /// equal map registered earlier is returned instead of stored again, so
    /// producers may register per row group without tracking what the
    /// table already holds.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not have one class per node.
    pub fn class_map(&mut self, map: &[u16]) -> ClassMap {
        assert_eq!(map.len(), self.nodes, "one class per destination node");
        let hash = map_hash(map);
        let known = (0..self.store.map_hash.len()).find(|&m| {
            self.store.map_hash[m] == hash && self.store.map(m as u32, self.nodes) == map
        });
        if let Some(m) = known {
            return ClassMap(m as u32);
        }
        let store = Arc::make_mut(&mut self.store);
        store.maps.extend_from_slice(map);
        store
            .map_classes
            .push(map.iter().max().map_or(0, |&c| c as u32 + 1));
        store.map_hash.push(hash);
        ClassMap(store.map_hash.len() as u32 - 1)
    }

    /// The bytes of `ports` the classes of `map` read.
    fn read_through<'p>(&self, map: ClassMap, ports: &'p [u8]) -> &'p [u8] {
        let classes = self.store.map_classes.get(map.0 as usize);
        let classes = *classes.expect("a class map of this table") as usize;
        assert!(classes <= ports.len(), "a port per class");
        &ports[..classes]
    }

    /// Replaces the whole row of `(vnet, router)`: destination `d` routes
    /// to `ports[map[d]]` ([`NO_ROUTE`] for none). `ports` holds a byte per
    /// class up to the highest in `map` (any beyond it are dropped); a
    /// class no destination is in may hold anything. Rows of one router on
    /// different vnets that are given the same map and bytes share them.
    ///
    /// # Panics
    ///
    /// Panics if `vnet` or `router` is out of range, `map` was not issued
    /// by this table, or `ports` is short of a class.
    pub(crate) fn set_row(&mut self, vnet: Vnet, router: RouterId, map: ClassMap, ports: &[u8]) {
        let i = self.row_index(vnet, router);
        let ports = self.read_through(map, ports);
        let store = Arc::make_mut(&mut self.store);
        // Rows on the identity map are written in place by the per-entry
        // writers, so each owns its bytes; any other row's are final.
        let mut rows_of_router =
            (0..self.vnets).map(|v| store.rows[v * self.routers + router.index()]);
        let twin = rows_of_router
            .find(|&row| row.map == map.0 && map != IDENTITY && store.class_ports(row) == ports);
        let start = match twin {
            Some(row) => row.start,
            None => {
                let start = store.next_start();
                store.ports.extend_from_slice(ports);
                start
            }
        };
        store.rows[i] = Row { map: map.0, start };
    }

    /// The port bytes of `(vnet, router)`, one per class of the row's map:
    /// a superset of the ports the row's entries hold (a class without
    /// destinations contributes a byte no entry reads).
    ///
    /// # Panics
    ///
    /// Panics if `vnet` or `router` is out of range.
    pub(crate) fn class_ports(&self, vnet: Vnet, router: RouterId) -> &[u8] {
        self.store
            .class_ports(self.store.rows[self.row_index(vnet, router)])
    }

    /// The entries of `(vnet, router)` in destination order, one byte per
    /// node: [`NO_ROUTE`] or the output port id.
    ///
    /// # Panics
    ///
    /// Panics if `vnet` or `router` is out of range.
    pub fn row(&self, vnet: Vnet, router: RouterId) -> impl Iterator<Item = u8> + '_ {
        self.row_at(self.row_index(vnet, router))
    }

    fn row_at(&self, i: usize) -> impl Iterator<Item = u8> + '_ {
        let row = self.store.rows[i];
        let ports = &self.store.ports[row.start as usize..];
        self.store
            .map(row.map, self.nodes)
            .iter()
            .map(move |&c| ports[c as usize])
    }

    /// Overlays a row onto `(vnet, router)`: every destination `d` whose
    /// `ports[map[d]]` is a port takes it, the others keep their entry —
    /// what a fill over a region does to the rows it shares with earlier
    /// fills. A row that routes nowhere yet takes `map` and `ports` as
    /// they are and stays factored.
    ///
    /// # Panics
    ///
    /// Panics if `vnet` or `router` is out of range, `map` was not issued
    /// by this table, or `ports` is short of a class.
    pub fn merge_row(&mut self, vnet: Vnet, router: RouterId, map: ClassMap, ports: &[u8]) {
        if self.is_unrouted(vnet, router) {
            return self.set_row(vnet, router, map, ports);
        }
        let i = self.row_index(vnet, router);
        let ports = self.read_through(map, ports);
        let store = Arc::make_mut(&mut self.store);
        let start = store.promote(i, self.nodes);
        let entries = &mut store.ports[start..][..self.nodes];
        let map = &store.maps[map.0 as usize * self.nodes..][..self.nodes];
        for (entry, &c) in entries.iter_mut().zip(map) {
            if ports[c as usize] != NO_ROUTE {
                *entry = ports[c as usize];
            }
        }
    }

    /// Whether `(vnet, router)` routes nowhere. Conservative on rows with
    /// unused classes: a port byte no destination reads counts as a route.
    fn is_unrouted(&self, vnet: Vnet, router: RouterId) -> bool {
        self.class_ports(vnet, router)
            .iter()
            .all(|&p| p == NO_ROUTE)
    }

    /// The writable row of `(vnet, router)`, one byte per destination.
    /// Un-shares the storage once per call (not per entry) and moves the
    /// row onto the identity map if it is not there yet.
    ///
    /// # Panics
    ///
    /// Panics if `vnet` or `router` is out of range.
    pub fn row_mut(&mut self, vnet: Vnet, router: RouterId) -> &mut [u8] {
        let i = self.row_index(vnet, router);
        let store = Arc::make_mut(&mut self.store);
        let start = store.promote(i, self.nodes);
        &mut store.ports[start..][..self.nodes]
    }

    /// Sets the output port at `router` for packets of `vnet` headed to `dst`.
    pub fn set(&mut self, vnet: Vnet, router: RouterId, dst: NodeId, port: PortId) {
        self.row_mut(vnet, router)[dst.index()] = port.0;
    }

    /// Clears the route (marks unreachable).
    pub fn clear(&mut self, vnet: Vnet, router: RouterId, dst: NodeId) {
        self.row_mut(vnet, router)[dst.index()] = NO_ROUTE;
    }

    /// Looks up the output port, or `None` if the destination is unreachable
    /// from this router on this vnet.
    pub fn lookup(&self, vnet: Vnet, router: RouterId, dst: NodeId) -> Option<PortId> {
        debug_assert!(vnet.index() < self.vnets, "vnet out of range");
        debug_assert!(router.index() < self.routers, "router out of range");
        debug_assert!(dst.index() < self.nodes, "node out of range");
        let store = &*self.store;
        let row = store.rows[vnet.index() * self.routers + router.index()];
        let class = store.maps[row.map as usize * self.nodes + dst.index()];
        let v = store.ports[row.start as usize + class as usize];
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

    /// Whether two tables share the same backing storage (O(1) clone check;
    /// exposed for tests of the copy-on-write behaviour).
    pub(crate) fn shares_storage_with(&self, other: &RoutingTables) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }

    /// Bytes the table holds on the heap: row references, class maps and
    /// port bytes (lengths in use, including port bytes of replaced rows).
    pub fn heap_bytes(&self) -> usize {
        let s = &*self.store;
        std::mem::size_of_val(&s.rows[..])
            + std::mem::size_of_val(&s.maps[..])
            + std::mem::size_of_val(&s.map_classes[..])
            + std::mem::size_of_val(&s.map_hash[..])
            + s.ports.len()
    }

    /// Number of rows stored one byte per destination (on the identity
    /// map): the rows some per-entry writer touched.
    pub fn dense_rows(&self) -> usize {
        let rows = self.store.rows.iter();
        rows.filter(|row| row.map == IDENTITY.0).count()
    }

    /// Iterates over all `(vnet, router, dst, port)` entries that have
    /// routes, row by row.
    pub fn iter(&self) -> impl Iterator<Item = (Vnet, RouterId, NodeId, PortId)> + '_ {
        (0..self.store.rows.len()).flat_map(move |i| {
            let vnet = Vnet((i / self.routers) as u8);
            let router = RouterId((i % self.routers) as u16);
            self.row_at(i)
                .enumerate()
                .filter(|&(_, p)| p != NO_ROUTE)
                .map(move |(n, p)| (vnet, router, NodeId(n as u16), PortId(p)))
        })
    }
}

/// Two tables are equal when they have the same shape and the same
/// entries, however either stores them.
impl PartialEq for RoutingTables {
    fn eq(&self, other: &Self) -> bool {
        (self.vnets, self.routers, self.nodes) == (other.vnets, other.routers, other.nodes)
            && (self.shares_storage_with(other)
                || (0..self.store.rows.len()).all(|i| self.row_at(i).eq(other.row_at(i))))
    }
}

impl Eq for RoutingTables {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

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
        let row = |v, r| t.row(Vnet(v), RouterId(r)).collect::<Vec<u8>>();
        assert_eq!(row(1, 2), [4, NO_ROUTE, 0, 1]);
        assert_eq!(row(0, 1), [NO_ROUTE, NO_ROUTE, NO_ROUTE, 2]);
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
    fn factored_rows_read_like_per_entry_rows() {
        let mut t = RoutingTables::new(2, 2, 5);
        // Class 0 = no route, 1 read by no destination, 2 and 3 in use.
        let map = t.class_map(&[2, 0, 3, 3, 2]);
        assert_eq!(t.class_map(&[2, 0, 3, 3, 2]), map, "equal maps are one");
        t.set_row(Vnet(0), RouterId(1), map, &[NO_ROUTE, 9, 4, 0]);
        // A byte beyond the highest class is nobody's.
        t.set_row(Vnet(1), RouterId(1), map, &[NO_ROUTE, 9, 4, 0, 7]);
        let row: Vec<u8> = t.row(Vnet(0), RouterId(1)).collect();
        assert_eq!(row, [4, NO_ROUTE, 0, 0, 4]);
        assert_eq!(t.class_ports(Vnet(1), RouterId(1)), [NO_ROUTE, 9, 4, 0]);
        assert!(t.is_unrouted(Vnet(0), RouterId(0)));
        assert!(!t.is_unrouted(Vnet(0), RouterId(1)));
        assert_eq!(t.dense_rows(), 0);

        let mut by_entry = RoutingTables::new(2, 2, 5);
        for v in 0..2 {
            for (d, p) in [(0, 4), (2, 0), (3, 0), (4, 4)] {
                by_entry.set(Vnet(v), RouterId(1), NodeId(d), PortId(p));
            }
        }
        assert_eq!(by_entry.dense_rows(), 2);
        assert_eq!(t, by_entry);
        assert!(t.iter().eq(by_entry.iter()));

        // A write to one vnet's row leaves its twin on the other alone.
        t.clear(Vnet(0), RouterId(1), NodeId(0));
        assert_eq!(t.lookup(Vnet(0), RouterId(1), NodeId(0)), None);
        assert_eq!(t.lookup(Vnet(1), RouterId(1), NodeId(0)), Some(PortId(4)));
        assert_eq!(t.dense_rows(), 1);
        assert_ne!(t, by_entry);
    }

    /// A table and the dense model it must read like.
    #[derive(Clone)]
    struct Pair {
        table: RoutingTables,
        model: Vec<u8>,
    }

    impl Pair {
        fn new(vnets: usize, routers: usize, nodes: usize) -> Self {
            Pair {
                table: RoutingTables::new(vnets, routers, nodes),
                model: vec![NO_ROUTE; vnets * routers * nodes],
            }
        }

        fn check(&self, name: &str) {
            let t = &self.table;
            let (vnets, routers, nodes) = (t.vnets(), t.routers(), t.nodes());
            assert_eq!(self.model.len(), vnets * routers * nodes, "{name}: shape");
            let mut routed = Vec::new();
            for v in 0..vnets {
                for r in 0..routers {
                    let (vnet, router) = (Vnet(v as u8), RouterId(r as u16));
                    let want = &self.model[(v * routers + r) * nodes..][..nodes];
                    let got: Vec<u8> = t.row(vnet, router).collect();
                    assert_eq!(got, want, "{name}: row {v}/{r}");
                    for (d, &p) in want.iter().enumerate() {
                        let dst = NodeId(d as u16);
                        let port = (p != NO_ROUTE).then_some(PortId(p));
                        assert_eq!(t.lookup(vnet, router, dst), port, "{name}: {v}/{r}/{d}");
                        routed.extend(port.map(|p| (vnet, router, dst, p)));
                        assert!(t.class_ports(vnet, router).contains(&p), "{name}");
                    }
                    let unrouted = want.iter().all(|&p| p == NO_ROUTE);
                    assert!(!t.is_unrouted(vnet, router) || unrouted, "{name}");
                }
            }
            assert!(t.iter().eq(routed), "{name}: iter");
        }
    }

    /// The tables against a dense `Vec<u8>` model under random factored
    /// commits (maps with unused classes, repeated maps, rows that end up
    /// sharing bytes), per-entry writes, row writes, clone-then-write and
    /// whole-table swaps: every reader agrees with the model after every
    /// step, and a table rebuilt entry by entry equals the factored one.
    #[test]
    fn random_edits_agree_with_a_dense_model() {
        let port = |rng: &mut Rng| match rng.random_below(4) {
            0 => NO_ROUTE,
            _ => rng.random_below(6) as u8,
        };
        for case in 0..40 {
            let mut rng = Rng::seed_from_u64(0x7AB1E5 ^ case);
            let vnets = rng.random_range(1, 3);
            let routers = rng.random_range(1, 6);
            let nodes = rng.random_range(1, 9);
            let mut live = Pair::new(vnets, routers, nodes);
            // The other table of a whole-table swap.
            let mut spare = Pair::new(vnets, routers, nodes);
            // Maps drawn so far: later commits register them again.
            let mut maps: Vec<Vec<u16>> = Vec::new();
            for step in 0..120 {
                let name = format!("case {case} step {step}");
                let (v, r) = (rng.random_below(vnets), rng.random_below(routers));
                let (vnet, router) = (Vnet(v as u8), RouterId(r as u16));
                let at = (v * routers + r) * nodes;
                let dst = rng.random_below(nodes);
                match rng.random_below(8) {
                    0 | 1 => {
                        if maps.is_empty() || rng.random_bool(0.4) {
                            // More classes than nodes leaves some unused.
                            let classes = rng.random_range(1, 12);
                            maps.push(
                                (0..nodes)
                                    .map(|_| rng.random_below(classes) as u16)
                                    .collect(),
                            );
                        }
                        let map = &maps[rng.random_below(maps.len())];
                        let classes = map.iter().max().map_or(0, |&c| c as usize + 1);
                        // Bytes beyond the highest class are not the row's.
                        let given = classes + rng.random_below(3);
                        let ports: Vec<u8> = (0..given).map(|_| port(&mut rng)).collect();
                        // Half the commits repeat on every vnet, which
                        // makes the rows share their bytes.
                        let everywhere = rng.random_bool(0.5);
                        // Replace the row, or overlay the routed classes.
                        let merge = rng.random_bool(0.3);
                        for w in (0..vnets).filter(|&w| w == v || everywhere) {
                            let id = live.table.class_map(map);
                            if merge {
                                live.table.merge_row(Vnet(w as u8), router, id, &ports);
                            } else {
                                live.table.set_row(Vnet(w as u8), router, id, &ports);
                            }
                            let at = (w * routers + r) * nodes;
                            for (d, &c) in map.iter().enumerate() {
                                if !merge || ports[c as usize] != NO_ROUTE {
                                    live.model[at + d] = ports[c as usize];
                                }
                            }
                        }
                    }
                    2 | 3 => {
                        let p = rng.random_below(6) as u8;
                        live.table.set(vnet, router, NodeId(dst as u16), PortId(p));
                        live.model[at + dst] = p;
                    }
                    4 => {
                        live.table.clear(vnet, router, NodeId(dst as u16));
                        live.model[at + dst] = NO_ROUTE;
                    }
                    5 => {
                        let row = live.table.row_mut(vnet, router);
                        for (d, byte) in row.iter_mut().enumerate() {
                            if rng.random_bool(0.5) {
                                *byte = port(&mut rng);
                                live.model[at + d] = *byte;
                            }
                        }
                    }
                    6 => {
                        // Clone, then write to the clone only.
                        spare = live.clone();
                        assert!(spare.table.shares_storage_with(&live.table), "{name}");
                        spare.table.set(vnet, router, NodeId(dst as u16), PortId(7));
                        spare.model[at + dst] = 7;
                        assert!(!spare.table.shares_storage_with(&live.table), "{name}");
                        spare.check(&format!("{name} (clone)"));
                    }
                    _ => std::mem::swap(&mut live, &mut spare),
                }
                live.check(&name);
                assert_eq!(
                    live.table == spare.table,
                    live.model == spare.model,
                    "{name}: == is entry equality"
                );
            }
            // The same entries written one by one: equal, all rows dense.
            let mut by_entry = RoutingTables::new(vnets, routers, nodes);
            for (vnet, router, dst, p) in live.table.iter() {
                by_entry.set(vnet, router, dst, p);
            }
            assert_eq!(by_entry, live.table, "case {case}");
            assert!(by_entry.iter().eq(live.table.iter()), "case {case}");
        }
    }
}
