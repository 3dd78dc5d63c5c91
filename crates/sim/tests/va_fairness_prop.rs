//! VC-allocation fairness under sustained hotspots: the round-robin
//! VA/SA arbiters must keep every persistently-requesting input VC
//! progressing — no source may starve while a contended output port is
//! being granted.
//!
//! This property guards the candidate-mask VA rewrite: the mask scan
//! changes *how* eligible VCs are found, but must not change *who* wins —
//! the round-robin pointers still rotate over the same grant order, so
//! per-port strong fairness is preserved.
//!
//! Two levels of guarantee are asserted, matching what the arbiters
//! actually promise:
//!
//! 1. **Per-port fairness** (tight bound): when the contenders meet at a
//!    *single* router — the hotspot's direct neighbors, one per input
//!    port — round-robin grants give every source a near-equal share.
//! 2. **No complete starvation** (floor only): when the whole mesh
//!    offers traffic, per-port RR shares compound multiplicatively along
//!    the merge tree (the parking-lot effect), so distant sources
//!    legitimately receive exponentially smaller shares; the arbiter
//!    still guarantees every queue drains. A fixed skew bound here would
//!    assert global max-min fairness that per-hop RR never promised.

mod common;

use adaptnoc_sim::prelude::*;
use common::mesh_spec;

const W: usize = 3;
const H: usize = 3;
const CYCLES: u64 = 6_000;
/// Offer a packet per source every this many cycles — above the
/// hotspot's single ejection port capacity, so the fabric saturates and
/// arbitration (not load) decides who progresses.
const INJECT_PERIOD: u64 = 4;

/// Runs a hotspot scenario with the given source set and returns
/// delivered packet counts per source node.
fn hotspot_deliveries(hotspot: u16, sources: &[u16], replies: bool) -> Vec<u64> {
    let spec = mesh_spec(W, H);
    let mut net = Network::new(spec, SimConfig::baseline()).expect("valid mesh spec");
    let mut delivered = vec![0u64; W * H];
    let mut id = 0u64;
    for cycle in 0..CYCLES {
        if cycle % INJECT_PERIOD == 0 {
            for &src in sources {
                id += 1;
                let pkt = if replies {
                    Packet::reply(id, NodeId(src), NodeId(hotspot), id)
                } else {
                    Packet::request(id, NodeId(src), NodeId(hotspot), id)
                };
                net.inject(pkt).expect("live source NI");
            }
        }
        net.step();
        for d in net.delivered() {
            delivered[d.packet.src.index()] += 1;
        }
        if cycle % 1_000 == 0 {
            let violations = net.check_invariants();
            assert!(violations.is_empty(), "invariants violated: {violations:?}");
        }
    }
    delivered
}

fn source_counts(delivered: &[u64], sources: &[u16]) -> (u64, u64, u64) {
    let counts: Vec<u64> = sources.iter().map(|&s| delivered[s as usize]).collect();
    let min = *counts.iter().min().expect("at least one source");
    let max = *counts.iter().max().expect("at least one source");
    (min, max, counts.iter().sum())
}

/// Direct neighbors of the center router, one per input port: the pure
/// single-router arbitration case where round-robin means near-equal
/// shares.
const CENTER: u16 = 4;
const NEIGHBORS: [u16; 4] = [1, 3, 5, 7];

#[test]
fn neighbor_hotspot_shares_are_near_equal() {
    let delivered = hotspot_deliveries(CENTER, &NEIGHBORS, false);
    let (min, max, total) = source_counts(&delivered, &NEIGHBORS);
    assert!(total > 1_000, "not saturating ({delivered:?})");
    assert!(
        min * 2 >= max,
        "single-router RR shares skewed beyond 2x (min {min}, max {max}, all {delivered:?})"
    );
}

#[test]
fn neighbor_hotspot_shares_are_near_equal_multiflit() {
    // Multi-flit replies hold their VC allocation across several cycles,
    // which is where an allocation-mask desync or an unfair grant order
    // would show up as a wedged or starved VC.
    let delivered = hotspot_deliveries(CENTER, &NEIGHBORS, true);
    let (min, max, total) = source_counts(&delivered, &NEIGHBORS);
    assert!(total > 300, "not saturating ({delivered:?})");
    assert!(
        min * 2 >= max,
        "single-router RR shares skewed beyond 2x (min {min}, max {max}, all {delivered:?})"
    );
}

#[test]
fn full_mesh_center_hotspot_starves_no_source() {
    let sources: Vec<u16> = (0..(W * H) as u16).filter(|&s| s != CENTER).collect();
    let delivered = hotspot_deliveries(CENTER, &sources, false);
    let (min, _, total) = source_counts(&delivered, &sources);
    assert!(total > 1_000, "not saturating ({delivered:?})");
    assert!(
        min * 50 > total,
        "a source fell below 2% of hotspot service — starved (deliveries {delivered:?})"
    );
}

#[test]
fn full_mesh_corner_hotspot_starves_no_source() {
    let hotspot = 0u16;
    let sources: Vec<u16> = (0..(W * H) as u16).filter(|&s| s != hotspot).collect();
    let delivered = hotspot_deliveries(hotspot, &sources, false);
    let (min, _, total) = source_counts(&delivered, &sources);
    assert!(total > 1_000, "not saturating ({delivered:?})");
    // The deepest merge chain (corner-to-corner) compounds several RR
    // halvings, so only a completeness floor is meaningful here.
    assert!(
        min > 0,
        "a source starved completely (deliveries {delivered:?})"
    );
}
