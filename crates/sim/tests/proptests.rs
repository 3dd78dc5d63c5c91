//! Randomized property tests for the simulator core invariants:
//! packet conservation, payload integrity, drain-to-empty, and
//! determinism, over seeded row networks and traffic loads.
//!
//! Cases are generated from the in-tree deterministic PRNG so every CI
//! run exercises exactly the same inputs (reproducible failures, no
//! registry dependencies).

use adaptnoc_sim::prelude::*;
use adaptnoc_sim::rng::Rng;

/// Builds a bidirectional 1xN row with one node per router and XY-trivial
/// routing tables.
fn row_spec(n: usize) -> NetworkSpec {
    let mut s = NetworkSpec::new(n, n, 2);
    for i in 0..n - 1 {
        let east = PortRef::new(RouterId(i as u16), PortId(0));
        let west = PortRef::new(RouterId(i as u16 + 1), PortId(1));
        s.add_channel(mesh_channel(east, west));
        s.add_channel(mesh_channel(west, east));
    }
    for i in 0..n {
        s.add_ni(NiSpec::local(
            NodeId(i as u16),
            RouterId(i as u16),
            LOCAL_PORT,
        ));
    }
    for v in 0..2u8 {
        for r in 0..n {
            for d in 0..n {
                let port = if d == r {
                    LOCAL_PORT
                } else if d > r {
                    PortId(0)
                } else {
                    PortId(1)
                };
                s.tables
                    .set(Vnet(v), RouterId(r as u16), NodeId(d as u16), port);
            }
        }
    }
    s
}

/// A randomly generated traffic plan: (inject_cycle, src, dst, reply?).
fn random_plan(rng: &mut Rng, n: usize, max_pkts: usize) -> Vec<(u64, u16, u16, bool)> {
    let count = rng.random_range(1, max_pkts);
    (0..count)
        .map(|_| {
            (
                rng.random_below(200) as u64,
                rng.random_below(n) as u16,
                rng.random_below(n) as u16,
                rng.random_bool(0.5),
            )
        })
        .collect()
}

/// Every injected packet is delivered exactly once, payload intact, and
/// the network drains to empty.
#[test]
fn packet_conservation() {
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    for _case in 0..64 {
        let n = rng.random_range(2, 7);
        let mut plan = random_plan(&mut rng, n, 60);
        let mut net = Network::new(row_spec(n), SimConfig::baseline()).unwrap();
        plan.sort_by_key(|p| p.0);
        let mut expected: Vec<(u64, u16, u16)> = Vec::new();
        let mut next = 0usize;
        let mut id = 0u64;
        let mut got = Vec::new();
        for cycle in 0..10_000u64 {
            while next < plan.len() && plan[next].0 <= cycle {
                let (_, src, dst, reply) = plan[next];
                id += 1;
                let pkt = if reply {
                    Packet::reply(id, NodeId(src), NodeId(dst), id * 3)
                } else {
                    Packet::request(id, NodeId(src), NodeId(dst), id * 3)
                };
                expected.push((id, src, dst));
                net.inject(pkt).unwrap();
                next += 1;
            }
            net.step();
            got.extend_from_slice(net.delivered());
            if next == plan.len() && net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "network failed to drain");
        got.sort_by_key(|d| d.packet.id);
        assert_eq!(got.len(), expected.len());
        for (d, (id, src, dst)) in got.iter().zip(expected.iter()) {
            assert_eq!(d.packet.id, *id);
            assert_eq!(d.packet.src, NodeId(*src));
            assert_eq!(d.packet.dst, NodeId(*dst));
            assert_eq!(d.packet.tag, id * 3);
            assert!(d.ejected_at >= d.injected_at);
            assert!(d.injected_at >= d.packet.created_at);
        }
        assert_eq!(net.unroutable_events(), 0);
    }
}

/// Hop counts equal the source-destination distance in a row (minimal
/// routing, no livelock detours).
#[test]
fn hops_equal_manhattan_distance() {
    let mut rng = Rng::seed_from_u64(0xD15C0);
    for _case in 0..64 {
        let n = rng.random_range(2, 7);
        let src = rng.random_below(n) as u16;
        let dst = rng.random_below(n) as u16;
        let mut net = Network::new(row_spec(n), SimConfig::baseline()).unwrap();
        net.inject(Packet::request(1, NodeId(src), NodeId(dst), 0))
            .unwrap();
        let mut d = Vec::new();
        for _ in 0..200 {
            net.step();
            d.extend_from_slice(net.delivered());
        }
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].hops as i32, (src as i32 - dst as i32).abs());
    }
}

/// The simulator is deterministic: the same plan yields identical
/// delivery timings.
#[test]
fn determinism() {
    let mut rng = Rng::seed_from_u64(0xDE7E12);
    for _case in 0..16 {
        let plan = random_plan(&mut rng, 4, 40);
        let run = |plan: &[(u64, u16, u16, bool)]| {
            let mut net = Network::new(row_spec(4), SimConfig::baseline()).unwrap();
            let mut plan = plan.to_vec();
            plan.sort_by_key(|p| p.0);
            let mut next = 0;
            let mut id = 0u64;
            let mut d = Vec::new();
            for cycle in 0..5000u64 {
                while next < plan.len() && plan[next].0 <= cycle {
                    let (_, src, dst, reply) = plan[next];
                    id += 1;
                    let pkt = if reply {
                        Packet::reply(id, NodeId(src), NodeId(dst), 0)
                    } else {
                        Packet::request(id, NodeId(src), NodeId(dst), 0)
                    };
                    net.inject(pkt).unwrap();
                    next += 1;
                }
                net.step();
                d.extend_from_slice(net.delivered());
            }
            d.sort_by_key(|x| x.packet.id);
            d.iter()
                .map(|x| (x.packet.id, x.injected_at, x.ejected_at, x.hops))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&plan), run(&plan));
    }
}

/// Event counters are consistent: buffer reads never exceed writes, and
/// every ejected flit was once injected.
#[test]
fn event_counter_sanity() {
    let mut rng = Rng::seed_from_u64(0xE7E27);
    for _case in 0..32 {
        let plan = random_plan(&mut rng, 5, 50);
        let mut net = Network::new(row_spec(5), SimConfig::baseline()).unwrap();
        let mut id = 0u64;
        for (_, src, dst, reply) in plan {
            id += 1;
            let pkt = if reply {
                Packet::reply(id, NodeId(src), NodeId(dst), 0)
            } else {
                Packet::request(id, NodeId(src), NodeId(dst), 0)
            };
            net.inject(pkt).unwrap();
        }
        net.run(8000);
        assert_eq!(net.in_flight(), 0);
        let ev = net.totals().events;
        assert!(ev.buffer_reads <= ev.buffer_writes);
        assert_eq!(
            ev.buffer_reads, ev.buffer_writes,
            "drained network read all writes"
        );
        assert_eq!(ev.crossbar_traversals, ev.sa_grants);
        assert!(ev.ni_ejections <= ev.ni_injections + ev.link_flit_hops);
        assert_eq!(ev.ni_injections, ev.ni_ejections, "all flits ejected");
    }
}
