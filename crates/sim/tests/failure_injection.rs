//! Failure-injection tests: the simulator must degrade predictably — never
//! silently — under stalled routers, paused NIs, missing routes, and
//! aggressive power gating.

use adaptnoc_sim::prelude::*;

/// Bidirectional 1xN row helper (same as the unit-test topology).
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

#[test]
fn permanently_stalled_router_holds_but_never_drops() {
    let mut net = Network::new(row_spec(4), SimConfig::baseline()).unwrap();
    net.begin_router_config(RouterId(1), u32::MAX as u64);
    for i in 0..10 {
        net.inject(Packet::request(i, NodeId(0), NodeId(3), 0))
            .unwrap();
    }
    net.run(5_000);
    // Nothing delivered, nothing lost: all flits are somewhere.
    assert_eq!(net.totals().stats.packets, 0);
    assert_eq!(net.in_flight(), 10);
}

#[test]
fn stall_release_recovers_all_traffic() {
    let mut net = Network::new(row_spec(4), SimConfig::baseline()).unwrap();
    net.begin_router_config(RouterId(1), 2_000);
    for i in 0..10 {
        net.inject(Packet::reply(i, NodeId(0), NodeId(3), 0))
            .unwrap();
    }
    net.run(1_000);
    assert_eq!(net.totals().stats.packets, 0);
    net.run(3_000);
    assert_eq!(net.totals().stats.packets, 10);
    assert_eq!(net.in_flight(), 0);
}

#[test]
fn paused_ni_queues_forever_and_resumes_cleanly() {
    let mut net = Network::new(row_spec(3), SimConfig::baseline()).unwrap();
    net.set_ni_paused(NodeId(0), true);
    for i in 0..25 {
        net.inject(Packet::request(i, NodeId(0), NodeId(2), 0))
            .unwrap();
    }
    net.run(2_000);
    assert_eq!(net.ni_queue_len(NodeId(0)), 25);
    assert_eq!(net.totals().stats.packets, 0);
    net.set_ni_paused(NodeId(0), false);
    net.run(2_000);
    assert_eq!(net.totals().stats.packets, 25);
}

#[test]
fn missing_route_counts_unroutable_but_other_traffic_flows() {
    let mut spec = row_spec(4);
    spec.tables.clear(Vnet::REQUEST, RouterId(0), NodeId(3));
    let mut net = Network::new(spec, SimConfig::baseline()).unwrap();
    net.inject(Packet::request(1, NodeId(0), NodeId(3), 0))
        .unwrap();
    net.inject(Packet::request(2, NodeId(0), NodeId(2), 0))
        .unwrap();
    let mut d = Vec::new();
    for _ in 0..200 {
        net.step();
        d.extend_from_slice(net.delivered());
    }
    assert_eq!(d.len(), 1, "routable packet still flows");
    assert_eq!(d[0].packet.id, 2);
    assert!(net.unroutable_events() > 0, "stranded packet is visible");
}

#[test]
fn sleep_wake_storm_is_lossless() {
    // Aggressively gate and wake routers while traffic runs.
    let mut net = Network::new(row_spec(5), SimConfig::baseline()).unwrap();
    let mut id = 0u64;
    for cycle in 0..20_000u64 {
        if cycle % 17 == 0 {
            id += 1;
            let s = NodeId((cycle % 5) as u16);
            let d = NodeId(((cycle + 2) % 5) as u16);
            if s != d {
                net.inject(Packet::request(id, s, d, 0)).unwrap();
            } else {
                id -= 1;
            }
        }
        if cycle % 31 == 0 {
            for r in 0..5u16 {
                let _ = net.try_sleep_router(RouterId(r));
            }
        }
        if cycle % 97 == 0 {
            for r in 0..5u16 {
                net.wake_router(RouterId(r));
            }
        }
        net.step();
    }
    let mut guard = 0;
    while net.in_flight() > 0 && guard < 50_000 {
        net.step();
        guard += 1;
    }
    assert_eq!(net.in_flight(), 0);
    assert_eq!(net.totals().stats.packets, id);
}

#[test]
fn reconfigure_error_paths_leave_network_usable() {
    let mut net = Network::new(row_spec(4), SimConfig::baseline()).unwrap();
    // Shape-change rejection.
    assert!(net.reconfigure(row_spec(5)).is_err());
    // Invalid spec rejection.
    let mut bad = row_spec(4);
    bad.nis.pop();
    assert!(net.reconfigure(bad).is_err());
    // The network still works after rejected reconfigurations.
    net.inject(Packet::request(1, NodeId(0), NodeId(3), 0))
        .unwrap();
    net.run(100);
    assert_eq!(net.totals().stats.packets, 1);
}

#[test]
fn vc_mask_flapping_is_lossless() {
    let mut net = Network::new(row_spec(4), SimConfig::baseline()).unwrap();
    let mut id = 0u64;
    for cycle in 0..5_000u64 {
        if cycle % 11 == 0 {
            id += 1;
            net.inject(Packet::reply(id, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        if cycle % 50 == 0 {
            let mask = if (cycle / 50) % 2 == 0 { 0b001 } else { 0b111 };
            for r in 0..4u16 {
                net.set_vc_mask(RouterId(r), Vnet::REPLY, mask);
            }
        }
        net.step();
    }
    while net.in_flight() > 0 {
        net.step();
    }
    assert_eq!(net.totals().stats.packets, id);
}

#[test]
fn tracer_records_full_packet_journey() {
    use adaptnoc_sim::trace::{TraceBuffer, TraceFilter};
    let mut net = Network::new(row_spec(4), SimConfig::baseline()).unwrap();
    net.set_tracer(Some(TraceBuffer::new(64, TraceFilter::Packet(42))));
    net.inject(Packet::request(42, NodeId(0), NodeId(3), 0))
        .unwrap();
    net.inject(Packet::request(43, NodeId(1), NodeId(2), 0))
        .unwrap();
    net.run(100);
    let t = net.tracer().unwrap();
    // Inject + 4 router forwards (3 hops + final ejection SA) + eject.
    let events = t.packet_events(42);
    assert!(events.len() >= 5, "got {} events", events.len());
    assert!(t.packet_events(43).is_empty(), "filtered packet traced");
    let s = t.format_packet(42);
    assert!(s.contains("inject N0 -> N3"));
    assert!(s.contains("eject after 3 hops"));
}
