//! Shared test harness: parametric meshes and hand-built specs, a
//! scripted disturbance language (traffic, power gating, faults, purges,
//! VC masks, configuration stalls), a deterministic script runner that
//! records every observable output, and the naive reference simulator
//! ([`oracle`]).
//!
//! Used by `oracle_equivalence` (the stepping kernel vs the oracle, cycle
//! for cycle) and `telemetry_equivalence` (telemetry attached vs absent).

#![allow(dead_code)] // each consumer uses a subset of the harness

pub mod oracle;

use adaptnoc_sim::prelude::*;

/// Builds a W x H mesh with one node per router and XY routing.
/// Ports: 0 = east, 1 = west, 2 = north (y+1), 3 = south.
pub fn mesh_spec(w: usize, h: usize) -> NetworkSpec {
    let homes: Vec<usize> = (0..w * h).collect();
    mesh_spec_homes(w, h, &homes)
}

/// A W x H XY-routed mesh where node `i` attaches to the local port of
/// router `homes[i]`; a node sharing a router with a lower-numbered one
/// arrives over a one-tile concentration link (external concentration:
/// several NIs on one injection port).
pub fn mesh_spec_homes(w: usize, h: usize, homes: &[usize]) -> NetworkSpec {
    let n = w * h;
    let mut s = NetworkSpec::new(n, homes.len(), 2);
    let rid = |x: usize, y: usize| RouterId((y * w + x) as u16);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                let e = PortRef::new(rid(x, y), PortId(0));
                let wp = PortRef::new(rid(x + 1, y), PortId(1));
                s.add_channel(mesh_channel(e, wp));
                s.add_channel(mesh_channel(wp, e));
            }
            if y + 1 < h {
                let np = PortRef::new(rid(x, y), PortId(2));
                let sp = PortRef::new(rid(x, y + 1), PortId(3));
                let mut up = mesh_channel(np, sp);
                let mut down = mesh_channel(sp, np);
                up.dim_y = true;
                down.dim_y = true;
                s.add_channel(up);
                s.add_channel(down);
            }
        }
    }
    for (i, &home) in homes.iter().enumerate() {
        let (node, router) = (NodeId(i as u16), RouterId(home as u16));
        s.add_ni(if homes[..i].contains(&home) {
            NiSpec::concentrated(node, router, LOCAL_PORT, 1.0)
        } else {
            NiSpec::local(node, router, LOCAL_PORT)
        });
    }
    for v in 0..2u8 {
        for r in 0..n {
            let (rx, ry) = (r % w, r / w);
            for (d, &home) in homes.iter().enumerate() {
                let (dx, dy) = (home % w, home / w);
                let port = if home == r {
                    LOCAL_PORT
                } else if dx > rx {
                    PortId(0)
                } else if dx < rx {
                    PortId(1)
                } else if dy > ry {
                    PortId(2)
                } else {
                    PortId(3)
                };
                s.tables
                    .set(Vnet(v), RouterId(r as u16), NodeId(d as u16), port);
            }
        }
    }
    s
}

/// The same mesh as [`mesh_spec`] with YX routing tables (Y first, then
/// X): a valid, deadlock-free alternative routing function used as a
/// mid-run reconfiguration target that changes behaviour without touching
/// the channel set.
pub fn mesh_spec_yx(w: usize, h: usize) -> NetworkSpec {
    let mut s = mesh_spec(w, h);
    for v in 0..2u8 {
        for r in 0..w * h {
            let (rx, ry) = (r % w, r / w);
            for d in 0..w * h {
                let (dx, dy) = (d % w, d / w);
                let port = if d == r {
                    LOCAL_PORT
                } else if dy > ry {
                    PortId(2)
                } else if dy < ry {
                    PortId(3)
                } else if dx > rx {
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

/// [`mesh_spec`] with every Y channel two cycles (and 2 mm) long.
pub fn mesh_spec_slow_y(w: usize, h: usize) -> NetworkSpec {
    let mut s = mesh_spec(w, h);
    for c in s.channels.iter_mut().filter(|c| c.dim_y) {
        c.latency = 2;
        c.length_mm = 2.0;
    }
    s
}

/// A bidirectional 4-router ring, one node per router, shortest-way
/// routing (ties go east). Port 0 sends east and receives from the west
/// ring, port 1 the reverse. Both wrap-around channels are datelines, and
/// every router splits its VCs between the two dateline classes: at VC 1
/// on routers 0 and 1, at VC 2 on routers 2 and 3 (needs 3 VCs per vnet).
pub fn ring_spec() -> NetworkSpec {
    const N: usize = 4;
    let mut s = NetworkSpec::new(N, N, 2);
    for r in 0..N {
        let next = (r + 1) % N;
        let a = PortRef::new(RouterId(r as u16), PortId(0));
        let b = PortRef::new(RouterId(next as u16), PortId(1));
        let mut east = mesh_channel(a, b);
        let mut west = mesh_channel(b, a);
        east.dateline = next == 0;
        west.dateline = next == 0;
        s.add_channel(east);
        s.add_channel(west);
        s.routers[r].vc_split = Some(if r < 2 { 1 } else { 2 });
        s.add_ni(NiSpec::local(
            NodeId(r as u16),
            RouterId(r as u16),
            LOCAL_PORT,
        ));
    }
    for v in 0..2u8 {
        for r in 0..N {
            for d in 0..N {
                let port = match (d + N - r) % N {
                    0 => LOCAL_PORT,
                    1 | 2 => PortId(0),
                    _ => PortId(1),
                };
                s.tables
                    .set(Vnet(v), RouterId(r as u16), NodeId(d as u16), port);
            }
        }
    }
    s
}

/// An 8x8-node flattened butterfly: a 4x4 grid of radix-10 hubs, each
/// linked straight to the three other hubs of its row (ports 0..3) and of
/// its column (ports 3..6), with its four nodes on local ports 6..10. A
/// link spanning `d` hubs takes `d` cycles and `d` mm. XY routing: along
/// the row first, then the column. Under `SimConfig::flattened_butterfly()`
/// (8 VCs a port) a hub has 80 (port, VC) pairs, more than a machine word
/// holds.
pub fn ftby_hub_spec() -> NetworkSpec {
    const K: usize = 4; // hubs per side
    const C: usize = 4; // nodes per hub
    let mut s = NetworkSpec::new(K * K, K * K * C, 2);
    for r in s.routers.iter_mut() {
        r.n_ports = 10;
    }
    let rid = |x: usize, y: usize| RouterId((y * K + x) as u16);
    // The port at coordinate `a` of a dimension whose ports start at
    // `base` that leads to coordinate `b`.
    let port = |base: usize, a: usize, b: usize| PortId((base + b - usize::from(b > a)) as u8);
    for y in 0..K {
        for x in 0..K {
            for o in (0..K).filter(|&o| o != x) {
                let a = PortRef::new(rid(x, y), port(0, x, o));
                let b = PortRef::new(rid(o, y), port(0, o, x));
                let mut c = mesh_channel(a, b);
                c.latency = x.abs_diff(o) as u8;
                c.length_mm = c.latency as f32;
                s.add_channel(c);
            }
            for o in (0..K).filter(|&o| o != y) {
                let a = PortRef::new(rid(x, y), port(3, y, o));
                let b = PortRef::new(rid(x, o), port(3, o, y));
                let mut c = mesh_channel(a, b);
                c.latency = y.abs_diff(o) as u8;
                c.length_mm = c.latency as f32;
                c.dim_y = true;
                s.add_channel(c);
            }
        }
    }
    let local = |n: usize| PortId((6 + n % C) as u8);
    for n in 0..K * K * C {
        s.add_ni(NiSpec::local(
            NodeId(n as u16),
            RouterId((n / C) as u16),
            local(n),
        ));
    }
    for v in 0..2u8 {
        for r in 0..K * K {
            let (rx, ry) = (r % K, r / K);
            for d in 0..K * K * C {
                let (dx, dy) = ((d / C) % K, (d / C) / K);
                let out = if (dx, dy) == (rx, ry) {
                    local(d)
                } else if dx != rx {
                    port(0, rx, dx)
                } else {
                    port(3, ry, dy)
                };
                s.tables
                    .set(Vnet(v), RouterId(r as u16), NodeId(d as u16), out);
            }
        }
    }
    s
}

/// Scripted disturbances applied identically to the compared networks.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// Inject a request (or reply) packet.
    Inject { src: u16, dst: u16, reply: bool },
    /// Attempt to power-gate a router.
    TrySleep(u16),
    /// Wake a gated router.
    Wake(u16),
    /// Fault or heal a channel by spec index.
    ChannelFault { index: usize, faulted: bool },
    /// Permanently fail a router.
    FailRouter(u16),
    /// Reap blocked packets.
    PurgeBlocked,
    /// Restrict a router's usable VCs of one vnet (OSCAR).
    VcMask { router: u16, vnet: u8, mask: u8 },
    /// Stall a router for a `T_s` configuration window.
    ConfigStall { router: u16, cycles: u64 },
}

/// Generates a seeded disturbance script over `spec`'s nodes, routers and
/// channels; `with_faults` adds channel faults, a router failure, and
/// purges.
pub fn random_script(rng: &mut Rng, spec: &NetworkSpec, with_faults: bool) -> Vec<(u64, Action)> {
    let (n, routers, channels) = (spec.num_nodes, spec.routers.len(), spec.channels.len());
    let mut script = Vec::new();
    for _ in 0..rng.random_range(40, 120) {
        let cycle = rng.random_below(600) as u64;
        script.push((
            cycle,
            Action::Inject {
                src: rng.random_below(n) as u16,
                dst: rng.random_below(n) as u16,
                reply: rng.random_bool(0.5),
            },
        ));
    }
    for _ in 0..rng.random_range(2, 8) {
        let r = rng.random_below(routers) as u16;
        let cycle = rng.random_below(700) as u64;
        script.push((cycle, Action::TrySleep(r)));
        script.push((cycle + rng.random_range(5, 120) as u64, Action::Wake(r)));
    }
    if with_faults {
        for _ in 0..rng.random_range(1, 4) {
            let index = rng.random_below(channels);
            let cycle = rng.random_range(100, 500) as u64;
            script.push((
                cycle,
                Action::ChannelFault {
                    index,
                    faulted: true,
                },
            ));
            if rng.random_bool(0.5) {
                script.push((
                    cycle + rng.random_range(20, 200) as u64,
                    Action::ChannelFault {
                        index,
                        faulted: false,
                    },
                ));
            }
        }
        if rng.random_bool(0.5) {
            script.push((
                rng.random_range(200, 500) as u64,
                Action::FailRouter(rng.random_below(routers) as u16),
            ));
        }
        for _ in 0..2 {
            script.push((rng.random_range(400, 900) as u64, Action::PurgeBlocked));
        }
    }
    script.sort_by_key(|(c, _)| *c);
    script
}

/// The observable history of a scripted run: delivered packets, the
/// aggregate report, the full trace, and the final in-flight count.
pub type ScriptHistory = (Vec<Delivered>, EpochReport, Vec<TraceEvent>, u64);

/// Runs the script on one network.
pub fn run_script(mut net: Network, script: &[(u64, Action)], cycles: u64) -> ScriptHistory {
    net.set_tracer(Some(TraceBuffer::all(1 << 16)));
    let keys: Vec<ChannelKey> = net.spec().channels.iter().map(|c| c.key()).collect();
    let mut delivered = Vec::new();
    let mut next = 0usize;
    let mut id = 0u64;
    for cycle in 0..cycles {
        while next < script.len() && script[next].0 <= cycle {
            match script[next].1 {
                Action::Inject { src, dst, reply } => {
                    id += 1;
                    let pkt = if reply {
                        Packet::reply(id, NodeId(src), NodeId(dst), id)
                    } else {
                        Packet::request(id, NodeId(src), NodeId(dst), id)
                    };
                    // Injection may be rejected (e.g. failed source
                    // router); both configurations must reject
                    // identically, which the delivered/stats comparison
                    // catches.
                    let _ = net.inject(pkt);
                }
                Action::TrySleep(r) => {
                    let _ = net.try_sleep_router(RouterId(r));
                }
                Action::Wake(r) => net.wake_router(RouterId(r)),
                Action::ChannelFault { index, faulted } => {
                    let _ = net.set_channel_fault(keys[index], faulted);
                }
                Action::FailRouter(r) => {
                    let _ = net.fail_router(RouterId(r));
                }
                Action::PurgeBlocked => {
                    let _ = net.purge_blocked();
                }
                Action::VcMask { router, vnet, mask } => {
                    net.set_vc_mask(RouterId(router), Vnet(vnet), mask);
                }
                Action::ConfigStall { router, cycles } => {
                    net.begin_router_config(RouterId(router), cycles);
                }
            }
            next += 1;
        }
        net.step();
        assert_eq!(
            net.in_flight(),
            net.in_flight_recount(),
            "incremental in-flight counter diverged from recount"
        );
        delivered.extend_from_slice(net.delivered());
    }
    let events: Vec<TraceEvent> = net
        .tracer()
        .expect("tracer installed")
        .events()
        .cloned()
        .collect();
    let in_flight = net.in_flight();
    (delivered, net.totals(), events, in_flight)
}
