//! Property tests for the runtime health guards.
//!
//! Two directions: (1) under seeded random chaos — traffic, power gating,
//! channel faults, router failures, purges, and mid-flight
//! reconfigurations — strict invariant checking never fires, i.e. the
//! guards have no false positives on legal executions; (2) a deliberately
//! corrupted network (an injected credit leak) must trip the guard, i.e.
//! the checks actually have teeth.
//!
//! Cases come from the in-tree seeded PRNG so every run exercises the
//! same inputs.

use adaptnoc_sim::prelude::*;
use adaptnoc_sim::rng::Rng;

/// Builds a W x H mesh with one node per router and XY routing.
/// Ports: 0 = east, 1 = west, 2 = north (y+1), 3 = south.
fn mesh_spec(w: usize, h: usize) -> NetworkSpec {
    let n = w * h;
    let mut s = NetworkSpec::new(n, n, 2);
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
    for i in 0..n {
        s.add_ni(NiSpec::local(
            NodeId(i as u16),
            RouterId(i as u16),
            LOCAL_PORT,
        ));
    }
    for v in 0..2u8 {
        for r in 0..n {
            let (rx, ry) = (r % w, r / w);
            for d in 0..n {
                let (dx, dy) = (d % w, d / w);
                let port = if d == r {
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

/// One seeded chaos run with strict guards: every invariant family is
/// checked every cycle, and any violation panics the test.
fn chaos_run(seed: u64) {
    let (w, h) = (4usize, 4usize);
    let spec = mesh_spec(w, h);
    let keys: Vec<ChannelKey> = spec.channels.iter().map(|c| c.key()).collect();
    let mut net = Network::new(spec, SimConfig::baseline()).unwrap();
    net.set_guard_mode(GuardMode::Strict);
    let mut rng = Rng::seed_from_u64(seed);
    let n = w * h;

    let mut next_id = 1u64;
    let mut failed: Vec<u16> = Vec::new();
    for cycle in 0..1_500u64 {
        // Traffic: a burst of random flows most cycles early on.
        if cycle < 700 && rng.random_bool(0.7) {
            for _ in 0..rng.random_range(1, 4) {
                let src = rng.random_below(n) as u16;
                let dst = rng.random_below(n) as u16;
                if failed.contains(&src) || failed.contains(&dst) {
                    continue;
                }
                net.inject(Packet::request(next_id, NodeId(src), NodeId(dst), 0))
                    .unwrap();
                next_id += 1;
            }
        }
        // Power gating: opportunistic sleeps and wakes.
        if rng.random_bool(0.05) {
            let r = rng.random_below(n) as u16;
            net.try_sleep_router(RouterId(r));
        }
        if rng.random_bool(0.05) {
            let r = rng.random_below(n) as u16;
            if !failed.contains(&r) {
                net.wake_router(RouterId(r));
            }
        }
        // Transient channel faults; purged packets go back in as retries.
        if rng.random_bool(0.02) {
            let key = keys[rng.random_below(keys.len())];
            let purged = net.set_channel_fault(key, true).unwrap();
            for p in purged {
                if !failed.contains(&p.src.0) && !failed.contains(&p.dst.0) {
                    net.inject_retry(p, 1).unwrap();
                }
            }
        }
        if rng.random_bool(0.02) {
            let key = keys[rng.random_below(keys.len())];
            net.set_channel_fault(key, false).unwrap();
        }
        // A rare permanent router failure (at most one per run keeps the
        // mesh connected enough for traffic to keep flowing).
        if failed.is_empty() && cycle > 300 && rng.random_bool(0.002) {
            let r = rng.random_below(n) as u16;
            net.fail_router(RouterId(r));
            failed.push(r);
        }
        if rng.random_bool(0.01) {
            net.purge_blocked();
        }
        // Mid-flight reconfiguration: a same-shape spec swap exercises the
        // channel/credit state carry-over with traffic in the air.
        if rng.random_bool(0.005) && failed.is_empty() {
            net.reconfigure(mesh_spec(w, h)).unwrap();
        }
        net.step();
    }

    let health = net.totals().health;
    assert!(health.checks >= 1_500, "strict mode checks every cycle");
    assert_eq!(health.violations, 0, "no violations on a legal execution");
    assert!(net.guard_violations().is_empty());
    assert!(net.check_invariants().is_empty());
}

#[test]
fn random_chaos_under_strict_guards_is_violation_free() {
    for case in 0..8u64 {
        chaos_run(0x6A5D ^ (case * 0x9E37_79B9));
    }
}

/// A sampled guard must catch a deliberately corrupted network: leak one
/// credit and the per-VC credit-conservation sweep flags the channel.
#[test]
fn injected_credit_leak_trips_the_sampled_guard() {
    let mut net = Network::new(mesh_spec(4, 4), SimConfig::baseline()).unwrap();
    net.set_guard_mode(GuardMode::Sampled(64));
    for i in 0..8u64 {
        net.inject(Packet::request(i + 1, NodeId(0), NodeId(15), 0))
            .unwrap();
    }
    net.run(100);
    let key = net.spec().channels[0].key();
    net.chaos_leak_credit(key, 0).unwrap();
    net.run(128);
    let health = net.totals().health;
    assert!(health.violations > 0, "the leak must be detected");
    let hits = net.guard_violations();
    assert!(
        hits.iter()
            .any(|v| v.kind == InvariantKind::CreditConservation),
        "expected a credit-conservation violation, got: {hits:?}"
    );
}

/// In strict mode the same corruption panics immediately.
#[test]
#[should_panic(expected = "invariant violation")]
fn injected_credit_leak_panics_under_strict_guards() {
    let mut net = Network::new(mesh_spec(4, 4), SimConfig::baseline()).unwrap();
    net.set_guard_mode(GuardMode::Strict);
    for i in 0..8u64 {
        net.inject(Packet::request(i + 1, NodeId(0), NodeId(15), 0))
            .unwrap();
    }
    net.run(100);
    let key = net.spec().channels[0].key();
    net.chaos_leak_credit(key, 0).unwrap();
    net.run(4);
}

/// The sampled guard reuses a clean verdict while nothing changes, but a
/// leak on an idle network is a change: the next due sample sweeps again
/// and catches it.
#[test]
fn idle_credit_leak_trips_the_sampled_guard() {
    let mut net = Network::new(mesh_spec(4, 4), SimConfig::baseline()).unwrap();
    net.set_guard_mode(GuardMode::Sampled(64));
    net.run(200);
    assert_eq!(net.totals().health.violations, 0);
    let key = net.spec().channels[0].key();
    net.chaos_leak_credit(key, 0).unwrap();
    net.run(64);
    let health = net.totals().health;
    assert_eq!(health.checks, 4);
    assert!(health.violations > 0, "the leak must be detected");
    let hits = net.guard_violations();
    assert!(
        hits.iter()
            .any(|v| v.kind == InvariantKind::CreditConservation),
        "expected a credit-conservation violation, got: {hits:?}"
    );
}
