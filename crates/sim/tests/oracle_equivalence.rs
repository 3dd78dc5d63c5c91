//! The stepping kernel against the naive reference simulator
//! (`common::oracle`), cycle for cycle.
//!
//! Every case drives the oracle and a `Network` stepped with
//! `Network::step` through the same scripted disturbances. Every control's return value (injection errors, sleep
//! refusals, the packets a fault or purge NACKs) must match the oracle's,
//! and after every cycle so must the delivered packets, the new trace
//! events, `in_flight()`, the per-router buffered flits, the unroutable
//! count, and `totals()`' statistics, activity events and static cycles.
//! NACKed packets are re-injected at once with `inject_retry`.

mod common;

use adaptnoc_sim::prelude::*;
use common::oracle::Oracle;
use common::{
    ftby_hub_spec, mesh_spec, mesh_spec_homes, mesh_spec_slow_y, mesh_spec_yx, random_script,
    ring_spec, Action,
};

/// Trace events one cycle (plus the controls before it) may record.
const TRACE_CAPACITY: usize = 1 << 16;

/// A routing-table swap at a given cycle.
#[derive(Clone)]
enum Swap {
    Tables(RoutingTables),
    Spec(NetworkSpec),
}

/// What a lockstep run saw, for the cases' own coverage checks.
#[derive(Debug, Default)]
struct Seen {
    delivered: usize,
    in_flight: u64,
    /// Flits on wires and in buffers just before the swap.
    at_swap: Option<(usize, u32)>,
    stats: NetStats,
    events: EventCounts,
}

/// Trace events recorded since the previous call.
fn new_trace(net: &mut Network) -> Vec<TraceEvent> {
    let t = net.tracer().expect("tracer installed");
    assert_eq!(t.dropped(), 0, "a cycle overflowed the trace buffer");
    let events = t.events().cloned().collect();
    net.set_tracer(Some(TraceBuffer::all(TRACE_CAPACITY)));
    events
}

/// Runs `script` (and `swap`) for `cycles` cycles on the oracle and the
/// network, asserting they agree after every control and every cycle.
fn lockstep(
    spec: &NetworkSpec,
    cfg: &SimConfig,
    script: &[(u64, Action)],
    mut swap: Option<(u64, Swap)>,
    cycles: u64,
) -> Seen {
    let mut oracle = Oracle::new(spec.clone(), cfg.clone());
    let mut net = Network::new(spec.clone(), cfg.clone()).expect("valid spec");
    net.set_tracer(Some(TraceBuffer::all(TRACE_CAPACITY)));
    let keys: Vec<ChannelKey> = spec.channels.iter().map(|c| c.key()).collect();
    let mut seen = Seen::default();
    let (mut next, mut id) = (0, 0);
    for cycle in 0..cycles {
        while next < script.len() && script[next].0 <= cycle {
            apply(&mut oracle, &mut net, script[next].1, &keys, &mut id);
            next += 1;
        }
        if swap.as_ref().is_some_and(|(at, _)| *at == cycle) {
            let wires = net.channel_backlogs().iter().map(|b| b.1).sum();
            let routers = 0..spec.routers.len() as u16;
            let buffered = routers.map(|r| net.router_flits(RouterId(r))).sum();
            seen.at_swap = Some((wires, buffered));
            match swap.take().expect("checked").1 {
                Swap::Tables(t) => {
                    oracle.install_tables(t.clone());
                    net.install_tables(t);
                }
                Swap::Spec(s) => {
                    oracle.reconfigure(s.clone());
                    net.reconfigure(s).expect("same channel set");
                }
            }
        }
        oracle.step();
        net.step();
        let at = format!("cycle {}", oracle.now());
        assert_eq!(net.delivered(), oracle.delivered(), "deliveries, {at}");
        assert_eq!(
            new_trace(&mut net),
            oracle.take_trace(),
            "trace events, {at}"
        );
        assert_eq!(net.in_flight(), oracle.in_flight(), "in_flight, {at}");
        assert_eq!(
            net.in_flight(),
            net.in_flight_recount(),
            "in_flight recount, {at}"
        );
        for r in (0..spec.routers.len() as u16).map(RouterId) {
            let flits = oracle.router_flits(r);
            assert_eq!(net.router_flits(r), flits, "flits buffered in {r}, {at}");
        }
        let unroutable = oracle.unroutable_events();
        assert_eq!(net.unroutable_events(), unroutable, "unroutable, {at}");
        let t = net.totals();
        assert_eq!(&t.stats, oracle.stats(), "totals().stats, {at}");
        assert_eq!(&t.events, oracle.events(), "totals().events, {at}");
        let statics = oracle.static_cycles();
        assert_eq!(&t.static_cycles, statics, "totals().static_cycles, {at}");
        seen.delivered += oracle.delivered().len();
    }
    seen.in_flight = oracle.in_flight();
    seen.stats = oracle.stats().clone();
    seen.events = *oracle.events();
    seen
}

/// The network must return `want` from `control`.
fn agree<T: PartialEq + std::fmt::Debug>(
    net: &mut Network,
    what: &str,
    want: &T,
    control: impl Fn(&mut Network) -> T,
) {
    let at = net.now();
    assert_eq!(&control(net), want, "{what} at cycle {at}");
}

/// Applies one control to the oracle and the network, requiring the same
/// result from both; NACKed packets are retried at once.
fn apply(
    oracle: &mut Oracle,
    net: &mut Network,
    action: Action,
    keys: &[ChannelKey],
    id: &mut u64,
) {
    let nacked = match action {
        Action::Inject { src, dst, reply } => {
            *id += 1;
            let (src, dst) = (NodeId(src), NodeId(dst));
            let pkt = match reply {
                true => Packet::reply(*id, src, dst, *id),
                false => Packet::request(*id, src, dst, *id),
            };
            agree(net, "inject", &oracle.inject(pkt), |n| n.inject(pkt));
            Vec::new()
        }
        Action::TrySleep(r) => {
            let want = oracle.try_sleep_router(RouterId(r));
            agree(net, "try_sleep_router", &want, |n| {
                n.try_sleep_router(RouterId(r))
            });
            Vec::new()
        }
        Action::Wake(r) => {
            oracle.wake_router(RouterId(r));
            agree(net, "wake_router", &(), |n| n.wake_router(RouterId(r)));
            Vec::new()
        }
        Action::ChannelFault { index, faulted } => {
            let want = oracle.set_channel_fault(keys[index], faulted);
            agree(net, "set_channel_fault", &want, |n| {
                n.set_channel_fault(keys[index], faulted)
            });
            want.expect("scripted channels exist")
        }
        Action::FailRouter(r) => {
            let want = oracle.fail_router(RouterId(r));
            agree(net, "fail_router", &want, |n| n.fail_router(RouterId(r)));
            want
        }
        Action::PurgeBlocked => {
            let want = oracle.purge_blocked();
            agree(net, "purge_blocked", &want, Network::purge_blocked);
            want
        }
        Action::VcMask { router, vnet, mask } => {
            let (r, v) = (RouterId(router), Vnet(vnet));
            oracle.set_vc_mask(r, v, mask);
            agree(net, "set_vc_mask", &(), |n| n.set_vc_mask(r, v, mask));
            Vec::new()
        }
        Action::ConfigStall { router, cycles } => {
            let r = RouterId(router);
            oracle.begin_router_config(r, cycles);
            agree(net, "begin_router_config", &(), |n| {
                n.begin_router_config(r, cycles)
            });
            Vec::new()
        }
    };
    for p in nacked {
        let want = oracle.inject_retry(p, 1);
        agree(net, "inject_retry", &want, |n| n.inject_retry(p, 1));
    }
}

/// A seeded random script on a seeded W x H mesh (2..5 on each side).
fn random_mesh_case(seed: u64, with_faults: bool, cfg: &SimConfig) -> Seen {
    let mut rng = Rng::seed_from_u64(seed);
    let (w, h) = (rng.random_range(2, 5), rng.random_range(2, 5));
    let spec = mesh_spec(w, h);
    let script = random_script(&mut rng, &spec, with_faults);
    lockstep(&spec, cfg, &script, None, 1_500)
}

/// Seeded random scripts on a hand-built spec, half of them with faults.
fn random_spec_cases(spec: &NetworkSpec, cfg: &SimConfig, seed: u64, cases: u64) -> Vec<Seen> {
    (0..cases)
        .map(|case| {
            let mut rng = Rng::seed_from_u64(seed + case);
            let script = random_script(&mut rng, spec, case % 2 == 1);
            lockstep(spec, cfg, &script, None, 1_500)
        })
        .collect()
}

/// Traffic and power gating.
#[test]
fn random_scripts_on_healthy_meshes() {
    for seed in 0..24u64 {
        let seen = random_mesh_case(0xAC71FE00 + seed, false, &SimConfig::baseline());
        assert!(seen.delivered > 0, "seed {seed} delivered nothing");
    }
}

/// Traffic, gating, channel faults, router failures, purges and retries.
#[test]
fn random_scripts_with_faults_and_purges() {
    let mut nacks = 0;
    for seed in 0..24u64 {
        let seen = random_mesh_case(0xFA017ED0 + seed, true, &SimConfig::baseline());
        assert_eq!(seen.stats.retries, seen.stats.nacks);
        nacks += seen.stats.nacks;
    }
    assert!(nacks > 0, "no fault or purge NACKed a packet");
}

/// A saturating all-to-all burst keeps every router and channel busy.
#[test]
fn saturation_burst_drains_identically() {
    let spec = mesh_spec(4, 4);
    let mut script = Vec::new();
    for cycle in 0..64u64 {
        for s in 0..16u16 {
            let (dst, reply) = ((s + 7) % 16, s % 2 == 0);
            script.push((cycle, Action::Inject { src: s, dst, reply }));
        }
    }
    let seen = lockstep(&spec, &SimConfig::baseline(), &script, None, 3_000);
    assert_eq!(seen.delivered, 64 * 16);
    assert_eq!(seen.in_flight, 0, "burst must fully drain");
}

/// XY routing swapped for YX mid-run, under faults and purges: routes
/// computed before the swap stay with their heads, later heads use YX.
#[test]
fn midrun_xy_to_yx_reconfigure() {
    let (spec, target) = (mesh_spec(4, 4), mesh_spec_yx(4, 4));
    let mut rng = Rng::seed_from_u64(0x10CB);
    for _case in 0..4 {
        let script = random_script(&mut rng, &spec, true);
        let at = 200 + 100 * rng.random_below(4) as u64;
        let swap = Some((at, Swap::Spec(target.clone())));
        lockstep(&spec, &SimConfig::baseline(), &script, swap, 900);
    }
}

/// Swaps the tables while single-flit packets — every flit a head — sit
/// in input buffers *and* on wires.
fn swap_with_heads_in_flight(swap: Swap) {
    let mut script = Vec::new();
    let mut id = 0u16;
    for cycle in 0..12u64 {
        for src in 0..16u16 {
            id += 1;
            let dst = (src * 7 + id) % 16;
            script.push((
                cycle,
                Action::Inject {
                    src,
                    dst,
                    reply: false,
                },
            ));
        }
    }
    let seen = lockstep(
        &mesh_spec(4, 4),
        &SimConfig::baseline(),
        &script,
        Some((12, swap)),
        612,
    );
    let (wires, buffered) = seen.at_swap.expect("swapped");
    assert!(wires > 0, "no head on a wire at the swap");
    assert!(buffered > 0, "no head in a buffer at the swap");
    assert_eq!(seen.delivered, 12 * 16);
}

#[test]
fn install_tables_with_heads_in_buffers_and_on_wires() {
    swap_with_heads_in_flight(Swap::Tables(mesh_spec_yx(4, 4).tables));
}

#[test]
fn reconfigure_with_heads_in_buffers_and_on_wires() {
    swap_with_heads_in_flight(Swap::Spec(mesh_spec_yx(4, 4)));
}

/// External concentration: nodes 0, 4 and 5 share router 0's injection
/// port, node 6 shares router 3's.
#[test]
fn nis_sharing_an_injection_port() {
    let spec = mesh_spec_homes(2, 2, &[0, 1, 2, 3, 0, 0, 3]);
    for seen in random_spec_cases(&spec, &SimConfig::baseline(), 0xC0C0, 6) {
        assert!(seen.events.mux_traversals > 0, "no concentrated injection");
    }
}

/// Channels with a two-cycle traversal latency.
#[test]
fn latency_two_channels() {
    random_spec_cases(&mesh_spec_slow_y(3, 3), &SimConfig::baseline(), 0x1A7E, 6);
}

/// A ring whose wrap-around channels are datelines, on routers that split
/// their VCs between the dateline classes.
#[test]
fn dateline_ring_with_vc_split_routers() {
    random_spec_cases(&ring_spec(), &SimConfig::baseline(), 0xDA7E, 8);
}

/// The Adapt-NoC configuration: 2 VCs per vnet and the injection bypass.
#[test]
fn adapt_noc_config_with_injection_bypass() {
    let cfg = SimConfig::adapt_noc();
    for seed in 0..8u64 {
        let seen = random_mesh_case(0xADA9 + seed, seed % 2 == 1, &cfg);
        assert!(seen.events.bypass_injections > 0, "no bypassed injection");
    }
}

/// Routers with more (input port, VC) pairs than a machine word holds:
/// the flattened-butterfly hub shape (radix 10 x 8 VCs = 80 pairs, the
/// local ports at 6..10 holding pairs 48..80), under random scripts with
/// and without faults, then a burst in which every node of a hub sends
/// at once so VA and SA arbitrate over many requesters per output port.
#[test]
fn high_radix_hubs_past_one_machine_word() {
    let (spec, cfg) = (ftby_hub_spec(), SimConfig::flattened_butterfly());
    for r in &spec.routers {
        assert!(r.n_ports as usize * cfg.total_vcs() > 64);
    }
    for seen in random_spec_cases(&spec, &cfg, 0xF7B7, 6) {
        assert!(seen.delivered > 0, "nothing delivered");
    }
    let mut script = Vec::new();
    for cycle in 0..40u16 {
        for src in 0..64u16 {
            let (dst, reply) = ((src * 7 + cycle) % 64, (src + cycle).is_multiple_of(3));
            script.push((cycle as u64, Action::Inject { src, dst, reply }));
        }
    }
    let seen = lockstep(&spec, &cfg, &script, None, 2_000);
    assert_eq!(seen.delivered, 40 * 64);
    assert_eq!(seen.in_flight, 0, "burst must fully drain");
}

/// OSCAR VC masks and `T_s` configuration stalls, set mid-run.
#[test]
fn vc_masks_and_configuration_stalls() {
    let cfg = SimConfig::baseline();
    for seed in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0x05CA + seed);
        let spec = mesh_spec(3, 3);
        let mut script = random_script(&mut rng, &spec, seed % 2 == 1);
        for _ in 0..12 {
            let router = rng.random_below(9) as u16;
            let cycle = rng.random_below(700) as u64;
            let mask = 1 + rng.random_below((1 << cfg.vcs_per_vnet) - 1) as u8;
            let vnet = rng.random_below(2) as u8;
            script.push((cycle, Action::VcMask { router, vnet, mask }));
            let cycles = rng.random_range(5, 60) as u64;
            let stall = Action::ConfigStall { router, cycles };
            script.push((rng.random_below(700) as u64, stall));
        }
        script.sort_by_key(|(c, _)| *c);
        lockstep(&spec, &cfg, &script, None, 1_500);
    }
}
