//! Lookahead route computation vs. the classic per-router table walk: the
//! observable history — delivered packets, aggregate statistics, the full
//! trace stream, and the in-flight count — must be **byte-identical**,
//! with the table-walk reference serial and the lookahead run at any
//! thread count, under channel faults, router failures, purges, and a
//! mid-run structural reconfiguration that swaps the routing tables.
//!
//! This is the correctness contract of the lookahead RC fast path: a head
//! flit's output port is resolved one hop upstream and carried in the
//! flit. A table swap (`install_tables`, `reconfigure`) clears the
//! carried port of every flit then in flight — buffered or on a wire —
//! so the affected heads fall back to a table walk; if any stale port
//! survived, these histories would diverge.

mod common;

use adaptnoc_sim::prelude::*;
use common::{mesh_spec, mesh_spec_yx, random_script, run_script_stepped};

const W: usize = 4;
const H: usize = 4;
const CYCLES: u64 = 900;

fn net(spec: &NetworkSpec, lookahead: bool) -> Network {
    let mut n = Network::new(spec.clone(), SimConfig::baseline()).expect("valid mesh spec");
    n.set_lookahead_rc(lookahead);
    n
}

#[test]
fn lookahead_matches_table_walk_across_thread_counts() {
    let spec = mesh_spec(W, H);
    let mut rng = Rng::seed_from_u64(0x10CA);
    for _case in 0..6 {
        let script = random_script(&mut rng, W * H, spec.channels.len(), true);
        let reference = run_script_stepped(net(&spec, false), &script, CYCLES, None, |n| n.step());
        let serial = run_script_stepped(net(&spec, true), &script, CYCLES, None, |n| n.step());
        assert_eq!(reference, serial, "lookahead diverged from the table walk");
        for threads in [2usize, 4] {
            let mut pool = StepPool::new(threads);
            let parallel = run_script_stepped(net(&spec, true), &script, CYCLES, None, move |n| {
                n.step_parallel(&mut pool)
            });
            assert_eq!(
                reference, parallel,
                "lookahead at {threads} threads diverged from the serial table walk"
            );
        }
    }
}

#[test]
fn lookahead_matches_table_walk_with_midrun_reconfig() {
    let spec = mesh_spec(W, H);
    let target = mesh_spec_yx(W, H);
    let mut rng = Rng::seed_from_u64(0x10CB);
    for _case in 0..4 {
        let script = random_script(&mut rng, W * H, spec.channels.len(), true);
        let reconfig_at = 200 + 100 * (rng.random_below(4) as u64);
        let reference = run_script_stepped(
            net(&spec, false),
            &script,
            CYCLES,
            Some((reconfig_at, target.clone())),
            |n| n.step(),
        );
        for threads in [1usize, 2, 4] {
            let mut pool = (threads > 1).then(|| StepPool::new(threads));
            let lookahead = run_script_stepped(
                net(&spec, true),
                &script,
                CYCLES,
                Some((reconfig_at, target.clone())),
                move |n| match pool.as_mut() {
                    Some(pool) => n.step_parallel(pool),
                    None => n.step(),
                },
            );
            assert_eq!(
                reference, lookahead,
                "history diverged at {threads} threads with reconfig at {reconfig_at}"
            );
        }
    }
}

/// Swaps the tables while single-flit packets (every flit a head) sit in
/// input buffers *and* on wires, then compares the lookahead run with a
/// clone switched to the table walk at the moment of the swap.
fn swap_with_heads_in_flight(swap: impl Fn(&mut Network)) {
    let mut n = net(&mesh_spec(W, H), true);
    n.set_tracer(Some(TraceBuffer::all(1 << 16)));
    let mut id = 0;
    for _ in 0..12 {
        for src in 0..(W * H) as u16 {
            id += 1;
            let dst = (src * 7 + id as u16) % (W * H) as u16;
            n.inject(Packet::request(id, NodeId(src), NodeId(dst), id))
                .unwrap();
        }
        n.step();
    }
    assert!(!n.channel_backlogs().is_empty(), "no head on a wire");
    let buffered: u32 = (0..(W * H) as u16)
        .map(|r| n.router_flits(RouterId(r)))
        .sum();
    assert!(buffered > 0, "no head in a buffer");

    let mut walk = n.clone();
    walk.set_lookahead_rc(false);
    let mut histories = Vec::new();
    for mut n in [n, walk] {
        swap(&mut n);
        n.run(600);
        histories.push((
            n.drain_delivered(),
            n.totals(),
            n.tracer().unwrap().events().cloned().collect::<Vec<_>>(),
            n.in_flight(),
        ));
    }
    assert!(!histories[0].0.is_empty());
    assert_eq!(histories[0], histories[1]);
}

#[test]
fn install_tables_invalidates_heads_in_buffers_and_on_wires() {
    swap_with_heads_in_flight(|n| n.install_tables(mesh_spec_yx(W, H).tables));
}

#[test]
fn reconfigure_invalidates_heads_in_buffers_and_on_wires() {
    swap_with_heads_in_flight(|n| n.reconfigure(mesh_spec_yx(W, H)).unwrap());
}

#[test]
fn table_walk_flag_roundtrips() {
    let spec = mesh_spec(W, H);
    let mut n = net(&spec, true);
    assert!(n.lookahead_rc());
    n.set_lookahead_rc(false);
    assert!(!n.lookahead_rc());
}
