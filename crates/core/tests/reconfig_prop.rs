//! Randomized tests for the reconfiguration protocol: arbitrary topology
//! sequences under continuous traffic never lose a packet, never produce an
//! unroutable event, and always land in a valid, deadlock-free
//! configuration. Cases come from the in-tree seeded PRNG.

use adaptnoc_core::prelude::*;
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::prelude::{NodeId, Packet};
use adaptnoc_sim::rng::Rng;
use adaptnoc_topology::prelude::*;

const KINDS: [TopologyKind; 4] = [
    TopologyKind::Mesh,
    TopologyKind::Cmesh,
    TopologyKind::Torus,
    TopologyKind::Tree,
];

fn random_kind(rng: &mut Rng) -> TopologyKind {
    KINDS[rng.random_below(KINDS.len())]
}

fn spec_of(kind: TopologyKind, rect: Rect, cfg: &SimConfig) -> adaptnoc_sim::spec::NetworkSpec {
    build_chip_spec(Grid::paper(), &[RegionTopology::new(rect, kind)], cfg).unwrap()
}

/// A random sequence of topology switches under random traffic is
/// lossless and ends in a validated configuration.
#[test]
fn random_reconfig_sequences_are_lossless() {
    let mut rng = Rng::seed_from_u64(0x5EC5);
    for _case in 0..20 {
        let seq: Vec<TopologyKind> = (0..rng.random_range(1, 5))
            .map(|_| random_kind(&mut rng))
            .collect();
        let inject_period = rng.random_range(3, 20) as u64;
        let grid = Grid::paper();
        let rect = Rect::new(0, 0, 4, 4);
        let cfg = SimConfig::adapt_noc();
        let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
        let mut net = Network::new(spec_of(TopologyKind::Mesh, rect, &cfg), cfg.clone()).unwrap();

        let mut current = TopologyKind::Mesh;
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for &target in &seq {
            if target == current {
                continue;
            }
            let fast = keeps_mesh(current) && keeps_mesh(target);
            let transitional = fast.then(|| spec_of(TopologyKind::Mesh, rect, &cfg).tables);
            let mut rc = RegionReconfig::start(
                &net,
                &grid,
                rect,
                spec_of(target, rect, &cfg),
                transitional,
                ReconfigTiming::default(),
            );
            let mut guard = 0u64;
            loop {
                if net.now().is_multiple_of(inject_period) {
                    let s = nodes[(net.now() as usize * 7) % nodes.len()];
                    let d = nodes[(net.now() as usize * 3 + 5) % nodes.len()];
                    if s != d {
                        injected += 1;
                        net.inject(Packet::reply(injected, s, d, 0)).unwrap();
                    }
                }
                net.step();
                delivered += net.delivered().len() as u64;
                if rc.tick(&mut net, &grid).unwrap() {
                    break;
                }
                guard += 1;
                assert!(guard < 100_000, "reconfig to {target} hung");
            }
            current = target;
        }
        // Drain.
        let mut guard = 0u64;
        while net.in_flight() > 0 {
            net.step();
            delivered += net.delivered().len() as u64;
            guard += 1;
            assert!(guard < 200_000, "drain hung");
        }
        assert_eq!(injected, delivered, "packets lost across reconfigs");
        assert_eq!(net.unroutable_events(), 0);

        // Final configuration is valid and deadlock-free.
        let pairs = all_pairs(&nodes);
        check_routes_and_deadlock(net.spec(), &pairs).unwrap();
        check_adaptable_links(&grid, net.spec()).unwrap();
    }
}

/// Region position does not matter: the protocol works for subNoCs
/// anywhere on the chip.
#[test]
fn reconfig_works_at_any_region_position() {
    let mut rng = Rng::seed_from_u64(0x9051);
    for _case in 0..20 {
        let x = rng.random_below(5) as u8;
        let y = rng.random_below(5) as u8;
        let target = random_kind(&mut rng);
        let grid = Grid::paper();
        let rect = Rect::new(x & !1, y & !1, 4, 4);
        if !rect.fits(&grid) {
            continue;
        }
        let cfg = SimConfig::adapt_noc();
        let mk =
            |k: TopologyKind| build_chip_spec(grid, &[RegionTopology::new(rect, k)], &cfg).unwrap();
        let mut net = Network::new(mk(TopologyKind::Mesh), cfg.clone()).unwrap();
        let fast = keeps_mesh(target);
        let transitional = fast.then(|| mk(TopologyKind::Mesh).tables);
        let mut rc = RegionReconfig::start(
            &net,
            &grid,
            rect,
            mk(target),
            transitional,
            ReconfigTiming::default(),
        );
        let mut done = false;
        for _ in 0..50_000 {
            net.step();
            if rc.tick(&mut net, &grid).unwrap() {
                done = true;
                break;
            }
        }
        assert!(done);
        let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
        check_routes_and_deadlock(net.spec(), &all_pairs(&nodes)).unwrap();
    }
}
