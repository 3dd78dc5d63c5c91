//! Watches the deadlock-free reconfiguration protocol (Sec. II-C1) switch
//! a live subNoC from mesh to torus to cmesh and back while traffic keeps
//! flowing — no packet is ever dropped.
//!
//! ```sh
//! cargo run --release --example reconfiguration
//! ```

use adaptnoc::core::prelude::*;
use adaptnoc::sim::config::SimConfig;
use adaptnoc::sim::network::Network;
use adaptnoc::sim::prelude::{NodeId, Packet};
use adaptnoc::topology::prelude::*;

fn spec_of(kind: TopologyKind, cfg: &SimConfig) -> adaptnoc::sim::spec::NetworkSpec {
    build_chip_spec(
        Grid::paper(),
        &[RegionTopology::new(Rect::new(0, 0, 4, 4), kind)],
        cfg,
    )
    .unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = Grid::paper();
    let rect = Rect::new(0, 0, 4, 4);
    let cfg = SimConfig::adapt_noc();
    let mut net = Network::new(spec_of(TopologyKind::Mesh, &cfg), cfg.clone())?;
    let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();

    let timing = ReconfigTiming::default();
    println!(
        "notify latency for a 4x4 subNoC: (4+4-2)x(T_r+T_l) = {} cycles; T_s = {} cycles\n",
        timing.notify_cycles(rect),
        timing.t_s
    );

    let mut injected = 0u64;
    let mut delivered = 0u64;
    let plan = [
        (TopologyKind::Mesh, TopologyKind::Torus),
        (TopologyKind::Torus, TopologyKind::Cmesh),
        (TopologyKind::Cmesh, TopologyKind::Tree),
        (TopologyKind::Tree, TopologyKind::Mesh),
    ];

    for (from, to) in plan {
        let fast = keeps_mesh(from) && keeps_mesh(to);
        let transitional = fast.then(|| spec_of(TopologyKind::Mesh, &cfg).tables);
        let mut rc =
            RegionReconfig::start(&net, &grid, rect, spec_of(to, &cfg), transitional, timing);
        let mut stage_log = Vec::new();
        let mut last = format!("{:?}", rc.stage);
        loop {
            // Keep traffic flowing throughout the switch.
            if net.now() % 9 == 0 {
                injected += 1;
                let s = nodes[(net.now() as usize) % nodes.len()];
                let d = nodes[(net.now() as usize + 5) % nodes.len()];
                if s != d {
                    net.inject(Packet::request(injected, s, d, 0)).ok();
                } else {
                    injected -= 1;
                }
            }
            net.step();
            let done = rc.tick(&mut net, &grid)?;
            let cur = format!("{:?}", rc.stage);
            if cur != last {
                stage_log.push(format!("@{}: {}", net.now(), cur));
                last = cur;
            }
            delivered += net.delivered().len() as u64;
            if done {
                break;
            }
        }
        println!(
            "{:<6} -> {:<6} [{}] in {:>4} cycles | stages: {}",
            from.name(),
            to.name(),
            if fast { "fast path " } else { "drain path" },
            rc.latency(net.now()),
            stage_log.join(", ")
        );
    }

    // Drain everything and verify losslessness.
    while net.in_flight() > 0 {
        net.step();
        delivered += net.delivered().len() as u64;
    }
    println!(
        "\ninjected {injected}, delivered {delivered}, unroutable {} — lossless: {}",
        net.unroutable_events(),
        injected == delivered && net.unroutable_events() == 0
    );
    assert_eq!(injected, delivered);
    Ok(())
}
