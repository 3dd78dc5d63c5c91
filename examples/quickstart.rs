//! Quickstart: build an Adapt-NoC chip with two subNoCs, run traffic, and
//! print performance and energy statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use adaptnoc::power::prelude::*;
use adaptnoc::sim::prelude::*;
use adaptnoc::topology::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8x8 chip split into two subNoCs: a concentrated mesh on the left
    // half (sparse CPU-style traffic) and a torus on the right half
    // (bandwidth-hungry GPU-style traffic).
    let grid = Grid::paper();
    let regions = [
        RegionTopology::new(Rect::new(0, 0, 4, 8), TopologyKind::Cmesh),
        RegionTopology::new(Rect::new(4, 0, 4, 8), TopologyKind::Torus),
    ];
    let cfg = SimConfig::adapt_noc();
    let spec = build_chip_spec(grid, &regions, &cfg)?;

    // Static validation: routes terminate, channel dependencies acyclic.
    for rect in [Rect::new(0, 0, 4, 8), Rect::new(4, 0, 4, 8)] {
        let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
        let stats = check_routes_and_deadlock(&spec, &all_pairs(&nodes))?;
        println!(
            "{rect}: {} routes validated, avg {:.2} / max {} hops",
            stats.routes,
            stats.avg_hops(),
            stats.max_hops
        );
    }

    // Run all-pairs traffic within each region.
    let mut net = Network::new(spec, cfg.clone())?;
    let mut id = 0u64;
    for rect in [Rect::new(0, 0, 4, 8), Rect::new(4, 0, 4, 8)] {
        let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
        for &s in &nodes {
            for &d in &nodes {
                if s != d {
                    id += 1;
                    net.inject(Packet::request(id, s, d, 0))?;
                }
            }
        }
    }
    while net.in_flight() > 0 {
        net.step();
    }

    let report = net.totals();
    println!(
        "\ndelivered {} packets in {} cycles",
        report.stats.packets,
        net.now()
    );
    println!(
        "avg network latency {:.1} cycles | avg hops {:.2} | buffer util {:.1}%",
        report.stats.avg_network_latency(),
        report.stats.avg_hops(),
        report.stats.avg_buffer_utilization() * 100.0
    );

    // Energy via the 45 nm model.
    let model = EnergyModel::new(&cfg);
    let energy = model.energy(&report);
    println!(
        "energy: {:.2} µJ dynamic + {:.2} µJ static = {:.2} µJ ({:.2} W avg)",
        energy.dynamic_j * 1e6,
        energy.static_j * 1e6,
        energy.total_j() * 1e6,
        model.avg_power_w(&report)
    );

    // The cmesh half power-gated 24 routers.
    println!(
        "active routers: {} of 64 (cmesh gates its idle routers)",
        net.spec().active_routers()
    );
    Ok(())
}
