//! Prints a link-heat view of congestion for each subNoC topology under
//! MC-bound (hotspot) traffic — visualizing *why* the tree wins reply
//! distribution.
//!
//! ```sh
//! cargo run --release --example congestion_heatmap
//! ```

use adaptnoc::sim::config::SimConfig;
use adaptnoc::sim::network::Network;
use adaptnoc::topology::prelude::*;
use adaptnoc::workloads::prelude::*;

fn heat(kind: TopologyKind) -> Result<(), Box<dyn std::error::Error>> {
    let grid = Grid::paper();
    let rect = Rect::new(0, 0, 4, 4);
    let cfg = SimConfig::adapt_noc();
    let spec = build_chip_spec(grid, &[RegionTopology::new(rect, kind)], &cfg)?;
    let mut net = Network::new(spec, cfg)?;

    // The MC at the origin answers everyone: hotspot replies outward.
    let mc = grid.node(Coord::new(0, 0));
    let traffic = TrafficSpec {
        dest: DestPattern::Hotspot(mc),
        ..TrafficSpec::uniform(0.04)
    };
    let mut inj = OpenLoopEngine::new(grid, rect, traffic, 9);
    inj.data_fraction = 0.0;
    let mut wl_replies = 0u64;
    for _ in 0..8_000 {
        inj.tick(&mut net);
        // The hotspot replies with data packets round-robin.
        for d in net.delivered().to_vec() {
            if d.packet.dst == mc {
                wl_replies += 1;
                let _ = net.inject(adaptnoc::sim::flit::Packet::reply(
                    1_000_000 + wl_replies,
                    mc,
                    d.packet.src,
                    0,
                ));
            }
        }
        net.step();
    }

    // Aggregate per-router outgoing flits into a tile heat map.
    let flits = net.channel_flits_epoch().to_vec();
    let mut tile_heat = vec![0u64; grid.tiles()];
    for (i, ch) in net.spec().channels.iter().enumerate() {
        tile_heat[ch.src.router.index()] += flits[i];
    }
    let max = tile_heat.iter().copied().max().unwrap_or(1).max(1);

    println!("\n{kind} (replies from the MC at the *; scale 0-9):");
    for y in (0..rect.h).rev() {
        let mut row = String::from("  ");
        for x in 0..rect.w {
            let r = grid.router(Coord::new(x, y)).index();
            let level = (tile_heat[r] * 9 / max) as u8;
            if x == 0 && y == 0 {
                row.push('*');
            } else {
                row.push(char::from(b'0' + level));
            }
            row.push(' ');
        }
        println!("{row}");
    }
    let report = net.totals();
    println!(
        "  avg packet latency {:.1} cycles over {} packets",
        report.stats.avg_network_latency() + report.stats.avg_queuing_latency(),
        report.stats.packets
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("MC-reply congestion by topology (4x4 subNoC, hotspot pattern)");
    for kind in [TopologyKind::Mesh, TopologyKind::Tree, TopologyKind::Torus] {
        heat(kind)?;
    }
    Ok(())
}
