//! Dynamic subNoC allocation (Sec. II-C1): applications arrive and depart;
//! the allocator places each in a free rectangle, the chip spec is rebuilt
//! around the live allocations, and the network reconfigures without ever
//! dropping a packet.
//!
//! ```sh
//! cargo run --release --example dynamic_allocation
//! ```

use adaptnoc::core::prelude::*;
use adaptnoc::sim::config::SimConfig;
use adaptnoc::sim::network::Network;
use adaptnoc::sim::prelude::{NodeId, Packet};
use adaptnoc::topology::prelude::*;

fn spec_for(
    grid: Grid,
    allocs: &[Allocation],
    kinds: &[TopologyKind],
    cfg: &SimConfig,
) -> adaptnoc::sim::spec::NetworkSpec {
    let regions: Vec<RegionTopology> = allocs
        .iter()
        .zip(kinds)
        .map(|(a, &k)| RegionTopology::new(a.rect, k))
        .collect();
    build_chip_spec(grid, &regions, cfg).unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = Grid::paper();
    let cfg = SimConfig::adapt_noc();
    let mut alloc = SubNocAllocator::new(grid);

    // Schedule: (event name, arrivals (app, tiles, topology), departures).
    type Arrival = (u64, usize, TopologyKind);
    let schedule: Vec<(&str, Vec<Arrival>, Vec<u64>)> = vec![
        (
            "t0: two apps arrive",
            vec![(1, 16, TopologyKind::Cmesh), (2, 32, TopologyKind::Torus)],
            vec![],
        ),
        (
            "t1: third app arrives",
            vec![(3, 16, TopologyKind::Tree)],
            vec![],
        ),
        ("t2: app 2 departs", vec![], vec![2]),
        (
            "t3: two small apps reuse the space",
            vec![(4, 8, TopologyKind::Mesh), (5, 16, TopologyKind::Cmesh)],
            vec![],
        ),
    ];

    let mut net: Option<Network> = None;
    let mut kinds_by_app: std::collections::HashMap<u64, TopologyKind> =
        std::collections::HashMap::new();
    let mut injected = 0u64;
    let mut delivered = 0u64;

    for (label, arrivals, departures) in schedule {
        for app in departures {
            let rect = alloc.free(app)?;
            kinds_by_app.remove(&app);
            println!("{label}: app {app} freed {rect}");
        }
        for (app, tiles, kind) in arrivals {
            let a = alloc.allocate(app, tiles)?;
            kinds_by_app.insert(app, kind);
            println!(
                "{label}: app {app} -> {} as {} ({} MC blocks)",
                a.rect,
                kind.name(),
                alloc.mc_tiles(app).unwrap().len()
            );
        }

        // Rebuild the chip around the live allocations. (Scheduling events
        // happen at drained quiesce points — the fine-grained, in-traffic
        // path is the per-epoch topology reconfiguration shown in
        // examples/reconfiguration.rs.)
        let allocs = alloc.allocations();
        let kinds: Vec<TopologyKind> = allocs.iter().map(|a| kinds_by_app[&a.app]).collect();
        let spec = spec_for(grid, &allocs, &kinds, &cfg);
        let mut n = match net.take() {
            Some(mut old) => {
                while old.in_flight() > 0 {
                    old.step();
                    delivered += old.delivered().len() as u64;
                }
                old.reconfigure(spec)?;
                old
            }
            None => Network::new(spec, cfg.clone())?,
        };

        // Run traffic inside every allocated region.
        for a in &allocs {
            let nodes: Vec<NodeId> = a.rect.iter().map(|c| grid.node(c)).collect();
            for (i, &s) in nodes.iter().enumerate() {
                injected += 1;
                let d = nodes[(i + 3) % nodes.len()];
                if s != d {
                    n.inject(Packet::request(injected, s, d, 0))?;
                } else {
                    injected -= 1;
                }
            }
        }
        for _ in 0..400 {
            n.step();
            delivered += n.delivered().len() as u64;
        }
        println!(
            "    free tiles: {:>2} | active routers: {} | in flight: {}",
            alloc.free_tiles(),
            n.spec().active_routers(),
            n.in_flight()
        );
        net = Some(n);
    }

    let mut n = net.unwrap();
    while n.in_flight() > 0 {
        n.step();
        delivered += n.delivered().len() as u64;
    }
    println!(
        "\ninjected {injected}, delivered {delivered} — lossless: {}",
        injected == delivered
    );
    assert_eq!(injected, delivered);
    Ok(())
}
