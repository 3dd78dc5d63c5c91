//! Large-mesh scaling campaign (ROADMAP item 2).
//!
//! Pushes the simulator well past the paper's 8x8 evaluation chip: flat
//! meshes at 16x16, 32x32 and 64x64 tiles plus a 64x64-tile *chiplet
//! fabric* (4x4 chips of 16x16 tiles joined by serialized inter-chip
//! links, see `adaptnoc_topology::chiplet`). Each design point runs an
//! idle pass (active-set fast path — the scheduler must not collapse at
//! 4096 routers) and a loaded pass (open-loop uniform traffic; the
//! chiplet point uses the cross-chip pattern so every packet exercises a
//! SerDes boundary), then drains in-flight packets to completion so
//! delivery is exact.
//!
//! With `threads > 1` the (design, load) points run concurrently through
//! [`run_indexed`], one thread per network; rows are **byte-identical** at
//! any thread count — what the CI `scaling-smoke` job pins at 64x64.

use crate::jsonrows::ToJson;
use crate::parallel::run_indexed;
use adaptnoc_sim::json::Value;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::prelude::{NetworkSpec, SimConfig};
use adaptnoc_topology::chip::mesh_chip;
use adaptnoc_topology::chiplet::{chiplet_chip, ChipletConfig};
use adaptnoc_topology::geom::{Grid, Rect};
use adaptnoc_topology::plan::BuildError;
use adaptnoc_workloads::open::{DestPattern, OpenLoopEngine, TrafficSpec};

/// One scaling-campaign measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Design-point name (`mesh-64x64`, `chiplet-4x4x16`, ...).
    pub design: String,
    /// Grid width in tiles.
    pub width: u8,
    /// Grid height in tiles.
    pub height: u8,
    /// Routers in the design.
    pub routers: usize,
    /// Channels in the design (inter-router links, all kinds).
    pub channels: usize,
    /// Offered injection rate, packets per node per cycle (0 = idle).
    pub load: f64,
    /// Injection cycles simulated (the drain tail is extra).
    pub cycles: u64,
    /// Packets offered by the injector.
    pub offered: u64,
    /// Packets delivered after the drain.
    pub delivered: u64,
    /// Mean end-to-end packet latency, cycles.
    pub avg_latency: f64,
    /// Mean hop count.
    pub avg_hops: f64,
}

impl ToJson for ScalingRow {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("design".into(), Value::String(self.design.clone())),
            ("width".into(), Value::Number(self.width as f64)),
            ("height".into(), Value::Number(self.height as f64)),
            ("routers".into(), Value::Number(self.routers as f64)),
            ("channels".into(), Value::Number(self.channels as f64)),
            ("load".into(), Value::Number(self.load)),
            ("cycles".into(), Value::Number(self.cycles as f64)),
            ("offered".into(), Value::Number(self.offered as f64)),
            ("delivered".into(), Value::Number(self.delivered as f64)),
            ("avg_latency".into(), Value::Number(self.avg_latency)),
            ("avg_hops".into(), Value::Number(self.avg_hops)),
        ])
    }
}

/// A design point of the scaling campaign.
#[derive(Debug, Clone, Copy)]
enum Design {
    Mesh(u8),
    Chiplet(ChipletConfig),
}

impl Design {
    fn name(&self) -> String {
        match self {
            Design::Mesh(n) => format!("mesh-{n}x{n}"),
            Design::Chiplet(cc) => {
                format!("chiplet-{}x{}x{}", cc.chips_x, cc.chips_y, cc.chip_w)
            }
        }
    }
}

/// The campaign's design points: flat meshes growing to 64x64 plus the
/// 64x64 chiplet fabric.
fn designs() -> Vec<Design> {
    vec![
        Design::Mesh(16),
        Design::Mesh(32),
        Design::Mesh(64),
        Design::Chiplet(ChipletConfig::new(4, 4, 16, 16)),
    ]
}

/// Loaded-pass injection rate per design. Kept well under each design's
/// saturation point so the loaded row measures steady-state latency, not
/// queue growth: a 64x64 mesh bisects at 64 links but a chiplet fabric
/// funnels all cross-boundary traffic through `4 boundaries x 2 links`,
/// so the fabric's rate must be far lower.
fn loaded_rate(d: &Design) -> f64 {
    match d {
        Design::Mesh(_) => 0.01,
        Design::Chiplet(_) => 0.001,
    }
}

impl Design {
    /// Builds the design's spec, with its grid and the traffic pattern its
    /// loaded pass uses.
    fn build(&self) -> Result<(NetworkSpec, Grid, DestPattern), BuildError> {
        let cfg = &SimConfig::baseline();
        Ok(match self {
            Design::Mesh(n) => {
                let grid = Grid::new(*n, *n);
                (mesh_chip(grid, cfg)?, grid, DestPattern::Uniform)
            }
            Design::Chiplet(cc) => (
                chiplet_chip(cc, cfg)?,
                cc.grid(),
                DestPattern::CrossChip {
                    chip_w: cc.chip_w,
                    chip_h: cc.chip_h,
                },
            ),
        })
    }
}

/// Runs one (design, load) point on a network built from `spec`.
fn run_point(
    design: &Design,
    (spec, grid, dest): (NetworkSpec, Grid, DestPattern),
    load: f64,
    cycles: u64,
) -> ScalingRow {
    let routers = spec.routers.len();
    let channels = spec.channels.len();
    let mut net =
        Network::new(spec, SimConfig::baseline()).expect("validated spec builds a network");
    let full = Rect::new(0, 0, grid.width, grid.height);
    // Seed ties the injector stream to the design point, not the thread
    // that runs it, so rows are byte-identical at any thread count.
    let seed = 0xA5CA1E ^ (grid.width as u64) << 8 ^ (load * 1e6) as u64;
    let traffic = TrafficSpec {
        dest,
        ..TrafficSpec::uniform(load)
    };
    let mut inj = OpenLoopEngine::new(grid, full, traffic, seed);
    let mut offered = 0u64;
    for _ in 0..cycles {
        if load > 0.0 {
            offered += inj.tick(&mut net) as u64;
        }
        net.step();
    }
    // Drain to completion (bounded: the fabrics are deadlock-free, so a
    // stall here is a bug worth failing loudly on).
    let mut budget = 1_000_000u64;
    while net.in_flight() > 0 {
        net.step();
        budget -= 1;
        assert!(budget > 0, "{} did not drain", design.name());
    }
    let stats = net.totals().stats;
    ScalingRow {
        design: design.name(),
        width: grid.width,
        height: grid.height,
        routers,
        channels,
        load,
        cycles,
        offered,
        delivered: stats.packets,
        avg_latency: stats.avg_packet_latency(),
        avg_hops: stats.avg_hops(),
    }
}

/// Runs `designs`, each idle and at its loaded rate (at least
/// `min_load`), as independent points over `threads` workers; rows come
/// back in (design, load) order.
fn run_points(
    designs: &[Design],
    cycles: u64,
    min_load: f64,
    threads: usize,
) -> Result<Vec<ScalingRow>, BuildError> {
    // One build per design: a 64x64 table fill dwarfs a clone, which
    // shares the routing tables copy-on-write.
    let built = designs
        .iter()
        .map(Design::build)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(run_indexed(2 * designs.len(), threads, |i| {
        let d = &designs[i / 2];
        let load = if i % 2 == 0 {
            0.0
        } else {
            loaded_rate(d).max(min_load)
        };
        run_point(d, built[i / 2].clone(), load, cycles)
    }))
}

/// Runs the scaling campaign: every design point idle and loaded, in a
/// fixed order. `cycles` is the injection window per point (the
/// `--quick` figure scale uses a short one); `threads > 1` runs the
/// points concurrently, each network on one thread.
///
/// Rows are byte-identical at any `threads` value.
///
/// # Errors
///
/// Returns [`BuildError`] if a design fails to build (which would be a
/// bug in the topology generators, not a configuration problem).
pub fn scaling_campaign(cycles: u64, threads: usize) -> Result<Vec<ScalingRow>, BuildError> {
    run_points(&designs(), cycles, 0.0, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_thread_invariant() {
        // A miniature analogue of the full campaign (tiny meshes, short
        // window) proving byte-identity across thread counts without the
        // 64x64 cost; CI's scaling-smoke runs the real sizes.
        let mini = [
            Design::Mesh(8),
            Design::Chiplet(ChipletConfig::new(2, 2, 4, 4)),
        ];
        let run = |threads| run_points(&mini, 600, 0.01, threads).unwrap();
        let serial = run(1);
        let par = run(4);
        assert_eq!(serial, par, "rows must be byte-identical across threads");
        // The loaded points actually moved packets, end to end.
        for r in &serial {
            if r.load > 0.0 {
                assert!(r.offered > 0, "{}: no packets offered", r.design);
                assert_eq!(r.offered, r.delivered, "{}: drain lost packets", r.design);
                assert!(r.avg_hops > 1.0, "{}: hops too low", r.design);
            } else {
                assert_eq!(r.offered, 0);
            }
        }
    }

    #[test]
    fn rows_serialize_with_design_first() {
        let r = ScalingRow {
            design: "mesh-16x16".into(),
            width: 16,
            height: 16,
            routers: 256,
            channels: 960,
            load: 0.01,
            cycles: 100,
            offered: 5,
            delivered: 5,
            avg_latency: 12.5,
            avg_hops: 6.0,
        };
        assert!(r
            .to_json()
            .to_string_compact()
            .starts_with(r#"{"design":"mesh-16x16","width":16"#));
    }
}
