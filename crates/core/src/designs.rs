//! The seven evaluated NoC designs (Sec. IV-A).
//!
//! | Design | Fabric | Runtime policy |
//! |---|---|---|
//! | Baseline | 8x8 mesh, 3 VCs/vnet | — |
//! | OSCAR | 8x8 mesh, 3 VCs/vnet | dynamic VC allocation |
//! | Shortcut | mesh + express links | — |
//! | FTBY | flattened butterfly, 4 VCs/vnet, `T_r`=3 | — |
//! | FTBY_PG | flattened butterfly | runtime power gating |
//! | Adapt-NoC-noRL | subNoCs, 2 VCs/vnet | statically chosen best topology |
//! | Adapt-NoC | subNoCs, 2 VCs/vnet | RL topology selection |

use crate::controller::{AdaptController, ControlError, RegionTelemetry, TopologyPolicy};
use crate::layout::ChipLayout;
use crate::policies::{OscarPolicy, PowerGatePolicy};
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::stats::EpochReport;
use adaptnoc_topology::chip::mesh_chip;
use adaptnoc_topology::ftby::ftby_chip;
use adaptnoc_topology::shortcut::{choose_shortcut_links, shortcut_chip, TrafficWeight};

/// The evaluated designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Mesh baseline.
    Baseline,
    /// OSCAR dynamic VC allocation on the mesh.
    Oscar,
    /// Mesh with application-specific long-range express links.
    Shortcut,
    /// Flattened butterfly.
    Ftby,
    /// Flattened butterfly with conventional runtime power gating.
    FtbyPg,
    /// Adapt-NoC with statically selected (oracle) topologies.
    AdaptNocNoRl,
    /// Adapt-NoC with the RL control policy.
    AdaptNoc,
}

impl DesignKind {
    /// All designs in the paper's presentation order.
    pub const ALL: [DesignKind; 7] = [
        DesignKind::Baseline,
        DesignKind::Oscar,
        DesignKind::Shortcut,
        DesignKind::Ftby,
        DesignKind::FtbyPg,
        DesignKind::AdaptNocNoRl,
        DesignKind::AdaptNoc,
    ];

    /// Display name used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            DesignKind::Baseline => "baseline",
            DesignKind::Oscar => "oscar",
            DesignKind::Shortcut => "shortcut",
            DesignKind::Ftby => "ftby",
            DesignKind::FtbyPg => "ftby_pg",
            DesignKind::AdaptNocNoRl => "adapt-noc-norl",
            DesignKind::AdaptNoc => "adapt-noc",
        }
    }

    /// The simulator configuration keeping buffer area equal (Sec. IV-A).
    pub fn sim_config(self) -> SimConfig {
        match self {
            DesignKind::Baseline | DesignKind::Oscar | DesignKind::Shortcut => {
                SimConfig::baseline()
            }
            DesignKind::Ftby | DesignKind::FtbyPg => SimConfig::flattened_butterfly(),
            DesignKind::AdaptNocNoRl | DesignKind::AdaptNoc => SimConfig::adapt_noc(),
        }
    }

    /// Whether this design reconfigures subNoCs.
    pub fn is_adaptive(self) -> bool {
        matches!(self, DesignKind::AdaptNocNoRl | DesignKind::AdaptNoc)
    }
}

impl std::fmt::Display for DesignKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runtime state of a built design.
#[derive(Debug)]
pub enum DesignRuntime {
    /// No runtime policy.
    Static,
    /// OSCAR VC re-partitioning.
    Oscar(OscarPolicy),
    /// FTBY_PG power gating.
    PowerGate(PowerGatePolicy),
    /// Adapt-NoC controller (fixed or RL policies).
    Adapt(Box<AdaptController>),
}

/// A built design: the live network plus its runtime policy.
#[derive(Debug)]
pub struct Design {
    /// Which design this is.
    pub kind: DesignKind,
    /// The chip layout it runs on.
    pub layout: ChipLayout,
    /// The live network.
    pub net: Network,
    /// Runtime policy state.
    pub runtime: DesignRuntime,
}

impl Design {
    /// Builds a design for a chip layout. Adaptive designs take one
    /// [`TopologyPolicy`] per region; the Shortcut design uses
    /// `traffic_hint` to place its express links.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError`] on construction failures.
    ///
    /// # Panics
    ///
    /// Panics if an adaptive design receives the wrong number of policies.
    pub fn build(
        kind: DesignKind,
        layout: ChipLayout,
        traffic_hint: &[TrafficWeight],
        policies: Vec<TopologyPolicy>,
        seed: u64,
    ) -> Result<Design, ControlError> {
        let cfg = kind.sim_config();
        let grid = layout.grid;
        let (net, runtime) = match kind {
            DesignKind::Baseline => {
                let spec = mesh_chip(grid, &cfg)?;
                (Network::new(spec, cfg)?, DesignRuntime::Static)
            }
            DesignKind::Oscar => {
                let spec = mesh_chip(grid, &cfg)?;
                let policy = OscarPolicy::new(&cfg);
                (Network::new(spec, cfg)?, DesignRuntime::Oscar(policy))
            }
            DesignKind::Shortcut => {
                let links = choose_shortcut_links(&grid, traffic_hint, 6);
                let spec = shortcut_chip(grid, &links, &cfg)?;
                (Network::new(spec, cfg)?, DesignRuntime::Static)
            }
            DesignKind::Ftby => {
                let spec = ftby_chip(grid, &cfg)?;
                (Network::new(spec, cfg)?, DesignRuntime::Static)
            }
            DesignKind::FtbyPg => {
                let spec = ftby_chip(grid, &cfg)?;
                let pg = PowerGatePolicy::new(spec.routers.len());
                (Network::new(spec, cfg)?, DesignRuntime::PowerGate(pg))
            }
            DesignKind::AdaptNocNoRl | DesignKind::AdaptNoc => {
                let ctl = AdaptController::new(layout.clone(), policies, cfg.clone(), seed);
                let spec = ctl.initial_spec()?;
                (
                    Network::new(spec, cfg)?,
                    DesignRuntime::Adapt(Box::new(ctl)),
                )
            }
        };
        Ok(Design {
            kind,
            layout,
            net,
            runtime,
        })
    }

    /// Per-cycle hook (cheap): advances reconfigurations and power gating.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError`] if a reconfiguration step fails.
    pub fn tick(&mut self) -> Result<(), ControlError> {
        match &mut self.runtime {
            DesignRuntime::Static | DesignRuntime::Oscar(_) => Ok(()),
            DesignRuntime::PowerGate(pg) => {
                pg.tick(&mut self.net);
                Ok(())
            }
            DesignRuntime::Adapt(ctl) => ctl.tick(&mut self.net),
        }
    }

    /// Epoch boundary hook.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError`] on reconfiguration construction failures.
    pub fn on_epoch(
        &mut self,
        report: &EpochReport,
        telemetry: &[RegionTelemetry],
    ) -> Result<(), ControlError> {
        match &mut self.runtime {
            DesignRuntime::Static | DesignRuntime::PowerGate(_) => Ok(()),
            DesignRuntime::Oscar(p) => {
                p.on_epoch(&mut self.net, report);
                Ok(())
            }
            DesignRuntime::Adapt(ctl) => ctl.on_epoch(&mut self.net, telemetry),
        }
    }

    /// The Adapt controller, if this design has one.
    pub fn controller(&self) -> Option<&AdaptController> {
        match &self.runtime {
            DesignRuntime::Adapt(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable access to the Adapt controller, if any.
    pub fn controller_mut(&mut self) -> Option<&mut AdaptController> {
        match &mut self.runtime {
            DesignRuntime::Adapt(c) => Some(c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_sim::prelude::Packet;
    use adaptnoc_topology::geom::{Coord, Rect};
    use adaptnoc_topology::regions::TopologyKind;

    fn layout() -> ChipLayout {
        ChipLayout::single(Rect::new(0, 0, 4, 4), false)
    }

    fn policies_for(kind: DesignKind) -> Vec<TopologyPolicy> {
        if kind.is_adaptive() {
            vec![TopologyPolicy::Fixed(TopologyKind::Cmesh)]
        } else {
            vec![]
        }
    }

    #[test]
    fn all_designs_build_and_carry_traffic() {
        for kind in DesignKind::ALL {
            let layout = layout();
            let grid = layout.grid;
            let mut d = Design::build(kind, layout, &[], policies_for(kind), 1).unwrap();
            let a = grid.node(Coord::new(0, 0));
            let b = grid.node(Coord::new(3, 3));
            let t = [RegionTelemetry::default()];
            d.on_epoch(&EpochReport::default(), &t).unwrap();
            d.net.inject(Packet::request(1, a, b, 0)).unwrap();
            d.net.inject(Packet::reply(2, b, a, 0)).unwrap();
            for _ in 0..4000 {
                d.net.step();
                d.tick().unwrap();
            }
            assert_eq!(d.net.totals().stats.packets, 2, "{kind} failed to deliver");
            assert_eq!(d.net.in_flight(), 0, "{kind} left traffic");
        }
    }

    #[test]
    fn design_configs_match_paper() {
        assert_eq!(DesignKind::Baseline.sim_config().vcs_per_vnet, 3);
        assert_eq!(DesignKind::AdaptNoc.sim_config().vcs_per_vnet, 2);
        assert_eq!(DesignKind::Ftby.sim_config().vcs_per_vnet, 4);
        assert_eq!(DesignKind::Ftby.sim_config().router_latency, 3);
        assert_eq!(DesignKind::Baseline.sim_config().router_latency, 2);
        assert!(DesignKind::AdaptNoc.sim_config().injection_bypass);
        assert!(!DesignKind::Baseline.sim_config().injection_bypass);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = DesignKind::ALL.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn adaptive_design_reconfigures() {
        let layout = layout();
        let mut d = Design::build(
            DesignKind::AdaptNocNoRl,
            layout,
            &[],
            vec![TopologyPolicy::Fixed(TopologyKind::Torus)],
            1,
        )
        .unwrap();
        d.on_epoch(&EpochReport::default(), &[RegionTelemetry::default()])
            .unwrap();
        for _ in 0..2000 {
            d.net.step();
            d.tick().unwrap();
        }
        assert!(d.net.spec().channels.iter().any(|c| c.dateline));
        assert_eq!(d.controller().unwrap().regions[0].reconfig_count, 1);
    }

    #[test]
    fn ftby_pg_gates_routers_over_time() {
        let layout = layout();
        let mut d = Design::build(DesignKind::FtbyPg, layout, &[], vec![], 1).unwrap();
        for _ in 0..500 {
            d.net.step();
            d.tick().unwrap();
        }
        let e = d.net.take_epoch();
        assert!(
            e.static_cycles.router_off_cycles > 0,
            "idle FTBY_PG routers must sleep"
        );
    }
}
