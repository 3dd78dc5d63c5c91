//! Semantic compilation: [`Scenario`] → [`ExecPlan`].
//!
//! The parser only checks syntax; this pass resolves names and checks
//! meaning — region references, rects against the grid, link endpoints
//! against the chip's actual channels (producing the [`FaultSchedule`]
//! the fault controller consumes), parameter ranges, and sweep-placeholder
//! usage. The output is plain resolved data the runner (or a hand-written
//! test) can execute directly; a hand-built `ExecPlan` with the same
//! contents behaves identically to a compiled one, which is what the
//! fault-trace equivalence proptest pins down.

use crate::ast::{Action, LoadAst, PatternAst, Scenario, Sweep, TrafficCmd};
use adaptnoc_faults::schedule::{FaultEvent, FaultKind, FaultSchedule};
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::{NodeId, RouterId};
use adaptnoc_topology::chip::mesh_chip;
use adaptnoc_topology::chiplet::{chiplet_chip, ChipletConfig};
use adaptnoc_topology::geom::{Grid, Rect};
use adaptnoc_topology::regions::TopologyKind;
use adaptnoc_workloads::open::{Arrival, DestPattern, RateShape, TrafficSpec};
use std::fmt;

/// A semantic error found while compiling a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// What is wrong.
    pub msg: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for CompileError {}

fn err(msg: impl Into<String>) -> CompileError {
    CompileError { msg: msg.into() }
}

/// A resolved traffic phase: at `at`, the engine driving `rect` switches
/// to `spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficEvent {
    /// Firing cycle.
    pub at: u64,
    /// Source scope (the engine's region).
    pub rect: Rect,
    /// The traffic to generate. When `sweep_load` is set the rate is a
    /// placeholder the runner overrides with the campaign point's load.
    pub spec: TrafficSpec,
    /// Whether `spec.rate` is the `load sweep` placeholder.
    pub sweep_load: bool,
}

/// A resolved reconfiguration trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigEvent {
    /// Firing cycle.
    pub at: u64,
    /// Region to reconfigure.
    pub rect: Rect,
    /// Target subNoC topology.
    pub kind: TopologyKind,
}

/// A compiled, fully resolved scenario ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// The chip grid.
    pub grid: Grid,
    /// Master seed.
    pub seed: u64,
    /// Unmeasured lead-in cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub duration: u64,
    /// Epoch length, cycles.
    pub epoch: u64,
    /// Named regions (resolved rects, declaration order).
    pub regions: Vec<(String, Rect)>,
    /// Chiplet fabric, when the scenario declared one. The runner then
    /// builds the network from [`chiplet_chip`] instead of a flat mesh;
    /// `grid` always equals the fabric's tile footprint.
    pub fabric: Option<ChipletConfig>,
    /// Scripted faults, routed through the fault controller.
    pub faults: FaultSchedule,
    /// Traffic phases, sorted by firing cycle (stable).
    pub traffic: Vec<TrafficEvent>,
    /// Reconfiguration triggers, sorted by firing cycle (stable).
    pub reconfigs: Vec<ReconfigEvent>,
    /// The load sweep, if declared.
    pub sweep: Option<Sweep>,
}

impl ExecPlan {
    /// Whether any traffic phase uses the `load sweep` placeholder (and
    /// therefore needs a per-point load from the campaign).
    pub fn uses_sweep_load(&self) -> bool {
        self.traffic.iter().any(|t| t.sweep_load)
    }

    /// Total run length (warmup + measured duration).
    pub fn total_cycles(&self) -> u64 {
        self.warmup + self.duration
    }
}

fn check_prob(v: f64, what: &str) -> Result<(), CompileError> {
    if !(0.0..=1.0).contains(&v) {
        return Err(err(format!("{what} {v} must be in [0, 1]")));
    }
    Ok(())
}

fn check_rate(v: f64, what: &str) -> Result<(), CompileError> {
    if !v.is_finite() || v < 0.0 {
        return Err(err(format!("{what} {v} must be finite and non-negative")));
    }
    Ok(())
}

struct Compiler<'a> {
    sc: &'a Scenario,
    grid: Grid,
    full: Rect,
}

impl Compiler<'_> {
    fn region(&self, name: &str) -> Result<Rect, CompileError> {
        self.sc
            .regions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| *r)
            .ok_or_else(|| err(format!("unknown region `{name}`")))
    }

    fn traffic(&self, at: u64, t: &TrafficCmd) -> Result<TrafficEvent, CompileError> {
        let rect = match &t.region {
            Some(name) => self.region(name)?,
            None => self.full,
        };
        let dest = match &t.pattern {
            PatternAst::Uniform => DestPattern::Uniform,
            PatternAst::Transpose => DestPattern::Transpose,
            PatternAst::Neighbor => DestPattern::Neighbor,
            PatternAst::Zipf(s) => {
                check_rate(*s, "zipf exponent")?;
                DestPattern::Zipf { s: *s }
            }
            PatternAst::HotspotNode(n) => {
                if *n as usize >= self.grid.tiles() {
                    return Err(err(format!("hotspot node {n} is outside the grid")));
                }
                DestPattern::Hotspot(NodeId(*n))
            }
            PatternAst::HotspotRegion(name) => DestPattern::HotspotRegion(self.region(name)?),
        };
        let (rate, sweep_load) = match t.load {
            LoadAst::Fixed(v) => {
                check_rate(v, "load")?;
                (v, false)
            }
            LoadAst::Sweep => {
                if self.sc.sweep.is_none() {
                    return Err(err("`load sweep` used without a `sweep load` directive"));
                }
                (0.0, true)
            }
        };
        if let Arrival::Mmpp { burst, p_on, p_off } = t.arrival {
            check_rate(burst, "mmpp burst factor")?;
            check_prob(p_on, "mmpp on-probability")?;
            check_prob(p_off, "mmpp off-probability")?;
        }
        match t.shape {
            RateShape::Constant => {}
            RateShape::RampTo { rate, .. } => check_rate(rate, "ramp target")?,
            RateShape::Diurnal { amplitude, .. } => check_rate(amplitude, "diurnal amplitude")?,
            RateShape::Burst { factor, .. } => check_rate(factor, "burst factor")?,
        }
        Ok(TrafficEvent {
            at,
            rect,
            spec: TrafficSpec {
                rate,
                arrival: t.arrival,
                dest,
                shape: t.shape,
            },
            sweep_load,
        })
    }
}

/// Compiles a parsed scenario into an executable plan.
///
/// # Errors
///
/// Returns [`CompileError`] on unknown regions, rects or ids outside the
/// grid, link endpoints with no channel between them, out-of-range
/// parameters, or a `load sweep` placeholder without a sweep directive.
pub fn compile(sc: &Scenario) -> Result<ExecPlan, CompileError> {
    let grid = Grid::new(sc.grid.0, sc.grid.1);
    let full = Rect::new(0, 0, sc.grid.0, sc.grid.1);
    if sc.duration == 0 {
        return Err(err("duration must be positive"));
    }
    if sc.epoch == 0 {
        return Err(err("epoch must be positive"));
    }
    for (i, (name, rect)) in sc.regions.iter().enumerate() {
        if !rect.fits(&grid) {
            return Err(err(format!("region `{name}` {rect} exceeds the grid")));
        }
        if rect.tiles() == 0 {
            return Err(err(format!("region `{name}` is empty")));
        }
        if sc.regions[..i].iter().any(|(n, _)| n == name) {
            return Err(err(format!("region `{name}` declared twice")));
        }
    }
    if let Some(s) = sc.sweep {
        check_rate(s.from, "sweep start")?;
        check_rate(s.to, "sweep end")?;
        if s.step <= 0.0 || s.points().is_empty() {
            return Err(err("sweep must expand to at least one load point"));
        }
    }

    // A declared fabric fixes the network shape: check the grid matches
    // its footprint and build the chiplet config the runner will use.
    let fabric = match sc.fabric {
        Some(fb) => {
            let cc = ChipletConfig {
                link_latency: fb.link_latency,
                links_per_edge: fb.links_per_edge,
                ..ChipletConfig::new(fb.chips_x, fb.chips_y, fb.chip_w, fb.chip_h)
            };
            cc.validate().map_err(|e| err(e.to_string()))?;
            let fp = cc.grid();
            if (fp.width, fp.height) != (sc.grid.0, sc.grid.1) {
                return Err(err(format!(
                    "grid {}x{} does not match the chiplet footprint {}x{}",
                    sc.grid.0, sc.grid.1, fp.width, fp.height
                )));
            }
            Some(cc)
        }
        None => None,
    };

    // The baseline chip resolves link endpoints to channel keys; this is
    // also the spec the runner starts from. On a chiplet fabric that is
    // the hierarchical spec, so kill/glitch targets can name the
    // inter-chip links themselves.
    let base = match &fabric {
        Some(cc) => chiplet_chip(cc, &SimConfig::baseline()).map_err(|e| err(e.to_string()))?,
        None => mesh_chip(grid, &SimConfig::baseline()).map_err(|e| err(e.to_string()))?,
    };
    let routers = base.routers.len() as u64;
    let link_key = |from: u16, to: u16| {
        base.channels
            .iter()
            .find(|c| c.src.router.0 == from && c.dst.router.0 == to)
            .map(|c| c.key())
            .ok_or_else(|| err(format!("no channel between routers {from} and {to}")))
    };

    let c = Compiler { sc, grid, full };
    let mut faults = Vec::new();
    let mut traffic = Vec::new();
    let mut reconfigs = Vec::new();
    // Permanent faults and reconfiguration both trigger the recovery
    // path, which rebuilds the chip as a (degraded) flat mesh — that
    // would silently clobber a chiplet fabric's inter-chip links, so on
    // fabrics only self-healing transients are allowed.
    let on_fabric = |what: &str| -> CompileError {
        err(format!(
            "{what} is not supported on a chiplet fabric (recovery would \
             rebuild a flat mesh); use `glitch link` for transient SerDes \
             outages"
        ))
    };
    for ev in &sc.events {
        match &ev.action {
            Action::Traffic(t) => traffic.push(c.traffic(ev.at, t)?),
            Action::KillRouter(r) => {
                if fabric.is_some() {
                    return Err(on_fabric("`kill router`"));
                }
                if *r as u64 >= routers {
                    return Err(err(format!("router {r} is outside the grid")));
                }
                faults.push(FaultEvent {
                    at: ev.at,
                    kind: FaultKind::PermanentRouter {
                        router: RouterId(*r),
                    },
                });
            }
            Action::KillLink { from, to } => {
                if fabric.is_some() {
                    return Err(on_fabric("`kill link`"));
                }
                faults.push(FaultEvent {
                    at: ev.at,
                    kind: FaultKind::PermanentLink {
                        key: link_key(*from, *to)?,
                    },
                });
            }
            Action::GlitchLink { from, to, duration } => faults.push(FaultEvent {
                at: ev.at,
                kind: FaultKind::TransientLink {
                    key: link_key(*from, *to)?,
                    duration: *duration,
                },
            }),
            Action::Reconfigure { region, to } => {
                if fabric.is_some() {
                    return Err(on_fabric("`reconfigure`"));
                }
                reconfigs.push(ReconfigEvent {
                    at: ev.at,
                    rect: c.region(region)?,
                    kind: *to,
                });
            }
        }
    }
    traffic.sort_by_key(|t| t.at);
    reconfigs.sort_by_key(|r| r.at);
    Ok(ExecPlan {
        grid,
        seed: sc.seed,
        warmup: sc.warmup,
        duration: sc.duration,
        epoch: sc.epoch,
        regions: sc.regions.clone(),
        fabric,
        faults: FaultSchedule::new(faults),
        traffic,
        reconfigs,
        sweep: sc.sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan(src: &str) -> Result<ExecPlan, CompileError> {
        compile(&parse(src).unwrap())
    }

    #[test]
    fn issue_example_compiles() {
        let p = plan(
            "grid 8 8; region B 4 4 4 4;\n\
             t=0 uniform load 0.3;\n\
             t=20K hotspot region B load 0.9;\n\
             t=40K kill router 12;\n\
             t=50K reconfigure region B to cmesh;",
        )
        .unwrap();
        assert_eq!(p.traffic.len(), 2);
        assert_eq!(p.faults.len(), 1);
        assert_eq!(p.reconfigs.len(), 1);
        assert_eq!(p.reconfigs[0].rect, Rect::new(4, 4, 4, 4));
        assert_eq!(
            p.traffic[1].spec.dest,
            DestPattern::HotspotRegion(Rect::new(4, 4, 4, 4))
        );
        assert!(!p.uses_sweep_load());
    }

    #[test]
    fn link_faults_resolve_to_channel_keys() {
        let p = plan("grid 4 4; t=100 kill link 0 -> 1; t=200 glitch link 5 -> 9 for 1K;").unwrap();
        assert_eq!(p.faults.len(), 2);
        let FaultKind::PermanentLink { key } = p.faults.events()[0].kind else {
            panic!("expected a permanent link fault");
        };
        assert_eq!(key.src.router, RouterId(0));
        assert_eq!(key.dst.router, RouterId(1));
    }

    #[test]
    fn semantic_errors_are_caught() {
        assert!(
            plan("t=0 uniform load 0.3 in region X;").is_err(),
            "bad region"
        );
        assert!(
            plan("grid 4 4; t=0 kill link 0 -> 9;").is_err(),
            "no channel"
        );
        assert!(plan("grid 4 4; t=0 kill router 99;").is_err(), "bad router");
        assert!(plan("t=0 uniform load sweep;").is_err(), "sweep undeclared");
        assert!(plan("grid 4 4; t=0 hotspot node 200 load 0.1;").is_err());
        assert!(
            plan("region A 6 6 4 4; t=0 uniform load 0.1;").is_err(),
            "rect off-grid"
        );
        assert!(plan("duration 0;").is_err());
        assert!(
            plan("t=0 uniform load 0.1 mmpp 4 1.5 0.1;").is_err(),
            "probability out of range"
        );
    }

    #[test]
    fn chiplet_scenarios_compile_against_the_fabric_spec() {
        // Routers 19 (tile (3,2)) and 20 (tile (4,2)) sit on opposite
        // sides of the vertical chip boundary of a 2x2 fabric of 4x4
        // chips — with one link per edge the gateway is the boundary
        // midpoint — so the channel between them only exists in the
        // chiplet spec, as an inter-chip link.
        let p = plan(
            "chiplet 2 2 4 4 latency 6 links 1;\n\
             t=0 uniform load 0.1;\n\
             t=500 glitch link 19 -> 20 for 200;",
        )
        .unwrap();
        let cc = p.fabric.expect("fabric compiled");
        assert_eq!((cc.chips_x, cc.chips_y, cc.chip_w, cc.chip_h), (2, 2, 4, 4));
        assert_eq!(cc.link_latency, 6);
        assert_eq!(cc.links_per_edge, 1);
        assert_eq!(p.faults.len(), 1);
        let FaultKind::TransientLink { key, duration } = p.faults.events()[0].kind else {
            panic!("expected a transient link fault");
        };
        assert_eq!(
            (key.src.router, key.dst.router),
            (RouterId(19), RouterId(20))
        );
        assert_eq!(duration, 200);
        // Link endpoints resolve against the *fabric* spec: a boundary
        // pair with no gateway there has a channel on a plain 8x8 mesh
        // but not on the fabric, so naming it fails.
        assert!(
            plan("chiplet 2 2 4 4 links 1; t=0 glitch link 27 -> 28 for 100;").is_err(),
            "27 -> 28 crosses the boundary away from the gateway"
        );
    }

    #[test]
    fn fabrics_reject_permanent_faults_and_reconfiguration() {
        for bad in [
            "chiplet 2 2 4 4; t=0 kill router 5;",
            "chiplet 2 2 4 4; t=0 kill link 27 -> 28;",
            "chiplet 2 2 4 4; region A 0 0 4 4; t=0 reconfigure region A to torus;",
        ] {
            let e = plan(bad).unwrap_err();
            assert!(e.msg.contains("chiplet fabric"), "{bad}: {}", e.msg);
        }
        // A hand-desynchronised grid is caught even though the parser
        // normally derives it.
        let mut sc = parse("chiplet 2 2 4 4;").unwrap();
        sc.grid = (16, 16);
        let e = compile(&sc).unwrap_err();
        assert!(e.msg.contains("footprint"), "{}", e.msg);
    }

    #[test]
    fn sweep_placeholder_requires_directive_and_flags_plan() {
        let p = plan("sweep load 0.1 to 0.3 step 0.1; t=0 uniform load sweep poisson;").unwrap();
        assert!(p.uses_sweep_load());
        assert_eq!(p.sweep.unwrap().points().len(), 3);
    }
}
