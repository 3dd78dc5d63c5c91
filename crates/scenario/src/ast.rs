//! The scenario abstract syntax tree and its canonical formatter.
//!
//! A [`Scenario`] is the parsed form of a `.scn` file: run directives
//! (grid, seed, warmup/duration/epoch, named regions, an optional load
//! sweep) plus a time-ordered list of [`Event`]s — traffic phases, fault
//! strikes, and reconfiguration triggers.
//!
//! `Display` produces the *canonical* form: every directive spelled out
//! (defaults included), times printed with the largest magnitude suffix
//! that divides them evenly, and default arrival/shape clauses omitted.
//! Canonical text reparses to an equal AST (`parse(format(s)) == s`),
//! the round-trip property the proptests pin down.

use adaptnoc_topology::geom::Rect;
use adaptnoc_topology::regions::TopologyKind;
use std::fmt;

/// Formats a cycle count with the largest magnitude suffix that divides
/// it evenly (`2000000` → `2M`).
pub(crate) fn fmt_time(t: u64) -> String {
    if t > 0 && t.is_multiple_of(1_000_000_000) {
        format!("{}G", t / 1_000_000_000)
    } else if t > 0 && t.is_multiple_of(1_000_000) {
        format!("{}M", t / 1_000_000)
    } else if t > 0 && t.is_multiple_of(1_000) {
        format!("{}K", t / 1_000)
    } else {
        t.to_string()
    }
}

/// A chiplet fabric directive, surface form: `chiplet CX CY CW CH
/// latency T links N`. The grid becomes the `CX*CW x CY*CH` tile array
/// and the runner builds the hierarchical chiplet network (per-chip
/// meshes joined by serialized inter-chip links) instead of the flat
/// mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricAst {
    /// Chips per package row.
    pub chips_x: u8,
    /// Chips per package column.
    pub chips_y: u8,
    /// Tiles per chip row.
    pub chip_w: u8,
    /// Tiles per chip column.
    pub chip_h: u8,
    /// Inter-chip link latency, cycles.
    pub link_latency: u8,
    /// Parallel links per chip boundary.
    pub links_per_edge: u8,
}

impl Default for FabricAst {
    fn default() -> Self {
        FabricAst {
            chips_x: 2,
            chips_y: 2,
            chip_w: 4,
            chip_h: 4,
            link_latency: 4,
            links_per_edge: 2,
        }
    }
}

/// A load sweep directive: campaign points from `from` to `to`
/// (inclusive, within float tolerance) in `step` increments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    /// First load point.
    pub from: f64,
    /// Last load point (inclusive).
    pub to: f64,
    /// Increment between points.
    pub step: f64,
}

impl Sweep {
    /// The load points this sweep expands to.
    pub fn points(&self) -> Vec<f64> {
        let mut out = Vec::new();
        if self.step <= 0.0 {
            return out;
        }
        let mut k = 0.0;
        loop {
            // Points sit on the `from + k*step` grid, snapped to 1e-9
            // load resolution so float error never leaks into row labels
            // (0.30000000000000004 → 0.3).
            let v = ((self.from + k * self.step) * 1e9).round() / 1e9;
            if v > self.to + 1e-9 {
                return out;
            }
            out.push(v);
            k += 1.0;
        }
    }
}

/// Destination pattern, surface form (region names not yet resolved).
#[derive(Debug, Clone, PartialEq)]
pub enum PatternAst {
    /// Uniform random.
    Uniform,
    /// `(x, y) -> (y, x)`.
    Transpose,
    /// Random adjacent tile.
    Neighbor,
    /// Zipf-skewed popularity with exponent `s`.
    Zipf(f64),
    /// All traffic to one node id.
    HotspotNode(u16),
    /// All traffic into a named region.
    HotspotRegion(String),
}

/// Offered load, surface form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadAst {
    /// A fixed rate in packets per node per cycle.
    Fixed(f64),
    /// The campaign sweep placeholder (`load sweep`): each campaign
    /// point substitutes its own rate.
    Sweep,
}

/// Arrival process, surface form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalAst {
    /// At most one packet per source per cycle (the default; omitted in
    /// canonical form).
    Bernoulli,
    /// Poisson arrivals.
    Poisson,
    /// Markov-modulated Poisson: `mmpp BURST P_ON P_OFF`.
    Mmpp {
        /// On-state rate multiplier.
        burst: f64,
        /// Off→On probability per cycle.
        p_on: f64,
        /// On→Off probability per cycle.
        p_off: f64,
    },
}

/// Rate shaping, surface form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShapeAst {
    /// No shaping (the default; omitted in canonical form).
    Constant,
    /// `ramp to RATE over TIME`.
    RampTo {
        /// Target rate.
        rate: f64,
        /// Ramp duration, cycles.
        over: u64,
    },
    /// `diurnal AMPLITUDE period TIME`.
    Diurnal {
        /// Relative swing.
        amplitude: f64,
        /// Full period, cycles.
        period: u64,
    },
    /// `burst FACTOR every TIME for TIME`.
    Burst {
        /// Rate multiplier in the burst window.
        factor: f64,
        /// Interval between burst starts, cycles.
        every: u64,
        /// Burst length, cycles.
        len: u64,
    },
}

/// One traffic phase command.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficCmd {
    /// Where packets go.
    pub pattern: PatternAst,
    /// How much is offered.
    pub load: LoadAst,
    /// The arrival process.
    pub arrival: ArrivalAst,
    /// Time-varying modulation.
    pub shape: ShapeAst,
    /// Source region name (`in region NAME`); `None` drives the whole
    /// grid.
    pub region: Option<String>,
}

/// One scenario action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Install a traffic phase (replacing the active phase for the same
    /// source scope).
    Traffic(TrafficCmd),
    /// Permanently fail a router.
    KillRouter(u16),
    /// Permanently fail the `from -> to` link.
    KillLink {
        /// Source router id.
        from: u16,
        /// Destination router id.
        to: u16,
    },
    /// Transiently fail the `from -> to` link for `duration` cycles.
    GlitchLink {
        /// Source router id.
        from: u16,
        /// Destination router id.
        to: u16,
        /// Outage length, cycles.
        duration: u64,
    },
    /// Reconfigure a named region to a new subNoC topology.
    Reconfigure {
        /// Region name.
        region: String,
        /// Target topology.
        to: TopologyKind,
    },
}

/// A timed action.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Cycle (relative to the run start, warmup included) at which the
    /// action fires.
    pub at: u64,
    /// What happens.
    pub action: Action,
}

/// A parsed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Grid width and height in tiles.
    pub grid: (u8, u8),
    /// The chiplet fabric, if declared (`None` runs a flat mesh chip).
    /// When set, `grid` always equals the fabric's tile footprint — the
    /// parser derives it from the `chiplet` directive.
    pub fabric: Option<FabricAst>,
    /// Master seed for all scenario randomness.
    pub seed: u64,
    /// Cycles discarded before measurement starts.
    pub warmup: u64,
    /// Measured cycles (the run is `warmup + duration` long).
    pub duration: u64,
    /// Measurement-epoch length, cycles.
    pub epoch: u64,
    /// Named rectangles, in declaration order.
    pub regions: Vec<(String, Rect)>,
    /// The load sweep, if declared.
    pub sweep: Option<Sweep>,
    /// Timed actions, in file order.
    pub events: Vec<Event>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            grid: (8, 8),
            fabric: None,
            seed: 1,
            warmup: 20_000,
            duration: 100_000,
            epoch: 10_000,
            regions: Vec::new(),
            sweep: None,
            events: Vec::new(),
        }
    }
}

impl fmt::Display for PatternAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternAst::Uniform => f.write_str("uniform"),
            PatternAst::Transpose => f.write_str("transpose"),
            PatternAst::Neighbor => f.write_str("neighbor"),
            PatternAst::Zipf(s) => write!(f, "zipf {s}"),
            PatternAst::HotspotNode(n) => write!(f, "hotspot node {n}"),
            PatternAst::HotspotRegion(r) => write!(f, "hotspot region {r}"),
        }
    }
}

impl fmt::Display for TrafficCmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} load ", self.pattern)?;
        match self.load {
            LoadAst::Fixed(v) => write!(f, "{v}")?,
            LoadAst::Sweep => f.write_str("sweep")?,
        }
        match self.arrival {
            ArrivalAst::Bernoulli => {}
            ArrivalAst::Poisson => f.write_str(" poisson")?,
            ArrivalAst::Mmpp { burst, p_on, p_off } => {
                write!(f, " mmpp {burst} {p_on} {p_off}")?;
            }
        }
        match self.shape {
            ShapeAst::Constant => {}
            ShapeAst::RampTo { rate, over } => {
                write!(f, " ramp to {rate} over {}", fmt_time(over))?;
            }
            ShapeAst::Diurnal { amplitude, period } => {
                write!(f, " diurnal {amplitude} period {}", fmt_time(period))?;
            }
            ShapeAst::Burst { factor, every, len } => {
                write!(
                    f,
                    " burst {factor} every {} for {}",
                    fmt_time(every),
                    fmt_time(len)
                )?;
            }
        }
        if let Some(r) = &self.region {
            write!(f, " in region {r}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Traffic(t) => t.fmt(f),
            Action::KillRouter(r) => write!(f, "kill router {r}"),
            Action::KillLink { from, to } => write!(f, "kill link {from} -> {to}"),
            Action::GlitchLink { from, to, duration } => {
                write!(f, "glitch link {from} -> {to} for {}", fmt_time(*duration))
            }
            Action::Reconfigure { region, to } => {
                write!(f, "reconfigure region {region} to {}", to.name())
            }
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "grid {} {};", self.grid.0, self.grid.1)?;
        if let Some(fb) = self.fabric {
            writeln!(
                f,
                "chiplet {} {} {} {} latency {} links {};",
                fb.chips_x, fb.chips_y, fb.chip_w, fb.chip_h, fb.link_latency, fb.links_per_edge
            )?;
        }
        writeln!(f, "seed {};", self.seed)?;
        writeln!(f, "warmup {};", fmt_time(self.warmup))?;
        writeln!(f, "duration {};", fmt_time(self.duration))?;
        writeln!(f, "epoch {};", fmt_time(self.epoch))?;
        for (name, r) in &self.regions {
            writeln!(f, "region {name} {} {} {} {};", r.x, r.y, r.w, r.h)?;
        }
        if let Some(s) = self.sweep {
            writeln!(f, "sweep load {} to {} step {};", s.from, s.to, s.step)?;
        }
        for e in &self.events {
            writeln!(f, "t={} {};", fmt_time(e.at), e.action)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_uses_largest_even_suffix() {
        assert_eq!(fmt_time(0), "0");
        assert_eq!(fmt_time(999), "999");
        assert_eq!(fmt_time(2_000), "2K");
        assert_eq!(fmt_time(2_500), "2500");
        assert_eq!(fmt_time(3_000_000), "3M");
        assert_eq!(fmt_time(1_000_000_000), "1G");
    }

    #[test]
    fn sweep_points_are_step_aligned() {
        let s = Sweep {
            from: 0.05,
            to: 0.3,
            step: 0.05,
        };
        let pts = s.points();
        assert_eq!(pts.len(), 6);
        assert!((pts[5] - 0.3).abs() < 1e-12);
        assert!(Sweep {
            from: 0.1,
            to: 0.5,
            step: 0.0
        }
        .points()
        .is_empty());
    }

    #[test]
    fn canonical_form_spells_out_defaults() {
        let s = Scenario::default();
        let text = s.to_string();
        assert!(text.contains("grid 8 8;"));
        assert!(text.contains("warmup 20K;"));
        assert!(text.contains("duration 100K;"));
    }
}
