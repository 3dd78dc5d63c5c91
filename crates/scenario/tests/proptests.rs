//! Randomized round-trip property: any well-formed scenario AST formats
//! to canonical text that reparses to the identical AST. Cases come from
//! the in-tree seeded PRNG for reproducibility.

use adaptnoc_scenario::prelude::*;
use adaptnoc_sim::rng::Rng;
use adaptnoc_topology::geom::Rect;
use adaptnoc_topology::regions::TopologyKind;
use adaptnoc_workloads::open::{Arrival, RateShape};

/// A float that formats without scientific notation (the lexer reads
/// plain `INT.FRAC` literals only).
fn nice_f64(rng: &mut Rng) -> f64 {
    rng.random_range(0, 80) as f64 * 0.05
}

fn nice_prob(rng: &mut Rng) -> f64 {
    rng.random_range(0, 21) as f64 * 0.05
}

fn nice_time(rng: &mut Rng) -> u64 {
    // Mix raw values with suffix-friendly multiples so both fmt_time
    // branches are exercised.
    match rng.random_range(0, 3) {
        0 => rng.random_range(0, 5000) as u64,
        1 => rng.random_range(1, 500) as u64 * 1_000,
        _ => rng.random_range(1, 20) as u64 * 1_000_000,
    }
}

fn random_pattern(rng: &mut Rng, regions: &[(String, Rect)]) -> PatternAst {
    match rng.random_range(0, 6) {
        0 => PatternAst::Uniform,
        1 => PatternAst::Transpose,
        2 => PatternAst::Neighbor,
        3 => PatternAst::Zipf(0.5 + nice_f64(rng)),
        4 => PatternAst::HotspotNode(rng.random_range(0, 64) as u16),
        _ => match regions.first() {
            Some((name, _)) => PatternAst::HotspotRegion(name.clone()),
            None => PatternAst::Uniform,
        },
    }
}

fn random_traffic(rng: &mut Rng, sc: &Scenario) -> TrafficCmd {
    TrafficCmd {
        pattern: random_pattern(rng, &sc.regions),
        load: if sc.sweep.is_some() && rng.random_bool(0.3) {
            LoadAst::Sweep
        } else {
            LoadAst::Fixed(nice_f64(rng))
        },
        arrival: match rng.random_range(0, 3) {
            0 => Arrival::Bernoulli,
            1 => Arrival::Poisson,
            _ => Arrival::Mmpp {
                burst: 1.0 + nice_f64(rng),
                p_on: nice_prob(rng),
                p_off: nice_prob(rng),
            },
        },
        shape: match rng.random_range(0, 4) {
            0 => RateShape::Constant,
            1 => RateShape::RampTo {
                rate: nice_f64(rng),
                over: nice_time(rng).max(1),
            },
            2 => RateShape::Diurnal {
                amplitude: nice_prob(rng),
                period: nice_time(rng).max(1),
            },
            _ => RateShape::Burst {
                factor: 1.0 + nice_f64(rng),
                every: nice_time(rng).max(1),
                len: nice_time(rng).max(1),
            },
        },
        region: match (sc.regions.len(), rng.random_bool(0.4)) {
            (n, true) if n > 0 => Some(sc.regions[rng.random_range(0, n)].0.clone()),
            _ => None,
        },
    }
}

fn random_action(rng: &mut Rng, sc: &Scenario) -> Action {
    match rng.random_range(0, 6) {
        0 | 1 => Action::Traffic(random_traffic(rng, sc)),
        2 => Action::KillRouter(rng.random_range(0, 64) as u16),
        3 => Action::KillLink {
            from: rng.random_range(0, 64) as u16,
            to: rng.random_range(0, 64) as u16,
        },
        4 => Action::GlitchLink {
            from: rng.random_range(0, 64) as u16,
            to: rng.random_range(0, 64) as u16,
            duration: nice_time(rng).max(1),
        },
        _ => match sc.regions.first() {
            Some((name, _)) => Action::Reconfigure {
                region: name.clone(),
                to: TopologyKind::ACTIONS[rng.random_range(0, 4)],
            },
            None => Action::KillRouter(rng.random_range(0, 64) as u16),
        },
    }
}

fn random_scenario(rng: &mut Rng) -> Scenario {
    // About a fifth of cases run on a chiplet fabric (whose footprint
    // fixes the grid); the rest on a flat mesh. Fabric scenarios keep
    // the same event generator — permanent faults and reconfigures are
    // rejected at *compile* time, not parse time, so the round-trip
    // property must hold for them regardless.
    let fabric = if rng.random_bool(0.2) {
        Some(FabricAst {
            chips_x: rng.random_range(1, 4) as u8,
            chips_y: rng.random_range(1, 4) as u8,
            chip_w: rng.random_range(2, 5) as u8,
            chip_h: rng.random_range(2, 5) as u8,
            link_latency: rng.random_range(1, 9) as u8,
            links_per_edge: rng.random_range(1, 3) as u8,
        })
    } else {
        None
    };
    let grid = match fabric {
        Some(fb) => (fb.chips_x * fb.chip_w, fb.chips_y * fb.chip_h),
        None => (rng.random_range(2, 11) as u8, rng.random_range(2, 11) as u8),
    };
    let mut sc = Scenario {
        grid,
        fabric,
        seed: rng.random_range(0, 1 << 20) as u64,
        warmup: nice_time(rng),
        duration: nice_time(rng).max(1),
        epoch: nice_time(rng).max(1),
        regions: Vec::new(),
        sweep: None,
        events: Vec::new(),
    };
    for name in ["A", "B", "C"].iter().take(rng.random_range(0, 4)) {
        sc.regions.push((
            name.to_string(),
            Rect::new(
                rng.random_range(0, 4) as u8,
                rng.random_range(0, 4) as u8,
                rng.random_range(1, 5) as u8,
                rng.random_range(1, 5) as u8,
            ),
        ));
    }
    if rng.random_bool(0.4) {
        sc.sweep = Some(Sweep {
            from: 0.05 + nice_prob(rng),
            to: 1.0 + nice_f64(rng),
            step: 0.05 + nice_prob(rng),
        });
    }
    for _ in 0..rng.random_range(0, 8) {
        let at = nice_time(rng);
        let action = random_action(rng, &sc);
        sc.events.push(Event { at, action });
    }
    sc
}

/// For any generated scenario: `parse(format(sc)) == sc`, and the
/// canonical form is a fixed point (formatting the reparse changes
/// nothing).
#[test]
fn canonical_form_round_trips_for_random_scenarios() {
    let mut rng = Rng::seed_from_u64(0x5C11);
    for case in 0..200 {
        let sc = random_scenario(&mut rng);
        let text = sc.to_string();
        let back = parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: canonical text must reparse: {e}\n{text}"));
        assert_eq!(back, sc, "case {case}: round trip must be lossless\n{text}");
        assert_eq!(back.to_string(), text, "case {case}: canonical fixed point");
    }
}

/// Compiled plans are insensitive to the formatting trip as well: a
/// compilable random scenario compiles identically from its canonical
/// text.
#[test]
fn compile_is_stable_under_round_trip() {
    let mut rng = Rng::seed_from_u64(0xC0DE);
    let mut compiled = 0;
    for _ in 0..200 {
        let sc = random_scenario(&mut rng);
        let Ok(plan) = compile(&sc) else { continue };
        compiled += 1;
        let back = parse(&sc.to_string()).expect("canonical text reparses");
        assert_eq!(compile(&back).expect("reparse compiles"), plan);
    }
    assert!(compiled > 10, "generator must produce compilable scenarios");
}
