//! Telemetry is observation-only: a network with telemetry attached (at
//! any sampling mode) must produce a byte-identical observable history —
//! trace events, delivered packets, aggregate statistics, in-flight
//! accounting — to a network with no telemetry at all, under identical
//! seeded workloads with faults, power gating and purges. Together with
//! `Network::telemetry()` returning `None` under `TelemetryMode::Off`
//! (no hooks even reachable), this is the zero-cost-when-disabled
//! guarantee stated in `docs/OBSERVABILITY.md`.

mod common;

use adaptnoc_sim::prelude::*;
use common::{mesh_spec, random_script, run_script};

/// Runs one seeded script on a plain network and on a telemetry-attached
/// clone, requiring identical observable histories.
fn check_observation_only(seed: u64, with_faults: bool, mode: TelemetryMode) {
    let mut rng = Rng::seed_from_u64(seed);
    let (w, h) = (rng.random_range(2, 5), rng.random_range(2, 5));
    let spec = mesh_spec(w, h);
    let script = random_script(&mut rng, &spec, with_faults);

    let plain = Network::new(spec.clone(), SimConfig::baseline()).unwrap();
    let mut instrumented = Network::new(spec, SimConfig::baseline()).unwrap();
    // Attach explicitly (not via config) so an `ADAPTNOC_TELEMETRY`
    // override in the environment cannot skew either side.
    instrumented.set_telemetry_mode(mode);

    let cycles = 1_200;
    let (d_p, t_p, e_p, f_p) = run_script(plain, &script, cycles);
    let (d_i, t_i, e_i, f_i) = run_script(instrumented, &script, cycles);

    assert_eq!(
        e_p, e_i,
        "trace events diverged (seed {seed}, {w}x{h}, faults={with_faults}, {mode:?})"
    );
    assert_eq!(d_p, d_i, "delivered packets diverged (seed {seed})");
    assert_eq!(t_p, t_i, "aggregate report diverged (seed {seed})");
    assert_eq!(f_p, f_i, "in-flight count diverged (seed {seed})");
}

/// `Off` installs no harness at all: the hooks' `Option` is `None`, so
/// the instrumented network IS the plain network.
#[test]
fn off_mode_attaches_nothing() {
    let net = Network::new(mesh_spec(3, 3), SimConfig::baseline()).unwrap();
    assert_eq!(net.telemetry_mode(), TelemetryMode::Off);
    assert!(net.telemetry().is_none(), "no registry under Off");

    let mut net = Network::new(mesh_spec(3, 3), SimConfig::baseline()).unwrap();
    net.set_telemetry_mode(TelemetryMode::Strict);
    assert!(net.telemetry().is_some());
    net.set_telemetry_mode(TelemetryMode::Off);
    assert!(net.telemetry().is_none(), "Off discards the harness");
}

/// Explicitly-Off networks replay identically to never-attached ones
/// (the `Off` byte-identity property, healthy and faulted).
#[test]
fn off_matches_no_hooks() {
    for seed in 0..8u64 {
        check_observation_only(0x7E1E0FF0 + seed, seed % 2 == 0, TelemetryMode::Off);
    }
}

/// Strict (every-cycle) collection never perturbs simulation outcomes.
#[test]
fn strict_is_observation_only() {
    for seed in 0..12u64 {
        check_observation_only(0x7E1E5717 + seed, seed % 2 == 0, TelemetryMode::Strict);
    }
}

/// Sampled collection (spans every n-th cycle) never perturbs outcomes.
#[test]
fn sampled_is_observation_only() {
    for seed in 0..12u64 {
        check_observation_only(0x7E1E5A3D + seed, seed % 2 == 0, TelemetryMode::Sampled(64));
    }
}

/// A Strict run actually collects: delivered packets show up in the
/// counters and histograms after the epoch flush.
#[test]
fn strict_collects_the_catalog() {
    let mut rng = Rng::seed_from_u64(0xC0117EC7);
    let spec = mesh_spec(4, 4);
    let script = random_script(&mut rng, &spec, false);
    let mut net = Network::new(spec, SimConfig::baseline()).unwrap();
    net.set_telemetry_mode(TelemetryMode::Strict);
    let mut delivered = 0u64;
    let mut next = 0usize;
    let mut id = 0u64;
    for cycle in 0..1_200u64 {
        while next < script.len() && script[next].0 <= cycle {
            if let common::Action::Inject { src, dst, .. } = script[next].1 {
                id += 1;
                let _ = net.inject(Packet::request(id, NodeId(src), NodeId(dst), id));
            }
            next += 1;
        }
        net.step();
        delivered += net.delivered().len() as u64;
    }
    assert!(delivered > 0, "script must deliver packets");
    let _ = net.take_epoch(); // flush into the registry
    let snap = net.telemetry().expect("strict registry").snapshot();
    let packets: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name == "adaptnoc_sim_packets_total")
        .map(|c| c.value)
        .sum();
    assert_eq!(packets, delivered, "counter matches observed deliveries");
    assert!(
        snap.histograms
            .iter()
            .any(|h| h.name == "adaptnoc_sim_packet_hops" && h.count == delivered),
        "hop histogram observed every delivery"
    );
    assert!(
        snap.spans
            .iter()
            .any(|s| s.name == "adaptnoc_sim_stage_rc_va_seconds" && s.count > 0),
        "strict mode timed the router stages"
    );
}
