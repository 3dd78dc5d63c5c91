//! Telemetry is observation-only for `.scn` runs: a scenario's outcome
//! is the same whether `ADAPTNOC_TELEMETRY` is unset, `sampled:64` or
//! `strict`.
//!
//! The runner takes its telemetry mode from the environment alone, so
//! this check changes a process-wide variable. It is a test binary of
//! its own with a single test, so no other test can race the variable.

use adaptnoc_scenario::prelude::*;
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::telemetry::TelemetryMode;
use adaptnoc_topology::chip::mesh_chip;
use adaptnoc_topology::geom::Grid;

/// Poisson and MMPP sources, a load sweep and a link glitch: every
/// engine the runner drives.
const SRC: &str = "grid 4 4; seed 4; warmup 1K; duration 6K; epoch 2K;\n\
                   region B 2 2 2 2;\n\
                   sweep load 0.05 to 0.2 step 0.05;\n\
                   t=0 uniform load sweep poisson;\n\
                   t=0 zipf 1.1 load 0.1 poisson;\n\
                   t=2K hotspot region B load 0.3 mmpp 3 0.05 0.2;\n\
                   t=3K glitch link 1 -> 2 for 500;";

/// Runs [`SRC`] under `mode` (`None` = variable unset), after checking
/// that a network built under the same environment really has that mode.
fn outcome(mode: Option<&str>, expect: TelemetryMode) -> ScenarioOutcome {
    match mode {
        Some(m) => std::env::set_var("ADAPTNOC_TELEMETRY", m),
        None => std::env::remove_var("ADAPTNOC_TELEMETRY"),
    }
    let cfg = SimConfig::baseline();
    let probe = Network::new(mesh_chip(Grid::new(2, 2), &cfg).unwrap(), cfg).unwrap();
    assert_eq!(probe.telemetry_mode(), expect);
    let plan = compile(&parse(SRC).unwrap()).unwrap();
    let opts = RunOptions {
        load: Some(0.1),
        ..RunOptions::default()
    };
    run(&plan, &opts).unwrap()
}

#[test]
fn scenario_outcome_is_the_same_under_every_telemetry_mode() {
    let off = outcome(None, TelemetryMode::Off);
    let sampled = outcome(Some("sampled:64"), TelemetryMode::Sampled(64));
    let strict = outcome(Some("strict"), TelemetryMode::Strict);
    std::env::remove_var("ADAPTNOC_TELEMETRY");

    assert!(off.delivered > 0);
    assert_eq!(off, sampled, "sampled telemetry is observation-only");
    assert_eq!(off, strict, "strict telemetry is observation-only");
}
