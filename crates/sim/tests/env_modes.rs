//! `Network::new` reads the run-time modes from `ADAPTNOC_GUARDS` and
//! `ADAPTNOC_TELEMETRY`, and a set but malformed value is an error that
//! names the variable rather than a silent fall-back to the default.
//!
//! The check changes process-wide variables, so it is a test binary of
//! its own with a single test: no other test can race them.

mod common;

use adaptnoc_sim::prelude::*;

fn build() -> Result<Network, NetworkError> {
    Network::new(common::mesh_spec(2, 2), SimConfig::baseline())
}

#[test]
fn mode_variables_are_read_at_construction_and_typos_are_errors() {
    std::env::remove_var("ADAPTNOC_GUARDS");
    std::env::remove_var("ADAPTNOC_TELEMETRY");
    let net = build().unwrap();
    assert_eq!(net.guard_mode(), GuardMode::Sampled(1024));
    assert_eq!(net.telemetry_mode(), TelemetryMode::Off);

    std::env::set_var("ADAPTNOC_GUARDS", "stirct");
    match build().map(|_| ()) {
        Err(NetworkError::Config(m)) => {
            assert!(m.contains("ADAPTNOC_GUARDS"), "{m}");
            assert!(m.contains("stirct"), "{m}");
        }
        other => panic!("a malformed ADAPTNOC_GUARDS must be rejected, got {other:?}"),
    }

    std::env::set_var("ADAPTNOC_GUARDS", "sampled:64");
    std::env::set_var("ADAPTNOC_TELEMETRY", "strict");
    let mut net = build().unwrap();
    assert_eq!(net.guard_mode(), GuardMode::Sampled(64));
    assert_eq!(net.telemetry_mode(), TelemetryMode::Strict);

    // An explicit setter after construction wins over the environment.
    net.set_guard_mode(GuardMode::Off);
    net.set_telemetry_mode(TelemetryMode::Off);
    assert_eq!(net.guard_mode(), GuardMode::Off);
    assert_eq!(net.telemetry_mode(), TelemetryMode::Off);

    std::env::set_var("ADAPTNOC_TELEMETRY", "sampled:x");
    match build().map(|_| ()) {
        Err(NetworkError::Config(m)) => assert!(m.contains("ADAPTNOC_TELEMETRY"), "{m}"),
        other => panic!("a malformed ADAPTNOC_TELEMETRY must be rejected, got {other:?}"),
    }

    std::env::remove_var("ADAPTNOC_GUARDS");
    std::env::remove_var("ADAPTNOC_TELEMETRY");
}
