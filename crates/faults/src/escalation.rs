//! The self-healing escalation ladder.
//!
//! A [`HealthGuard`] couples a [`Watchdog`] to a three-rung recovery
//! ladder. When the watchdog reports a stall (deadlock or livelock) the
//! guard escalates through progressively heavier interventions, giving
//! each rung a grace window to restore forward progress before trying the
//! next:
//!
//! 1. **Re-route** — install the mesh-fallback routing tables, recovering
//!    from routing-table corruption or a misrouted topology without
//!    touching in-flight traffic.
//! 2. **Purge and retry** — reap packets that cannot make progress
//!    ([`Network::purge_blocked`]) every tick; the caller re-injects them
//!    through the usual NACK/backoff machinery.
//! 3. **Roll back** — return the region to the known-good spec
//!    captured when the guard was created ([`HealthGuard::new`]), via
//!    [`RegionReconfig::rollback_to`]. Region NIs are unpaused first, so a
//!    crash-abandoned drain cannot wedge the rollback itself.
//!
//! If a full pass over the ladder (a *round*) still leaves the network
//! stalled, the guard declares the situation unrecoverable, renders a
//! [`FlightRecorder`] dump for post-mortem analysis, and stands down.
//! Delivery progress at any point resets the ladder to rung 0.
//!
//! [`Network::purge_blocked`]: adaptnoc_sim::network::Network::purge_blocked

use crate::controller::FaultError;
use adaptnoc_core::reconfig::{ReconfigTiming, RegionReconfig};
use adaptnoc_sim::flit::Packet;
use adaptnoc_sim::health::{FlightRecorder, StallReport, Watchdog, WatchdogConfig};
use adaptnoc_sim::json::Value;
use adaptnoc_sim::network::Network;
use adaptnoc_sim::routing::RoutingTables;
use adaptnoc_sim::spec::NetworkSpec;
use adaptnoc_sim::trace::TraceEvent;
use adaptnoc_topology::geom::{Grid, Rect};
use std::sync::Arc;

/// Tuning for a [`HealthGuard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardConfig {
    /// The stall detector driving the ladder.
    pub watchdog: WatchdogConfig,
    /// Cycles each rung gets to restore forward progress before the
    /// ladder escalates further.
    pub grace: u64,
    /// Full ladder passes to attempt before declaring the stall
    /// unrecoverable.
    pub max_rounds: u32,
    /// Event capacity of the post-mortem flight recorder.
    pub recorder_capacity: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            watchdog: WatchdogConfig::default(),
            grace: 600,
            max_rounds: 1,
            recorder_capacity: 256,
        }
    }
}

/// Counters for the escalation ladder, carried in
/// [`FaultStats`](crate::controller::FaultStats) when a guard is attached
/// to a [`FaultController`](crate::controller::FaultController).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Stall episodes the watchdog opened (not every repeated fire).
    pub watchdog_fires: u64,
    /// Rung-1 fallback-table installs.
    pub reroutes: u64,
    /// Packets reaped by rung-2 purging (handed back for retry).
    pub purged_packets: u64,
    /// Rung-3 rollbacks started.
    pub rollbacks: u64,
    /// Stall episodes that ended with delivery progress restored.
    pub recoveries: u64,
    /// Flight-recorder dumps rendered for unrecoverable stalls.
    pub dumps: u64,
}

impl GuardStats {
    /// Total self-healing interventions the ladder took: rung-1
    /// re-routes, rung-2 packet purges, and rung-3 rollbacks. A compact
    /// "did the ladder act at all" signal for supervisors that surface
    /// escalation activity as events (e.g. farm job reports).
    pub fn interventions(&self) -> u64 {
        self.reroutes + self.purged_packets + self.rollbacks
    }
}

/// Watchdog-driven self-healing for one region: detects stalls and walks
/// the re-route → purge → rollback escalation ladder. See the module docs.
#[derive(Debug)]
pub struct HealthGuard {
    cfg: GuardConfig,
    watchdog: Watchdog,
    rect: Rect,
    timing: ReconfigTiming,
    /// Rung-1 tables: the region's mesh-fallback routing function.
    fallback: RoutingTables,
    /// Rung-3 target: the spec the network had when the guard was created.
    last_good: Arc<NetworkSpec>,
    /// Current ladder position; 0 = healthy.
    rung: u8,
    /// Cycle at which the current rung's grace window expires.
    deadline: u64,
    /// Completed ladder passes in the current stall episode.
    rounds: u32,
    rollback: Option<RegionReconfig>,
    unrecoverable: bool,
    recorder: FlightRecorder,
    stats: GuardStats,
    last_dump: Option<Value>,
}

impl HealthGuard {
    /// Creates a guard for `rect`, snapshotting the network's current spec
    /// as the rollback target and installing the flight recorder's tracer
    /// (unless the network already has one).
    pub fn new(
        net: &mut Network,
        rect: Rect,
        timing: ReconfigTiming,
        fallback: RoutingTables,
        cfg: GuardConfig,
    ) -> Self {
        let recorder = FlightRecorder::new(cfg.recorder_capacity);
        recorder.install(net);
        HealthGuard {
            cfg,
            watchdog: Watchdog::new(cfg.watchdog),
            rect,
            timing,
            fallback,
            last_good: net.spec_shared(),
            rung: 0,
            deadline: 0,
            rounds: 0,
            rollback: None,
            unrecoverable: false,
            recorder,
            stats: GuardStats::default(),
            last_dump: None,
        }
    }

    /// Ladder counters so far.
    pub fn stats(&self) -> &GuardStats {
        &self.stats
    }

    /// The rung currently engaged (0 = healthy / recovered).
    pub fn rung(&self) -> u8 {
        self.rung
    }

    /// Whether the guard exhausted the ladder and stood down.
    pub fn unrecoverable(&self) -> bool {
        self.unrecoverable
    }

    /// The post-mortem dump rendered when the stall was declared
    /// unrecoverable (also written to `$ADAPTNOC_DUMP_DIR` if set).
    pub fn last_dump(&self) -> Option<&Value> {
        self.last_dump.as_ref()
    }

    /// The underlying stall detector (for inspecting `stalled()`).
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Advances the guard by one cycle (call after `net.step()`). Returns
    /// packets reaped by rung-2 purging; the caller must hand them to its
    /// retry machinery (e.g.
    /// [`Network::inject_retry`](adaptnoc_sim::network::Network::inject_retry)
    /// or a [`FaultController`](crate::controller::FaultController)).
    ///
    /// # Errors
    ///
    /// Propagates [`FaultError::Net`] from a rung-3 rollback whose swap the
    /// simulator rejects (indicating a bug, not a survivable condition).
    pub fn tick(&mut self, net: &mut Network, grid: &Grid) -> Result<Vec<Packet>, FaultError> {
        if self.unrecoverable {
            return Ok(Vec::new());
        }
        let mut purged = Vec::new();
        // Rung 2 and above purge continuously: blocked traffic must keep
        // draining while the heavier rungs (and any rollback) proceed.
        if self.rung >= 2 {
            purged = net.purge_blocked();
            self.stats.purged_packets += purged.len() as u64;
            crate::controller::telem_count(
                net,
                "adaptnoc_guard_purged_packets_total",
                "Blocked packets reaped by rung-2 continuous purging.",
                "packets",
                &[],
                purged.len() as u64,
            );
        }
        if let Some(mut rc) = self.rollback.take() {
            if !rc.tick(net, grid)? {
                self.rollback = Some(rc);
            }
        }

        let report = self.watchdog.observe(net);
        if self.rung > 0 && !self.watchdog.stalled() {
            // Delivery progress (or a drained network): episode over.
            self.stats.recoveries += 1;
            self.rung = 0;
            self.rounds = 0;
            let now = net.now();
            if let Some(reg) = net.telemetry_mut() {
                let c = reg.counter(
                    "adaptnoc_guard_recoveries_total",
                    "Stall episodes resolved with delivery progress restored.",
                    "episodes",
                    &[],
                );
                reg.inc(c);
                reg.event("guard.recovered", now, &[]);
            }
            return Ok(purged);
        }
        if let Some(report) = report {
            if self.watchdog.stalled() {
                let now = net.now();
                if self.rung == 0 {
                    // A new stall episode opens the ladder.
                    self.stats.watchdog_fires += 1;
                    let kind = report.kind.to_string();
                    if let Some(reg) = net.telemetry_mut() {
                        let c = reg.counter(
                            "adaptnoc_guard_stalls_total",
                            "Stall episodes opened by the watchdog, by kind.",
                            "episodes",
                            &[("kind", &kind)],
                        );
                        reg.inc(c);
                        reg.event(
                            "guard.stall",
                            now,
                            &[
                                ("kind", &kind),
                                ("in_flight", &report.in_flight.to_string()),
                            ],
                        );
                    }
                    self.escalate(net, grid, &report)?;
                } else if now >= self.deadline && self.rollback.is_none() {
                    // The current rung had its grace window and failed.
                    self.escalate(net, grid, &report)?;
                }
            }
        }
        Ok(purged)
    }

    fn escalate(
        &mut self,
        net: &mut Network,
        grid: &Grid,
        report: &StallReport,
    ) -> Result<(), FaultError> {
        self.rung += 1;
        if self.rung > 3 {
            self.rounds += 1;
            if self.rounds >= self.cfg.max_rounds {
                self.unrecoverable = true;
                self.stats.dumps += 1;
                let reason = format!(
                    "unrecoverable {} after {} ladder round(s)",
                    report.kind, self.rounds
                );
                let dump = self.recorder.dump(net, &reason);
                adaptnoc_sim::health::write_dump(&dump, "unrecoverable");
                self.last_dump = Some(dump);
                let now = net.now();
                if let Some(reg) = net.telemetry_mut() {
                    let c = reg.counter(
                        "adaptnoc_guard_dumps_total",
                        "Flight-recorder dumps rendered for unrecoverable stalls.",
                        "dumps",
                        &[],
                    );
                    reg.inc(c);
                    reg.event("guard.unrecoverable", now, &[("reason", &reason)]);
                }
                return Ok(());
            }
            self.rung = 1;
        }
        let now = net.now();
        let rung = self.rung;
        if let Some(t) = net.tracer_mut() {
            t.record(TraceEvent::Escalated { cycle: now, rung });
        }
        if let Some(reg) = net.telemetry_mut() {
            let rung_s = rung.to_string();
            let c = reg.counter(
                "adaptnoc_guard_escalations_total",
                "Escalation-ladder rung engagements, by rung.",
                "transitions",
                &[("rung", &rung_s)],
            );
            reg.inc(c);
            reg.event("guard.escalated", now, &[("rung", &rung_s)]);
        }
        match rung {
            1 => {
                net.install_tables(self.fallback.clone());
                self.stats.reroutes += 1;
            }
            2 => {
                // Continuous purging is engaged by `tick` while rung >= 2.
            }
            _ => {
                // Rung 3: unpause the region's NIs (a crash-abandoned drain
                // may have left them paused), then roll the region back to
                // the last known-good spec.
                for c in self.rect.iter() {
                    let n = grid.node(c);
                    if net.spec().ni_of(n).is_some() {
                        net.set_ni_paused(n, false);
                    }
                }
                self.rollback = Some(RegionReconfig::rollback_to(
                    net,
                    grid,
                    self.rect,
                    Arc::clone(&self.last_good),
                    self.timing,
                ));
                self.stats.rollbacks += 1;
            }
        }
        self.deadline = now + self.cfg.grace;
        Ok(())
    }
}
