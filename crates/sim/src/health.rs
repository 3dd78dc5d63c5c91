//! Runtime health monitoring: invariant guards, deadlock/livelock
//! watchdogs, and the post-mortem flight recorder.
//!
//! Adapt-NoC's safety story rests on deadlock-free reconfiguration and on
//! surviving degraded topologies. This module is the *runtime* verification
//! layer for those guarantees:
//!
//! * [`GuardMode`] — how often [`Network::step`] re-checks its own
//!   invariants (credit conservation per VC, network-wide flit conservation
//!   reconciled against the incremental `in_flight()` counters, fault
//!   isolation, power-gating consistency, allocation cross-links, worklist
//!   coverage). `Strict` checks every cycle and panics on the first
//!   violation; `Sampled(n)` checks every `n` cycles and only counts.
//!   The sweep is a pure function of the state it reads, so a due
//!   sampled check on state nothing has written since the last clean
//!   sweep reuses that verdict instead of sweeping again: an idle chip
//!   pays for one sweep, not one per sample. `Strict` always sweeps.
//!   It is telemetry's [`Cadence`] under another name: `Network::new`
//!   reads it from `ADAPTNOC_GUARDS` (default `sampled:1024`) and rejects
//!   a malformed value; `SimConfig` holds only paper parameters.
//! * [`Watchdog`] — detects deadlock (no deliveries and no flit motion),
//!   livelock (motion without deliveries), and starvation (one ancient
//!   packet) from the outside, using only public counters, and produces a
//!   [`StallReport`] saying *where* progress stopped.
//! * [`FlightRecorder`] — a bounded ring of recent trace events plus a JSON
//!   snapshot of network state, dumped on unrecoverable violations so
//!   failures are diagnosable post-mortem (see [`write_dump`]).
//!
//! The escalation ladder that acts on watchdog fires lives in
//! `adaptnoc-faults`; this module only detects and reports.
//!
//! [`Network::step`]: crate::network::Network::step

use crate::ids::{NodeId, RouterId};
use crate::json::Value;
use crate::network::Network;
use crate::spec::ChannelKey;
use crate::trace::TraceBuffer;
use adaptnoc_telemetry::Cadence;

/// How often [`Network::step`](crate::network::Network::step) sweeps
/// its invariants: never, every `n`-th cycle (counting violations), or
/// every cycle (panicking on the first). The same [`Cadence`] type as
/// telemetry's mode, with the same grammar; set by the `ADAPTNOC_GUARDS`
/// environment variable (default `Sampled(1024)`) when the network is
/// built, or by
/// [`Network::set_guard_mode`](crate::network::Network::set_guard_mode)
/// afterwards.
pub type GuardMode = Cadence;

/// Invariant-guard counters carried per epoch in
/// [`EpochReport`](crate::stats::EpochReport).
///
/// The counts are only exhaustive under [`GuardMode::Strict`]: under
/// `Sampled(n)` the guards sweep every `n`-th cycle, so `violations` is a
/// *lower bound* — a transient breach that self-corrects between sweeps
/// is never observed. [`sample_interval`](Self::sample_interval) records
/// the cadence the counts were collected under so a consumer (or the
/// telemetry exporters, which emit it as
/// `adaptnoc_sim_health_sample_interval_cycles`) can tell exact counts
/// from sampled ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounts {
    /// Due guard checks: every cycle under `Strict`, every `n`-th under
    /// `Sampled(n)`. A due sampled check on state unchanged since the
    /// last clean sweep reuses that clean verdict rather than sweeping
    /// again, so this counts checks, not sweeps.
    pub checks: u64,
    /// Invariant violations detected (always 0 in a healthy run).
    ///
    /// Exhaustive only when [`sample_interval`](Self::sample_interval) is
    /// 1 (strict mode); a lower bound otherwise.
    pub violations: u64,
    /// The sweep cadence in cycles the counts were collected under:
    /// `0` = guards off (no sweeps ran), `1` = every cycle (strict),
    /// `n` = every `n`-th cycle (sampled). Stamped by the network when an
    /// epoch is taken; [`accumulate`](Self::accumulate) keeps the coarsest
    /// (largest) interval so merged windows report conservatively.
    pub sample_interval: u32,
}

impl HealthCounts {
    /// Adds `other` into `self`. The merged `sample_interval` is the
    /// coarser (larger) of the two, so accumulated counts are never
    /// presented as finer-grained than their sparsest window.
    pub fn accumulate(&mut self, other: &HealthCounts) {
        self.checks += other.checks;
        self.violations += other.violations;
        self.sample_interval = self.sample_interval.max(other.sample_interval);
    }

    /// Returns the counters and resets `self` to zero.
    pub fn take(&mut self) -> HealthCounts {
        std::mem::take(self)
    }
}

/// The invariant family a guard violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// Network-wide flit/packet accounting disagrees with the incremental
    /// `in_flight()` counter or a router's cached flit count, or the
    /// packet table disagrees with the flits inside the network (a flit
    /// names a freed slot; a live slot's flit count is not what buffers,
    /// wires and its NI still hold).
    FlitConservation,
    /// A buffer-occupancy summary bit disagrees with the buffer it
    /// summarizes, or a buffer exceeds its depth.
    BufferOccupancy,
    /// Credits + wire occupancy + downstream buffering along a channel do
    /// not sum to the VC depth.
    CreditConservation,
    /// Traffic observed on a faulted channel, or the fault registry is
    /// inconsistent with per-channel flags.
    FaultIsolation,
    /// A sleeping or failed router holds output allocations, or a failed
    /// router is not powered down.
    PowerGating,
    /// VC-allocation cross-links (input `out_vc` vs output `alloc`) are
    /// broken, or an allocated VC lost its route or owner.
    Allocation,
    /// An active-set worklist disagrees with the state it summarises: a
    /// busy component left out (the bug class that would silently freeze
    /// traffic under active-set stepping) or an idle one left in.
    Worklist,
    /// NI injection-lock state disagrees with the NIs sharing the port.
    NiLock,
}

impl std::fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One invariant violation found by a guard sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant family tripped.
    pub kind: InvariantKind,
    /// Human-readable location and observed values.
    pub detail: String,
}

impl InvariantViolation {
    /// Creates a violation record.
    pub fn new(kind: InvariantKind, detail: impl Into<String>) -> Self {
        InvariantViolation {
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// Configuration for a [`Watchdog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles without a packet delivery (or accounted drop) while traffic
    /// is in flight before the watchdog fires.
    pub window: u64,
    /// How often the watchdog samples the network's counters. Checks are
    /// keyed on the network's own cycle count, so observation cadence is
    /// deterministic regardless of caller structure.
    pub check_interval: u64,
    /// Optional starvation bound: fire if the oldest in-flight packet has
    /// been in the network longer than this many cycles, even while other
    /// traffic makes progress.
    pub max_packet_age: Option<u64>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            window: 10_000,
            check_interval: 256,
            max_packet_age: None,
        }
    }
}

/// The kind of progress failure a watchdog detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// No deliveries and no flit motion at all: a cyclic or resource
    /// deadlock (or traffic wedged behind a dead component).
    Deadlock,
    /// Flits are moving but nothing completes: livelock.
    Livelock,
    /// The network is making progress, but one packet has been in flight
    /// longer than the configured bound.
    Starvation,
}

impl std::fmt::Display for StallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallKind::Deadlock => write!(f, "deadlock"),
            StallKind::Livelock => write!(f, "livelock"),
            StallKind::Starvation => write!(f, "starvation"),
        }
    }
}

/// A structured "where did progress stop" report produced when a
/// [`Watchdog`] fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// What kind of stall was detected.
    pub kind: StallKind,
    /// Cycle of the last observed forward progress (or the stuck packet's
    /// creation cycle, for [`StallKind::Starvation`]).
    pub since: u64,
    /// Cycle the report was captured.
    pub now: u64,
    /// Packets in flight at capture time.
    pub in_flight: u64,
    /// Routers holding buffered flits, with their flit counts.
    pub stuck_routers: Vec<(RouterId, u32)>,
    /// Channels with flits on the wire, with their occupancy.
    pub stuck_channels: Vec<(ChannelKey, usize)>,
    /// NIs with queued packets, with their queue lengths.
    pub ni_backlogs: Vec<(NodeId, usize)>,
    /// `(packet id, created_at)` of the oldest in-flight packet.
    pub oldest_packet: Option<(u64, u64)>,
}

impl StallReport {
    /// Captures the current stuck-state of `net`.
    pub fn capture(net: &Network, kind: StallKind, since: u64) -> Self {
        let mut stuck_routers = Vec::new();
        for ri in 0..net.spec().routers.len() {
            let r = RouterId(ri as u16);
            let flits = net.router_flits(r);
            if flits > 0 {
                stuck_routers.push((r, flits));
            }
        }
        StallReport {
            kind,
            since,
            now: net.now(),
            in_flight: net.in_flight(),
            stuck_routers,
            stuck_channels: net.channel_backlogs(),
            ni_backlogs: net.ni_backlogs(),
            oldest_packet: net.oldest_in_flight(),
        }
    }
}

/// Formats a channel key as `R1:p0->R2:p1` for reports and violation
/// details.
pub(crate) fn channel_label(key: &ChannelKey) -> String {
    format!(
        "{}:{}->{}:{}",
        key.src.router, key.src.port, key.dst.router, key.dst.port
    )
}

fn fmt_list<T>(
    f: &mut std::fmt::Formatter<'_>,
    label: &str,
    items: &[T],
    mut one: impl FnMut(&T) -> String,
) -> std::fmt::Result {
    if items.is_empty() {
        return Ok(());
    }
    const LIMIT: usize = 8;
    let shown: Vec<String> = items.iter().take(LIMIT).map(&mut one).collect();
    write!(f, "\n  {label}: {}", shown.join(" "))?;
    if items.len() > LIMIT {
        write!(f, " (+{} more)", items.len() - LIMIT)?;
    }
    Ok(())
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: no forward progress since cycle {} (now {}), {} packet(s) in flight",
            self.kind, self.since, self.now, self.in_flight
        )?;
        fmt_list(f, "stuck routers", &self.stuck_routers, |(r, n)| {
            format!("{r}({n})")
        })?;
        fmt_list(f, "channel backlogs", &self.stuck_channels, |(k, n)| {
            format!("{}({n})", channel_label(k))
        })?;
        fmt_list(f, "NI backlogs", &self.ni_backlogs, |(node, n)| {
            format!("{node}({n})")
        })?;
        if let Some((id, created)) = self.oldest_packet {
            write!(f, "\n  oldest packet: #{id} created at cycle {created}")?;
        }
        Ok(())
    }
}

/// A deadlock/livelock/starvation watchdog observing a network from the
/// outside through its public counters.
///
/// Call [`Watchdog::observe`] after every `step()` (it early-exits between
/// its deterministic check points). Forward progress is a change in the
/// *delivery* signature (packets delivered + accounted drops); flit motion
/// without delivery classifies a stall as livelock rather than deadlock.
/// While a stall persists the watchdog keeps firing at every check point —
/// escalation logic relies on repeated reports — and [`Watchdog::stalled`]
/// stays `true` until a delivery happens or the network empties.
#[derive(Debug, Clone)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    next_check: u64,
    baseline: Option<(u64, u64)>,
    last_progress_at: u64,
    motion_since_stall: bool,
    stalled: bool,
}

impl Watchdog {
    /// Creates a watchdog.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            next_check: 0,
            baseline: None,
            last_progress_at: 0,
            motion_since_stall: false,
            stalled: false,
        }
    }

    /// The configuration this watchdog runs with.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Whether the last check found the network stalled (deadlock or
    /// livelock). Cleared by delivery progress or an empty network.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Forgets all observed history (e.g. after an external recovery).
    pub fn reset(&mut self) {
        self.baseline = None;
        self.motion_since_stall = false;
        self.stalled = false;
    }

    /// Samples the network; returns a report if a stall or starvation is
    /// detected at this check point.
    pub fn observe(&mut self, net: &Network) -> Option<StallReport> {
        let now = net.now();
        if now < self.next_check {
            return None;
        }
        self.next_check = now + self.cfg.check_interval.max(1);

        if net.in_flight() == 0 {
            self.reset();
            self.last_progress_at = now;
            return None;
        }

        let totals = net.totals();
        let delivery = totals.stats.packets + totals.stats.drops;
        let motion = totals.stats.flits_forwarded
            + totals.stats.nacks
            + totals.stats.retries
            + totals.events.ni_injections;

        match self.baseline {
            Some((d, m)) if d == delivery => {
                if m != motion {
                    self.motion_since_stall = true;
                    self.baseline = Some((delivery, motion));
                }
            }
            _ => {
                // First observation, or delivery progress since the last one.
                self.baseline = Some((delivery, motion));
                self.motion_since_stall = false;
                self.stalled = false;
                self.last_progress_at = now;
                return self.check_age(net, now);
            }
        }

        if now - self.last_progress_at >= self.cfg.window {
            self.stalled = true;
            let kind = if self.motion_since_stall {
                StallKind::Livelock
            } else {
                StallKind::Deadlock
            };
            return Some(StallReport::capture(net, kind, self.last_progress_at));
        }
        self.check_age(net, now)
    }

    fn check_age(&self, net: &Network, now: u64) -> Option<StallReport> {
        let max_age = self.cfg.max_packet_age?;
        let (_, created) = net.oldest_in_flight()?;
        if now.saturating_sub(created) >= max_age {
            return Some(StallReport::capture(net, StallKind::Starvation, created));
        }
        None
    }
}

/// A post-mortem dump facility: keeps a bounded ring of recent trace
/// events inside the network's tracer and renders a JSON report combining
/// them with a structural state snapshot.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
}

impl FlightRecorder {
    /// Creates a recorder keeping up to `capacity` recent events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(16),
        }
    }

    /// Attaches an all-packets ring tracer to `net` if it has none yet
    /// (an existing tracer — e.g. a test's — is left in place and its
    /// events are used instead).
    pub fn install(&self, net: &mut Network) {
        if net.tracer().is_none() {
            net.set_tracer(Some(TraceBuffer::all(self.capacity)));
        }
    }

    /// Renders the dump document: the reason, the capture cycle, a
    /// structural network snapshot, and the recent trace events.
    pub fn dump(&self, net: &Network, reason: &str) -> Value {
        let (recent, evicted) = match net.tracer() {
            Some(t) => (
                t.events()
                    .map(|e| Value::String(format!("{e:?}")))
                    .collect(),
                t.dropped(),
            ),
            None => (Vec::new(), 0),
        };
        Value::Object(vec![
            ("reason".into(), Value::String(reason.to_string())),
            ("cycle".into(), Value::Number(net.now() as f64)),
            ("in_flight".into(), Value::Number(net.in_flight() as f64)),
            ("snapshot".into(), net.snapshot()),
            ("recent_events".into(), Value::Array(recent)),
            ("events_evicted".into(), Value::Number(evicted as f64)),
        ])
    }
}

/// Writes a flight-recorder dump to `$ADAPTNOC_DUMP_DIR/flightrec-<tag>-c<cycle>.json`.
///
/// Best-effort and opt-in: returns `None` (writing nothing) when the
/// `ADAPTNOC_DUMP_DIR` environment variable is unset or the write fails,
/// so tests and campaigns stay hermetic by default.
pub fn write_dump(dump: &Value, tag: &str) -> Option<std::path::PathBuf> {
    let dir = std::env::var("ADAPTNOC_DUMP_DIR")
        .ok()
        .filter(|d| !d.trim().is_empty())?;
    let cycle = dump.get("cycle").and_then(Value::as_u64).unwrap_or(0);
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("flightrec-{tag}-c{cycle}.json"));
    std::fs::write(&path, dump.to_string_pretty()).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::flit::Packet;
    use crate::ids::{PortId, Vnet, LOCAL_PORT};
    use crate::spec::{mesh_channel, NetworkSpec, NiSpec, PortRef};

    /// A 1xN row of routers, bidirectionally chained, one node per router.
    fn row_spec(n: usize) -> NetworkSpec {
        let mut s = NetworkSpec::new(n, n, 2);
        for i in 0..n - 1 {
            let east = PortRef::new(RouterId(i as u16), PortId(0));
            let west = PortRef::new(RouterId(i as u16 + 1), PortId(1));
            s.add_channel(mesh_channel(east, west));
            s.add_channel(mesh_channel(west, east));
        }
        for i in 0..n {
            s.add_ni(NiSpec::local(
                NodeId(i as u16),
                RouterId(i as u16),
                LOCAL_PORT,
            ));
        }
        for v in 0..2u8 {
            for r in 0..n {
                for d in 0..n {
                    let port = if d == r {
                        LOCAL_PORT
                    } else if d > r {
                        PortId(0)
                    } else {
                        PortId(1)
                    };
                    s.tables
                        .set(Vnet(v), RouterId(r as u16), NodeId(d as u16), port);
                }
            }
        }
        s
    }

    fn net(n: usize) -> Network {
        Network::new(row_spec(n), SimConfig::baseline()).unwrap()
    }

    #[test]
    fn health_counts_accumulate_and_take() {
        let mut a = HealthCounts {
            checks: 2,
            violations: 1,
            sample_interval: 1,
        };
        let b = HealthCounts {
            checks: 3,
            violations: 0,
            sample_interval: 1024,
        };
        a.accumulate(&b);
        assert_eq!(a.checks, 5);
        assert_eq!(a.violations, 1);
        assert_eq!(a.sample_interval, 1024, "coarsest interval wins");
        let taken = a.take();
        assert_eq!(taken.checks, 5);
        assert_eq!(a, HealthCounts::default());
    }

    #[test]
    fn watchdog_classifies_deadlock_fires_repeatedly_and_recovers() {
        let mut net = net(2);
        // Wedge: the source NI never gets to send its queued packet.
        net.set_ni_paused(NodeId(0), true);
        net.inject(Packet::request(1, NodeId(0), NodeId(1), 0))
            .unwrap();
        let mut wd = Watchdog::new(WatchdogConfig {
            window: 50,
            check_interval: 8,
            max_packet_age: None,
        });
        let mut report = None;
        for _ in 0..200 {
            net.step();
            if let Some(r) = wd.observe(&net) {
                report = Some(r);
                break;
            }
        }
        let r = report.expect("watchdog must fire on a wedged network");
        assert_eq!(r.kind, StallKind::Deadlock);
        assert!(wd.stalled());
        assert!(r.in_flight >= 1);
        assert!(
            r.ni_backlogs
                .iter()
                .any(|(node, q)| *node == NodeId(0) && *q >= 1),
            "report should name the backlogged NI: {r}"
        );
        let text = r.to_string();
        assert!(text.contains("deadlock"), "{text}");
        assert!(text.contains("N0"), "{text}");

        // Still stalled: the watchdog keeps firing at later check points.
        let mut fired_again = false;
        for _ in 0..50 {
            net.step();
            if wd.observe(&net).is_some() {
                fired_again = true;
                break;
            }
        }
        assert!(fired_again, "watchdog must keep firing while stalled");

        // Heal the wedge; delivery progress clears the stall latch.
        net.set_ni_paused(NodeId(0), false);
        for _ in 0..100 {
            net.step();
            wd.observe(&net);
        }
        assert_eq!(net.in_flight(), 0);
        assert!(!wd.stalled());
    }

    #[test]
    fn watchdog_classifies_livelock_when_flits_moved() {
        let mut net = net(4);
        // Traffic flows for a few hops, then piles up inside the failed
        // router: motion without delivery = livelock classification.
        let purged = net.fail_router(RouterId(3));
        assert!(purged.is_empty());
        net.inject(Packet::request(1, NodeId(0), NodeId(3), 0))
            .unwrap();
        let mut wd = Watchdog::new(WatchdogConfig {
            window: 60,
            check_interval: 4,
            max_packet_age: None,
        });
        let mut report = None;
        for _ in 0..400 {
            net.step();
            if let Some(r) = wd.observe(&net) {
                report = Some(r);
                break;
            }
        }
        let r = report.expect("watchdog must fire");
        assert_eq!(r.kind, StallKind::Livelock);
        assert!(!r.stuck_routers.is_empty());
    }

    #[test]
    fn watchdog_flags_starvation_by_packet_age() {
        let mut net = net(2);
        net.set_ni_paused(NodeId(0), true);
        net.inject(Packet::request(7, NodeId(0), NodeId(1), 0))
            .unwrap();
        let mut wd = Watchdog::new(WatchdogConfig {
            window: 100_000,
            check_interval: 8,
            max_packet_age: Some(30),
        });
        let mut report = None;
        for _ in 0..100 {
            net.step();
            if let Some(r) = wd.observe(&net) {
                report = Some(r);
                break;
            }
        }
        let r = report.expect("starvation bound must fire");
        assert_eq!(r.kind, StallKind::Starvation);
        assert_eq!(r.oldest_packet.map(|(id, _)| id), Some(7));
        // Starvation is not a delivery stall; the latch stays clear.
        assert!(!wd.stalled());
    }

    #[test]
    fn flight_recorder_dump_roundtrips_and_names_events() {
        let mut net = net(2);
        let rec = FlightRecorder::new(32);
        rec.install(&mut net);
        net.inject(Packet::request(1, NodeId(0), NodeId(1), 0))
            .unwrap();
        net.run(40);
        let dump = rec.dump(&net, "test dump");
        assert_eq!(
            dump.get("reason").and_then(Value::as_str),
            Some("test dump")
        );
        assert!(dump.get("snapshot").is_some());
        let events = dump
            .get("recent_events")
            .and_then(Value::as_array)
            .expect("events array");
        assert!(!events.is_empty());
        let text = dump.to_string_pretty();
        assert_eq!(crate::json::parse(&text).unwrap(), dump);
        // No dump dir configured in tests: writing is a silent no-op.
        if std::env::var("ADAPTNOC_DUMP_DIR").is_err() {
            assert!(write_dump(&dump, "unit").is_none());
        }
    }
}
