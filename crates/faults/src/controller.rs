//! The fault controller: fires scheduled faults, retries NACKed packets,
//! and drives permanent-fault recovery through the staged reconfiguration
//! protocol.
//!
//! Call [`FaultController::tick`] once per cycle, after `net.step()`.
//! On each tick the controller:
//!
//! 1. heals transient faults whose outage elapsed;
//! 2. fires schedule events that are due — faulting the channel/router in
//!    the simulator, which NACKs every packet caught by the fault;
//! 3. while a permanent fault is being recovered, reaps packets that can
//!    no longer make progress (`purge_blocked`) and advances the
//!    `RegionReconfig` protocol that installs the degraded configuration;
//! 4. re-injects NACKed packets whose exponential backoff expired,
//!    dropping packets that exhausted their retry budget or whose
//!    endpoints got disconnected.
//!
//! Transient faults never purge blocked traffic: upstream packets simply
//! wait out the outage, so with a sufficient retry budget a transient
//! campaign delivers 100% of offered packets. Permanent faults recompute
//! the region's routes over the degraded graph
//! ([`adaptnoc_topology::degraded`]), validate them, and swap them in with
//! the fast-path reconfiguration (the degraded tables act as the
//! transitional function, so surviving traffic keeps flowing).

use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};
use adaptnoc_core::reconfig::{ReconfigTiming, RegionReconfig};
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::flit::Packet;
use adaptnoc_sim::ids::{NodeId, RouterId};
use adaptnoc_sim::network::{Network, NetworkError};
use adaptnoc_sim::spec::ChannelKey;
use adaptnoc_sim::trace::TraceEvent;
use adaptnoc_topology::degraded::degrade_region;
use adaptnoc_topology::geom::{Grid, Rect};
use adaptnoc_topology::plan::BuildError;
use adaptnoc_topology::validate::{all_pairs, check_routes_and_deadlock, ValidateError};
use std::collections::{HashMap, HashSet, VecDeque};

/// Errors surfaced by the controller.
#[derive(Debug)]
pub enum FaultError {
    /// Recomputing the degraded configuration failed.
    Build(BuildError),
    /// The recomputed tables failed route/deadlock validation.
    Validate(ValidateError),
    /// The simulator rejected an operation.
    Net(NetworkError),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Build(e) => write!(f, "degraded rebuild failed: {e}"),
            FaultError::Validate(e) => write!(f, "degraded tables invalid: {e}"),
            FaultError::Net(e) => write!(f, "network rejected fault operation: {e}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl From<BuildError> for FaultError {
    fn from(e: BuildError) -> Self {
        FaultError::Build(e)
    }
}
impl From<ValidateError> for FaultError {
    fn from(e: ValidateError) -> Self {
        FaultError::Validate(e)
    }
}
impl From<NetworkError> for FaultError {
    fn from(e: NetworkError) -> Self {
        FaultError::Net(e)
    }
}

/// Bounded-exponential-backoff retry policy for NACKed packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Drop a packet after this many retries.
    pub max_retries: u32,
    /// First backoff in cycles; attempt `n` waits `base << (n-1)`.
    pub backoff_base: u64,
    /// Backoff ceiling in cycles.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            backoff_base: 4,
            backoff_cap: 512,
        }
    }
}

/// Adds `n` to a counter in the network's telemetry registry, when
/// telemetry is active (and `n > 0`). The fault layer records into the
/// same registry the simulator flushes epochs into, so one snapshot
/// covers both; see `docs/OBSERVABILITY.md` for the catalog.
pub(crate) fn telem_count(
    net: &mut Network,
    name: &str,
    help: &str,
    unit: &str,
    labels: &[(&str, &str)],
    n: u64,
) {
    if n == 0 {
        return;
    }
    if let Some(reg) = net.telemetry_mut() {
        let c = reg.counter(name, help, unit, labels);
        reg.add(c, n);
    }
}

/// Records a fired fault as a counter increment plus a structured event.
fn record_fault_telemetry(net: &mut Network, now: u64, kind: &str, at: &str) {
    if let Some(reg) = net.telemetry_mut() {
        let c = reg.counter(
            "adaptnoc_faults_injected_total",
            "Scheduled faults fired, by kind.",
            "faults",
            &[("kind", kind)],
        );
        reg.inc(c);
        reg.event("fault.injected", now, &[("kind", kind), ("at", at)]);
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based), capped. Saturates instead
    /// of overflowing for any attempt number: once the (unshifted) factor
    /// would exceed 64 bits the backoff is simply the cap.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shift = u64::from(attempt.saturating_sub(1));
        let factor = if shift >= 64 { u64::MAX } else { 1u64 << shift };
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// One completed permanent-fault recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Cycle the (first pending) permanent fault struck.
    pub fault_at: u64,
    /// Cycle the degraded configuration was live (protocol finished).
    pub recovered_at: u64,
    /// Nodes left disconnected by this recovery.
    pub disconnected: Vec<NodeId>,
    /// Faulted channels re-established by segmenting an adaptable twin.
    pub reversed: Vec<ChannelKey>,
}

impl RecoveryOutcome {
    /// Cycles from fault strike to the recovered configuration being live.
    pub fn time_to_recover(&self) -> u64 {
        self.recovered_at.saturating_sub(self.fault_at)
    }
}

/// Aggregate controller counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient link faults fired.
    pub transients_fired: u64,
    /// Permanent link faults fired.
    pub permanent_links_fired: u64,
    /// Router faults fired.
    pub routers_fired: u64,
    /// Packets re-queued for retry.
    pub retries_queued: u64,
    /// Packets dropped (budget exhausted or endpoint disconnected).
    pub dropped: u64,
    /// Completed recoveries.
    pub recoveries: Vec<RecoveryOutcome>,
    /// Escalation-ladder counters (all zero unless a
    /// [`HealthGuard`](crate::escalation::HealthGuard) is attached).
    pub guard: crate::escalation::GuardStats,
}

/// Drives a [`FaultSchedule`] into a running [`Network`] and recovers
/// from it. See the module docs for the per-tick pipeline.
#[derive(Debug)]
pub struct FaultController {
    schedule: VecDeque<FaultEvent>,
    policy: RetryPolicy,
    grid: Grid,
    rect: Rect,
    cfg: SimConfig,
    timing: ReconfigTiming,
    /// `(due, attempt, packet)` — scanned in insertion order.
    retry_q: VecDeque<(u64, u32, Packet)>,
    attempts: HashMap<u64, u32>,
    /// `(heal_at, key)` for live transient faults.
    heals: Vec<(u64, ChannelKey)>,
    permanent_keys: Vec<ChannelKey>,
    failed_routers: Vec<RouterId>,
    disconnected: HashSet<NodeId>,
    recovery: Option<(RegionReconfig, u64)>,
    /// Strike cycle of the oldest unrecovered permanent fault.
    pending_since: Option<u64>,
    stats: FaultStats,
    guard: Option<crate::escalation::HealthGuard>,
}

impl FaultController {
    /// Creates a controller for faults inside `rect` (the subNoC whose
    /// routes get recomputed on permanent faults).
    pub fn new(
        schedule: FaultSchedule,
        policy: RetryPolicy,
        grid: Grid,
        rect: Rect,
        cfg: SimConfig,
        timing: ReconfigTiming,
    ) -> Self {
        FaultController {
            schedule: schedule.events().iter().copied().collect(),
            policy,
            grid,
            rect,
            cfg,
            timing,
            retry_q: VecDeque::new(),
            attempts: HashMap::new(),
            heals: Vec::new(),
            permanent_keys: Vec::new(),
            failed_routers: Vec::new(),
            disconnected: HashSet::new(),
            recovery: None,
            pending_since: None,
            stats: FaultStats::default(),
            guard: None,
        }
    }

    /// Attaches a self-healing [`HealthGuard`](crate::escalation::HealthGuard):
    /// each tick the guard runs after the retry queue, and packets it purges
    /// enter the same NACK/backoff retry machinery as fault-caught traffic.
    pub fn attach_guard(&mut self, guard: crate::escalation::HealthGuard) {
        self.guard = Some(guard);
    }

    /// The attached health guard, if any.
    pub fn guard(&self) -> Option<&crate::escalation::HealthGuard> {
        self.guard.as_ref()
    }

    /// Counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Nodes disconnected by permanent faults, ascending.
    pub fn disconnected(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.disconnected.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether every scheduled fault fired, all transients healed, all
    /// permanent recoveries completed, and no retry is outstanding.
    pub fn settled(&self) -> bool {
        self.schedule.is_empty()
            && self.heals.is_empty()
            && self.recovery.is_none()
            && self.pending_since.is_none()
            && self.retry_q.is_empty()
    }

    /// Advances the controller by one cycle (call after `net.step()`).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError`] if a degraded configuration cannot be built
    /// or validated, or the simulator rejects an operation — all
    /// indicating a bug rather than a survivable condition.
    pub fn tick(&mut self, net: &mut Network) -> Result<(), FaultError> {
        let now = net.now();

        // 1. Heal transient faults whose outage elapsed (unless a later
        // overlapping fault still holds the same link down).
        let due: Vec<ChannelKey> = self
            .heals
            .iter()
            .filter(|&&(t, _)| t <= now)
            .map(|&(_, k)| k)
            .collect();
        if !due.is_empty() {
            self.heals.retain(|&(t, _)| t > now);
            for key in due {
                let still_down =
                    self.heals.iter().any(|&(_, k)| k == key) || self.permanent_keys.contains(&key);
                if !still_down {
                    net.set_channel_fault(key, false)?;
                }
            }
        }

        // 2. Fire due schedule events.
        while self.schedule.front().is_some_and(|e| e.at <= now) {
            let ev = self.schedule.pop_front().expect("checked front");
            self.fire(net, ev)?;
        }

        // 3. Permanent-fault recovery. Keep reaping blocked packets while
        // any node is disconnected: a packet for a dead destination can
        // surface from a source NI queue long after recovery finished, and
        // would otherwise pin its VC forever.
        if self.recovery.is_some() || self.pending_since.is_some() || !self.disconnected.is_empty()
        {
            let reaped = net.purge_blocked();
            self.enqueue_retries(net, reaped);
        }
        if let Some((mut rc, fault_at)) = self.recovery.take() {
            if rc.tick(net, &self.grid)? {
                let last = self
                    .stats
                    .recoveries
                    .last_mut()
                    .expect("outcome pushed at recovery start");
                last.recovered_at = rc.finished_at.unwrap_or(now);
                let ttr = last.time_to_recover();
                if let Some(reg) = net.telemetry_mut() {
                    let h = reg.histogram(
                        "adaptnoc_faults_time_to_recover_cycles",
                        "Cycles from a permanent fault striking to the degraded \
                         configuration being live.",
                        "cycles",
                        &[],
                    );
                    reg.observe(h, ttr);
                    let c = reg.counter(
                        "adaptnoc_faults_recoveries_total",
                        "Completed permanent-fault recovery reconfigurations.",
                        "recoveries",
                        &[],
                    );
                    reg.inc(c);
                    reg.event("fault.recovered", now, &[("cycles", &ttr.to_string())]);
                }
            } else {
                self.recovery = Some((rc, fault_at));
            }
        } else if let Some(fault_at) = self.pending_since.take() {
            self.start_recovery(net, fault_at)?;
        }

        // 4. Retry queue: re-inject packets whose backoff expired.
        for _ in 0..self.retry_q.len() {
            let (due, attempt, packet) = self.retry_q.pop_front().expect("len checked");
            if due > now {
                self.retry_q.push_back((due, attempt, packet));
                continue;
            }
            if self.disconnected.contains(&packet.src) || self.disconnected.contains(&packet.dst) {
                // An endpoint vanished with its router since the NACK.
                net.count_dropped(packet.id);
                self.stats.dropped += 1;
                telem_count(
                    net,
                    "adaptnoc_faults_drops_total",
                    "Packets abandoned: retry budget exhausted or endpoint disconnected.",
                    "packets",
                    &[],
                    1,
                );
                continue;
            }
            net.inject_retry(packet, attempt)?;
        }

        // 5. Self-healing ladder, when attached: watchdog observation plus
        // any engaged recovery rung. Purged packets join the retry queue.
        if let Some(mut guard) = self.guard.take() {
            let purged = guard.tick(net, &self.grid)?;
            self.stats.guard = *guard.stats();
            self.guard = Some(guard);
            self.enqueue_retries(net, purged);
        }
        Ok(())
    }

    fn fire(&mut self, net: &mut Network, ev: FaultEvent) -> Result<(), FaultError> {
        let now = net.now();
        match ev.kind {
            FaultKind::TransientLink { key, duration } => {
                self.stats.transients_fired += 1;
                let nacked = net.set_channel_fault(key, true)?;
                self.heals.push((now + duration, key));
                if let Some(t) = net.tracer_mut() {
                    t.record(TraceEvent::FaultInjected {
                        cycle: now,
                        router: key.src.router,
                        link: true,
                        transient: true,
                    });
                }
                record_fault_telemetry(
                    net,
                    now,
                    "transient_link",
                    &format!("R{}->R{}", key.src.router.0, key.dst.router.0),
                );
                self.enqueue_retries(net, nacked);
            }
            FaultKind::PermanentLink { key } => {
                self.stats.permanent_links_fired += 1;
                let nacked = net.set_channel_fault(key, true)?;
                self.permanent_keys.push(key);
                self.pending_since.get_or_insert(now);
                if let Some(t) = net.tracer_mut() {
                    t.record(TraceEvent::FaultInjected {
                        cycle: now,
                        router: key.src.router,
                        link: false,
                        transient: false,
                    });
                }
                record_fault_telemetry(
                    net,
                    now,
                    "permanent_link",
                    &format!("R{}->R{}", key.src.router.0, key.dst.router.0),
                );
                self.enqueue_retries(net, nacked);
            }
            FaultKind::PermanentRouter { router } => {
                self.stats.routers_fired += 1;
                let mut nacked = net.fail_router(router);
                // Fault every adjacent channel so neighbours stop routing
                // toward the dead router immediately.
                let adjacent: Vec<ChannelKey> = net
                    .spec()
                    .channels
                    .iter()
                    .filter(|c| c.src.router == router || c.dst.router == router)
                    .map(|c| c.key())
                    .collect();
                for key in adjacent {
                    nacked.extend(net.set_channel_fault(key, true)?);
                }
                self.failed_routers.push(router);
                self.pending_since.get_or_insert(now);
                if let Some(t) = net.tracer_mut() {
                    t.record(TraceEvent::FaultInjected {
                        cycle: now,
                        router,
                        link: false,
                        transient: false,
                    });
                }
                record_fault_telemetry(net, now, "router", &format!("R{}", router.0));
                self.enqueue_retries(net, nacked);
            }
        }
        Ok(())
    }

    fn start_recovery(&mut self, net: &mut Network, fault_at: u64) -> Result<(), FaultError> {
        let plan = degrade_region(
            net.spec(),
            &self.grid,
            self.rect,
            &self.permanent_keys,
            &self.failed_routers,
            None,
            &self.cfg,
        )?;
        let survivors = adaptnoc_topology::degraded::surviving_nodes(&plan, &self.grid, self.rect);
        check_routes_and_deadlock(&plan.spec, &all_pairs(&survivors))?;

        // Channels re-established by segmentation are healthy again.
        for &key in &plan.reversed {
            net.set_channel_fault(key, false)?;
            self.permanent_keys.retain(|k| *k != key);
        }
        // Newly disconnected endpoints: abandon their queued traffic.
        for &n in &plan.disconnected {
            if self.disconnected.insert(n) {
                for p in net.purge_ni_queue(n) {
                    net.count_dropped(p.id);
                    self.stats.dropped += 1;
                }
            }
        }

        // The fallback tables double as the transitional tables; cloning
        // them is O(1) (Arc-backed) and the spec itself is moved, not
        // copied, into the reconfiguration's shared target.
        let transitional = plan.spec.tables.clone();
        let rc = RegionReconfig::start(
            net,
            &self.grid,
            self.rect,
            plan.spec,
            Some(transitional),
            self.timing,
        );
        self.stats.recoveries.push(RecoveryOutcome {
            fault_at,
            recovered_at: u64::MAX, // patched when the protocol finishes
            disconnected: plan.disconnected,
            reversed: plan.reversed,
        });
        self.recovery = Some((rc, fault_at));
        Ok(())
    }

    fn enqueue_retries(&mut self, net: &mut Network, nacked: Vec<Packet>) {
        let now = net.now();
        let (mut retried, mut dropped) = (0u64, 0u64);
        for p in nacked {
            if self.disconnected.contains(&p.dst) || self.disconnected.contains(&p.src) {
                net.count_dropped(p.id);
                self.stats.dropped += 1;
                dropped += 1;
                continue;
            }
            let attempt = self.attempts.entry(p.id).or_insert(0);
            *attempt += 1;
            if *attempt > self.policy.max_retries {
                net.count_dropped(p.id);
                self.stats.dropped += 1;
                dropped += 1;
                continue;
            }
            let due = now + self.policy.backoff(*attempt);
            self.stats.retries_queued += 1;
            retried += 1;
            self.retry_q.push_back((due, *attempt, p));
        }
        telem_count(
            net,
            "adaptnoc_faults_retries_total",
            "Packets queued for backoff retry after a fault NACK or purge.",
            "packets",
            &[],
            retried,
        );
        telem_count(
            net,
            "adaptnoc_faults_drops_total",
            "Packets abandoned: retry budget exhausted or endpoint disconnected.",
            "packets",
            &[],
            dropped,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), 4);
        assert_eq!(p.backoff(2), 8);
        assert_eq!(p.backoff(3), 16);
        assert_eq!(p.backoff(8), 512);
        assert_eq!(p.backoff(40), 512, "capped");
        assert_eq!(p.backoff(0), 4, "attempt 0 behaves like 1");
    }

    #[test]
    fn backoff_saturates_for_huge_attempt_numbers() {
        let p = RetryPolicy::default();
        // Shifts at and beyond the 64-bit boundary must saturate to the
        // cap, not overflow.
        assert_eq!(p.backoff(64), 512);
        assert_eq!(p.backoff(65), 512);
        assert_eq!(p.backoff(u32::MAX), 512);
        let zero = RetryPolicy {
            backoff_base: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(zero.backoff(u32::MAX), 0, "zero base stays zero");
        let uncapped = RetryPolicy {
            backoff_cap: u64::MAX,
            ..RetryPolicy::default()
        };
        assert_eq!(uncapped.backoff(u32::MAX), u64::MAX, "saturates, no panic");
    }

    #[test]
    fn outcome_time_to_recover() {
        let o = RecoveryOutcome {
            fault_at: 100,
            recovered_at: 187,
            disconnected: vec![],
            reversed: vec![],
        };
        assert_eq!(o.time_to_recover(), 87);
    }
}
