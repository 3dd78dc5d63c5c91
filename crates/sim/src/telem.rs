//! The simulator's telemetry harness: pre-interned metric handles and the
//! per-cycle sampling state that [`Network`](crate::network::Network)
//! drives.
//!
//! The network holds an `Option<Box<SimTelemetry>>`: `None` under
//! [`TelemetryMode::Off`], so every hot-path instrumentation site costs
//! exactly one branch when telemetry is disabled (the property pinned by
//! `tests/telemetry_equivalence.rs`).
//!
//! Counters, gauges, histograms and events are *exact* in every active
//! mode. Only the wall-clock stage spans are sampled: every cycle under
//! [`TelemetryMode::Strict`], every `n`-th cycle under
//! [`TelemetryMode::Sampled`]. Span durations are wall-clock and thus
//! nondeterministic; everything else in the registry is a pure function
//! of the simulation and is byte-identical across runs.
//!
//! The full metric catalog (names, types, labels, units, flush cadence)
//! is documented in `docs/OBSERVABILITY.md` at the repository root.

use crate::stats::{Delivered, EpochReport};
use adaptnoc_telemetry::{CounterId, GaugeId, HistogramId, Registry, SpanId, TelemetryMode};

/// A hot simulator stage, timed by a span. The stage structure follows
/// `Network::step`: route compute and VC allocation run fused (RC+VA),
/// as do switch allocation, switch traversal and ejection (SA+ST).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Channel deliveries: flits leaving wires into downstream buffers.
    Link,
    /// NI injection: flits entering the network from source queues.
    NiInject,
    /// Route compute + VC allocation across busy routers.
    RcVa,
    /// Switch allocation + traversal + ejection across busy routers.
    SaSt,
    /// Applying the router stage's sink (deferred counters, credits,
    /// traces and deliveries) after the RC/VA/SA/ST kernels finish.
    Merge,
}

/// Pre-interned metric handles plus sampling state. One per network.
#[derive(Debug, Clone)]
pub struct SimTelemetry {
    mode: TelemetryMode,
    interval: u32,
    reg: Registry,
    c_packets: CounterId,
    c_flits: CounterId,
    c_offered: CounterId,
    c_nacks: CounterId,
    c_retries: CounterId,
    c_drops: CounterId,
    c_by_kind: [CounterId; 3],
    c_health_checks: CounterId,
    c_health_violations: CounterId,
    c_epochs: CounterId,
    g_net_lat: GaugeId,
    g_queue_lat: GaugeId,
    g_throughput: GaugeId,
    g_buf_util: GaugeId,
    g_in_flight: GaugeId,
    g_health_interval: GaugeId,
    g_offered_rate: GaugeId,
    g_accepted_rate: GaugeId,
    g_source_queue: GaugeId,
    g_lat_p50: GaugeId,
    g_lat_p95: GaugeId,
    g_lat_p99: GaugeId,
    g_lat_p999: GaugeId,
    h_net_lat: HistogramId,
    h_queue_lat: HistogramId,
    h_hops: HistogramId,
    s_link: SpanId,
    s_inject: SpanId,
    s_rc_va: SpanId,
    s_sa_st: SpanId,
    s_merge: SpanId,
}

impl SimTelemetry {
    /// Creates the harness and interns the whole simulator metric catalog
    /// (so hot-path recording never touches the intern map).
    pub fn new(mode: TelemetryMode) -> Self {
        let mut reg = Registry::new(mode);
        let c_packets = reg.counter(
            "adaptnoc_sim_packets_total",
            "Packets delivered end-to-end.",
            "packets",
            &[],
        );
        let c_flits = reg.counter(
            "adaptnoc_sim_flits_total",
            "Flits delivered end-to-end.",
            "flits",
            &[],
        );
        let c_offered = reg.counter(
            "adaptnoc_sim_packets_offered_total",
            "Packets injected into NI source queues.",
            "packets",
            &[],
        );
        let c_nacks = reg.counter(
            "adaptnoc_sim_nacks_total",
            "Packets NACKed back to their source NI by a fault.",
            "packets",
            &[],
        );
        let c_retries = reg.counter(
            "adaptnoc_sim_retries_total",
            "Packet re-injections after a NACK.",
            "packets",
            &[],
        );
        let c_drops = reg.counter(
            "adaptnoc_sim_drops_total",
            "Packets dropped after exhausting their retry budget.",
            "packets",
            &[],
        );
        let kind_counter = |reg: &mut Registry, kind: &str| {
            reg.counter(
                "adaptnoc_sim_kind_packets_total",
                "Packets delivered by protocol kind.",
                "packets",
                &[("kind", kind)],
            )
        };
        let c_by_kind = [
            kind_counter(&mut reg, "request"),
            kind_counter(&mut reg, "reply"),
            kind_counter(&mut reg, "coherence"),
        ];
        let c_health_checks = reg.counter(
            "adaptnoc_sim_health_checks_total",
            "Invariant-guard sweeps executed.",
            "sweeps",
            &[],
        );
        let c_health_violations = reg.counter(
            "adaptnoc_sim_health_violations_total",
            "Invariant violations detected (see the paired sampling-interval gauge: under GuardMode::Sampled(n) only every n-th cycle is swept).",
            "violations",
            &[],
        );
        let c_epochs = reg.counter(
            "adaptnoc_sim_epochs_total",
            "Epoch windows flushed via take_epoch.",
            "epochs",
            &[],
        );
        let g_net_lat = reg.gauge(
            "adaptnoc_sim_epoch_network_latency_cycles",
            "Mean network latency over the last flushed epoch.",
            "cycles",
            &[],
        );
        let g_queue_lat = reg.gauge(
            "adaptnoc_sim_epoch_queuing_latency_cycles",
            "Mean NI queuing latency over the last flushed epoch.",
            "cycles",
            &[],
        );
        let g_throughput = reg.gauge(
            "adaptnoc_sim_epoch_throughput_flits_per_cycle",
            "Accepted throughput over the last flushed epoch.",
            "flits/cycle",
            &[],
        );
        let g_buf_util = reg.gauge(
            "adaptnoc_sim_epoch_buffer_utilization",
            "Mean input-buffer utilization over the last flushed epoch.",
            "ratio",
            &[],
        );
        let g_in_flight = reg.gauge(
            "adaptnoc_sim_in_flight_packets",
            "Packets in flight at the last epoch flush.",
            "packets",
            &[],
        );
        let g_health_interval = reg.gauge(
            "adaptnoc_sim_health_sample_interval_cycles",
            "Guard sweep cadence the violation counts were collected under (0 = guards off, 1 = every cycle).",
            "cycles",
            &[],
        );
        let g_offered_rate = reg.gauge(
            "adaptnoc_sim_epoch_offered_packets_per_cycle",
            "Offered load over the last flushed epoch (packets entering NI source queues per cycle).",
            "packets/cycle",
            &[],
        );
        let g_accepted_rate = reg.gauge(
            "adaptnoc_sim_epoch_accepted_packets_per_cycle",
            "Accepted load over the last flushed epoch (packets delivered end-to-end per cycle).",
            "packets/cycle",
            &[],
        );
        let g_source_queue = reg.gauge(
            "adaptnoc_sim_epoch_source_queue_packets",
            "Mean NI source-queue depth over the last flushed epoch (grows without bound past saturation in open-loop runs).",
            "packets",
            &[],
        );
        let quantile_gauge = |reg: &mut Registry, name: &str, which: &str| {
            reg.gauge(
                name,
                &format!(
                    "{which} total packet latency (creation to ejection) over the last flushed epoch, interpolated from the log2-bucket histogram."
                ),
                "cycles",
                &[],
            )
        };
        let g_lat_p50 = quantile_gauge(
            &mut reg,
            "adaptnoc_sim_epoch_packet_latency_p50_cycles",
            "Median",
        );
        let g_lat_p95 = quantile_gauge(
            &mut reg,
            "adaptnoc_sim_epoch_packet_latency_p95_cycles",
            "95th-percentile",
        );
        let g_lat_p99 = quantile_gauge(
            &mut reg,
            "adaptnoc_sim_epoch_packet_latency_p99_cycles",
            "99th-percentile",
        );
        let g_lat_p999 = quantile_gauge(
            &mut reg,
            "adaptnoc_sim_epoch_packet_latency_p999_cycles",
            "99.9th-percentile",
        );
        let h_net_lat = reg.histogram(
            "adaptnoc_sim_packet_network_latency_cycles",
            "Per-packet network latency (injection to ejection).",
            "cycles",
            &[],
        );
        let h_queue_lat = reg.histogram(
            "adaptnoc_sim_packet_queuing_latency_cycles",
            "Per-packet NI queuing latency (creation to injection).",
            "cycles",
            &[],
        );
        let h_hops = reg.histogram(
            "adaptnoc_sim_packet_hops",
            "Per-packet router-to-router channel traversals.",
            "hops",
            &[],
        );
        let s_link = reg.span(
            "adaptnoc_sim_stage_link_seconds",
            "Link-traversal stage (channel deliveries) time per sampled cycle.",
            &[],
        );
        let s_inject = reg.span(
            "adaptnoc_sim_stage_ni_inject_seconds",
            "NI injection stage (incl. first-hop lookahead route resolution) time per sampled cycle.",
            &[],
        );
        let s_rc_va = reg.span(
            "adaptnoc_sim_stage_rc_va_seconds",
            "Route-compute (lookahead consume) + candidate-mask VC-allocation stage time per sampled cycle.",
            &[],
        );
        let s_sa_st = reg.span(
            "adaptnoc_sim_stage_sa_st_seconds",
            "Switch-allocation + traversal + ejection stage (incl. next-hop lookahead route resolution) time per sampled cycle.",
            &[],
        );
        let s_merge = reg.span(
            "adaptnoc_sim_stage_merge_seconds",
            "Router-stage sink merge (deferred counters/credits/traces) time per sampled cycle.",
            &[],
        );
        SimTelemetry {
            mode,
            interval: mode.interval(),
            reg,
            c_packets,
            c_flits,
            c_offered,
            c_nacks,
            c_retries,
            c_drops,
            c_by_kind,
            c_health_checks,
            c_health_violations,
            c_epochs,
            g_net_lat,
            g_queue_lat,
            g_throughput,
            g_buf_util,
            g_in_flight,
            g_health_interval,
            g_offered_rate,
            g_accepted_rate,
            g_source_queue,
            g_lat_p50,
            g_lat_p95,
            g_lat_p99,
            g_lat_p999,
            h_net_lat,
            h_queue_lat,
            h_hops,
            s_link,
            s_inject,
            s_rc_va,
            s_sa_st,
            s_merge,
        }
    }

    /// The collection mode.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Whether cycle `now`'s stage spans should be timed.
    #[inline]
    pub(crate) fn timed_cycle(&self, now: u64) -> bool {
        match self.interval {
            0 => false,
            1 => true,
            n => now.is_multiple_of(n as u64),
        }
    }

    /// The underlying registry (for export or ad-hoc reads).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Mutable registry access, used by the fault/guard/RL layers to
    /// intern and record their own metrics alongside the simulator's.
    pub(crate) fn registry_mut(&mut self) -> &mut Registry {
        &mut self.reg
    }

    /// Records a delivered packet into the latency/hop histograms.
    #[inline]
    pub(crate) fn on_delivered(&mut self, d: &Delivered) {
        self.reg.observe(self.h_net_lat, d.network_latency());
        self.reg.observe(self.h_queue_lat, d.queuing_latency());
        self.reg.observe(self.h_hops, d.hops as u64);
    }

    /// Records one timed stage duration for a sampled cycle.
    #[inline]
    pub(crate) fn record_stage_ns(&mut self, stage: Stage, ns: u64) {
        let id = match stage {
            Stage::Link => self.s_link,
            Stage::NiInject => self.s_inject,
            Stage::RcVa => self.s_rc_va,
            Stage::SaSt => self.s_sa_st,
            Stage::Merge => self.s_merge,
        };
        self.reg.record_span_ns(id, ns);
    }

    /// Folds one epoch report into the registry: counters advance by the
    /// epoch's deltas, gauges take the epoch's averages, and the health
    /// counters carry their sampling interval so exported violation counts
    /// are never misread as exhaustive.
    pub(crate) fn flush_epoch(&mut self, report: &EpochReport, in_flight: u64) {
        let s = &report.stats;
        self.reg.inc(self.c_epochs);
        self.reg.add(self.c_packets, s.packets);
        self.reg.add(self.c_flits, s.flits);
        self.reg.add(self.c_offered, s.packets_offered);
        self.reg.add(self.c_nacks, s.nacks);
        self.reg.add(self.c_retries, s.retries);
        self.reg.add(self.c_drops, s.drops);
        for (k, id) in self.c_by_kind.iter().enumerate() {
            self.reg.add(*id, s.by_kind[k]);
        }
        self.reg.add(self.c_health_checks, report.health.checks);
        self.reg
            .add(self.c_health_violations, report.health.violations);
        self.reg.set(self.g_net_lat, s.avg_network_latency());
        self.reg.set(self.g_queue_lat, s.avg_queuing_latency());
        self.reg
            .set(self.g_throughput, s.throughput_flits_per_cycle());
        self.reg.set(self.g_buf_util, s.avg_buffer_utilization());
        self.reg.set(self.g_in_flight, in_flight as f64);
        self.reg
            .set(self.g_health_interval, report.health.sample_interval as f64);
        let cycles = s.cycles.max(1) as f64;
        self.reg
            .set(self.g_offered_rate, s.packets_offered as f64 / cycles);
        self.reg
            .set(self.g_accepted_rate, s.packets as f64 / cycles);
        self.reg.set(self.g_source_queue, s.avg_injection_queue());
        self.reg.set(self.g_lat_p50, s.p50_latency());
        self.reg.set(self.g_lat_p95, s.p95_latency());
        self.reg.set(self.g_lat_p99, s.p99_latency());
        self.reg.set(self.g_lat_p999, s.p999_latency());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthCounts;
    use crate::stats::NetStats;

    #[test]
    fn sampling_cadence_matches_mode() {
        let t = SimTelemetry::new(TelemetryMode::Strict);
        assert!(t.timed_cycle(1) && t.timed_cycle(2));
        let t = SimTelemetry::new(TelemetryMode::Sampled(4));
        let hits: Vec<bool> = (1..=8).map(|c| t.timed_cycle(c)).collect();
        assert_eq!(
            hits,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn flush_epoch_accumulates_counters_and_sets_gauges() {
        let mut t = SimTelemetry::new(TelemetryMode::Strict);
        let report = EpochReport {
            stats: NetStats {
                packets: 10,
                flits: 20,
                packets_offered: 12,
                network_latency_sum: 100,
                cycles: 50,
                ..Default::default()
            },
            health: HealthCounts {
                checks: 5,
                violations: 1,
                sample_interval: 1024,
            },
            ..Default::default()
        };
        t.flush_epoch(&report, 2);
        t.flush_epoch(&report, 3);
        let snap = t.registry().snapshot();
        let find_c = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or_else(|| panic!("counter {name} missing"))
        };
        let find_g = |name: &str| {
            snap.gauges
                .iter()
                .find(|g| g.name == name)
                .map(|g| g.value)
                .unwrap_or_else(|| panic!("gauge {name} missing"))
        };
        assert_eq!(find_c("adaptnoc_sim_packets_total"), 20);
        assert_eq!(find_c("adaptnoc_sim_epochs_total"), 2);
        assert_eq!(find_c("adaptnoc_sim_health_violations_total"), 2);
        assert_eq!(find_g("adaptnoc_sim_in_flight_packets"), 3.0);
        assert_eq!(find_g("adaptnoc_sim_health_sample_interval_cycles"), 1024.0);
        assert_eq!(find_g("adaptnoc_sim_epoch_network_latency_cycles"), 10.0);
    }

    #[test]
    fn delivered_packets_land_in_histograms() {
        use crate::flit::Packet;
        use crate::ids::NodeId;
        let mut t = SimTelemetry::new(TelemetryMode::Sampled(8));
        let mut p = Packet::request(1, NodeId(0), NodeId(1), 0);
        p.created_at = 2;
        t.on_delivered(&Delivered {
            packet: p,
            injected_at: 4,
            ejected_at: 20,
            hops: 3,
        });
        let snap = t.registry().snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "adaptnoc_sim_packet_network_latency_cycles")
            .expect("latency histogram");
        assert_eq!((h.count, h.sum), (1, 16));
    }
}
