//! Performance statistics: packet latency, queuing latency, hop counts,
//! buffer utilization, throughput.
//!
//! Terminology follows the paper (Sec. III-D): *network latency* is the time
//! a packet traverses the NoC; *queuing latency* is the time a packet waits
//! at the network interface before entering the network. The simulator
//! draws the line between the two where the packet's *tail* flit enters the
//! source router's buffer ([`Delivered::injected_at`]); network latency
//! runs from there until tail ejection at the destination NI.

use crate::events::{EventCounts, StaticCycles};
use crate::flit::{Packet, PacketKind};

/// A delivered packet with its measured timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    /// The packet, as originally injected.
    pub packet: Packet,
    /// Cycle the packet's *tail* flit entered the source router's input
    /// buffer (every flit's injection overwrites it, so for a multi-flit
    /// packet stalled mid-stream this is later than the head's).
    pub injected_at: u64,
    /// Cycle the tail flit was ejected at the destination NI.
    pub ejected_at: u64,
    /// Router-to-router channel traversals taken by the head flit.
    pub hops: u16,
}

impl Delivered {
    /// Network latency in cycles (injection to ejection).
    pub fn network_latency(&self) -> u64 {
        self.ejected_at.saturating_sub(self.injected_at)
    }

    /// Queuing latency in cycles (creation to injection).
    pub fn queuing_latency(&self) -> u64 {
        self.injected_at.saturating_sub(self.packet.created_at)
    }

    /// Total packet latency (creation to ejection), the paper's
    /// "packet latency" in Fig. 7.
    pub fn total_latency(&self) -> u64 {
        self.ejected_at.saturating_sub(self.packet.created_at)
    }
}

/// Number of log2 buckets in a [`CycleHistogram`]: bucket `i < 32` counts
/// values in `(2^(i-1), 2^i]` (bucket 0 counts zeros and ones), bucket 32
/// is the overflow tail. Matches the telemetry crate's fixed bucket
/// layout so exported histograms and in-stats quantiles agree.
pub const CYCLE_HIST_BUCKETS: usize = 33;

/// A compact always-on log2-bucket histogram of cycle counts.
///
/// This is the quantile substrate for tail-latency reporting: recording
/// is one shift and two adds, the footprint is a fixed 33-slot array, and
/// quantiles come from log-linear interpolation inside the hit bucket —
/// exact enough to show a p99 blow-up at saturation while staying cheap
/// enough to live inside [`NetStats`] on every delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleHistogram {
    buckets: [u64; CYCLE_HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        CycleHistogram {
            buckets: [0; CYCLE_HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl CycleHistogram {
    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            ((64 - (v - 1).leading_zeros()) as usize).min(CYCLE_HIST_BUCKETS - 1)
        }
    }

    /// Upper bound of bucket `b` (`u64::MAX` for the overflow tail).
    fn bucket_upper(b: usize) -> u64 {
        if b >= CYCLE_HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << b
        }
    }

    /// Records one value.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw bucket counts (log2 layout, see [`CYCLE_HIST_BUCKETS`]).
    pub fn buckets(&self) -> &[u64; CYCLE_HIST_BUCKETS] {
        &self.buckets
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &CycleHistogram) {
        for (b, n) in other.buckets.iter().enumerate() {
            self.buckets[b] += n;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated inside
    /// the hit bucket. Returns 0 for an empty histogram. The overflow
    /// tail reports its lower bound, so extreme quantiles are a lower
    /// bound rather than a fabrication.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if b == 0 { 0 } else { Self::bucket_upper(b - 1) } as f64;
                if b == CYCLE_HIST_BUCKETS - 1 {
                    return lo;
                }
                let hi = Self::bucket_upper(b) as f64;
                let within = (rank - seen) as f64 / n as f64;
                return lo + (hi - lo) * within;
            }
            seen += n;
        }
        Self::bucket_upper(CYCLE_HIST_BUCKETS - 2) as f64
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

/// Aggregated network statistics over a measurement window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Number of packets delivered.
    pub packets: u64,
    /// Number of flits delivered.
    pub flits: u64,
    /// Sum of network latencies (cycles).
    pub network_latency_sum: u64,
    /// Sum of queuing latencies (cycles).
    pub queuing_latency_sum: u64,
    /// Sum of hop counts.
    pub hops_sum: u64,
    /// Delivered packets by kind: [Request, Reply, Coherence].
    pub by_kind: [u64; 3],
    /// Packets injected into NI source queues.
    pub packets_offered: u64,
    /// Sum over cycles of occupied input-buffer flit slots.
    pub buffer_occupancy_sum: u64,
    /// Total input-buffer flit slots (for utilization normalization).
    pub buffer_capacity: u64,
    /// Sum over cycles of packets waiting in NI source queues.
    pub injection_queue_sum: u64,
    /// Flits forwarded by routers (switch traversals), a throughput measure.
    pub flits_forwarded: u64,
    /// Cycles covered by this window.
    pub cycles: u64,
    /// Maximum observed network latency.
    pub max_network_latency: u64,
    /// Maximum observed queuing latency.
    pub max_queuing_latency: u64,
    /// Packets NACKed back to their source NI by a fault.
    pub nacks: u64,
    /// Packet re-injections after a NACK (each retry counts once).
    pub retries: u64,
    /// Packets dropped after exhausting their retry budget (or because
    /// their endpoint became disconnected).
    pub drops: u64,
    /// Log2-bucket histogram of total packet latency (creation to
    /// ejection) — the quantile substrate for p50/p95/p99/p999.
    pub latency_hist: CycleHistogram,
    /// Log2-bucket histogram of network latency (injection to ejection).
    pub network_latency_hist: CycleHistogram,
}

impl NetStats {
    /// Records a delivered packet.
    pub fn record(&mut self, d: &Delivered) {
        self.packets += 1;
        self.flits += d.packet.len as u64;
        let nl = d.network_latency();
        let ql = d.queuing_latency();
        self.network_latency_sum += nl;
        self.queuing_latency_sum += ql;
        self.max_network_latency = self.max_network_latency.max(nl);
        self.max_queuing_latency = self.max_queuing_latency.max(ql);
        self.latency_hist.observe(d.total_latency());
        self.network_latency_hist.observe(nl);
        self.hops_sum += d.hops as u64;
        let k = match d.packet.kind {
            PacketKind::Request => 0,
            PacketKind::Reply => 1,
            PacketKind::Coherence => 2,
        };
        self.by_kind[k] += 1;
    }

    /// Mean network latency in cycles (0 if no packets).
    pub fn avg_network_latency(&self) -> f64 {
        ratio(self.network_latency_sum, self.packets)
    }

    /// Mean queuing latency in cycles (0 if no packets).
    pub fn avg_queuing_latency(&self) -> f64 {
        ratio(self.queuing_latency_sum, self.packets)
    }

    /// Mean total packet latency (network + queuing).
    pub fn avg_packet_latency(&self) -> f64 {
        self.avg_network_latency() + self.avg_queuing_latency()
    }

    /// Mean hop count (0 if no packets).
    pub fn avg_hops(&self) -> f64 {
        ratio(self.hops_sum, self.packets)
    }

    /// Mean input-buffer utilization in [0, 1].
    pub fn avg_buffer_utilization(&self) -> f64 {
        if self.cycles == 0 || self.buffer_capacity == 0 {
            0.0
        } else {
            self.buffer_occupancy_sum as f64 / (self.cycles as f64 * self.buffer_capacity as f64)
        }
    }

    /// Mean NI source-queue occupancy in packets.
    pub(crate) fn avg_injection_queue(&self) -> f64 {
        ratio(self.injection_queue_sum, self.cycles)
    }

    /// Delivered flits per cycle (accepted throughput).
    pub(crate) fn throughput_flits_per_cycle(&self) -> f64 {
        ratio(self.flits, self.cycles)
    }

    /// Fraction of offered packets that were delivered (1.0 when nothing
    /// was offered). Retries re-inject a packet already counted as offered,
    /// so a fully recovered run reports 1.0; drops pull the ratio below 1.
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_offered == 0 {
            1.0
        } else {
            self.packets as f64 / self.packets_offered as f64
        }
    }

    /// Median total packet latency.
    pub fn p50_latency(&self) -> f64 {
        self.latency_hist.p50()
    }

    /// 95th-percentile total packet latency.
    pub fn p95_latency(&self) -> f64 {
        self.latency_hist.p95()
    }

    /// 99th-percentile total packet latency — the headline tail metric
    /// for open-loop overload runs.
    pub fn p99_latency(&self) -> f64 {
        self.latency_hist.p99()
    }

    /// 99.9th-percentile total packet latency.
    pub fn p999_latency(&self) -> f64 {
        self.latency_hist.p999()
    }

    /// Adds `other` into `self`.
    pub fn accumulate(&mut self, other: &NetStats) {
        self.packets += other.packets;
        self.flits += other.flits;
        self.network_latency_sum += other.network_latency_sum;
        self.queuing_latency_sum += other.queuing_latency_sum;
        self.hops_sum += other.hops_sum;
        for k in 0..3 {
            self.by_kind[k] += other.by_kind[k];
        }
        self.packets_offered += other.packets_offered;
        self.buffer_occupancy_sum += other.buffer_occupancy_sum;
        self.buffer_capacity = self.buffer_capacity.max(other.buffer_capacity);
        self.injection_queue_sum += other.injection_queue_sum;
        self.flits_forwarded += other.flits_forwarded;
        self.cycles += other.cycles;
        self.max_network_latency = self.max_network_latency.max(other.max_network_latency);
        self.max_queuing_latency = self.max_queuing_latency.max(other.max_queuing_latency);
        self.nacks += other.nacks;
        self.retries += other.retries;
        self.drops += other.drops;
        self.latency_hist.merge(&other.latency_hist);
        self.network_latency_hist.merge(&other.network_latency_hist);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A complete per-epoch report: performance stats plus power-model inputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochReport {
    /// Performance statistics for the epoch.
    pub stats: NetStats,
    /// Dynamic-activity events for the epoch.
    pub events: EventCounts,
    /// Static-power resource-on cycles for the epoch.
    pub static_cycles: StaticCycles,
    /// Invariant-guard counters for the epoch (health module).
    ///
    /// Only exhaustive under `GuardMode::Strict`: under `Sampled(n)` the
    /// guards sweep every `n`-th cycle and the violation count is a lower
    /// bound. Check
    /// [`health.sample_interval`](crate::health::HealthCounts::sample_interval)
    /// (0 = off, 1 = strict, n = sampled) before reading the counts as
    /// complete.
    pub health: crate::health::HealthCounts,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn delivered(created: u64, injected: u64, ejected: u64, hops: u16) -> Delivered {
        let mut p = Packet::request(1, NodeId(0), NodeId(1), 0);
        p.created_at = created;
        Delivered {
            packet: p,
            injected_at: injected,
            ejected_at: ejected,
            hops,
        }
    }

    #[test]
    fn latency_decomposition() {
        let d = delivered(10, 15, 40, 3);
        assert_eq!(d.queuing_latency(), 5);
        assert_eq!(d.network_latency(), 25);
        assert_eq!(d.total_latency(), 30);
    }

    #[test]
    fn stats_averages() {
        let mut s = NetStats::default();
        s.record(&delivered(0, 2, 10, 2));
        s.record(&delivered(0, 6, 26, 4));
        assert_eq!(s.packets, 2);
        assert!((s.avg_queuing_latency() - 4.0).abs() < 1e-12);
        assert!((s.avg_network_latency() - 14.0).abs() < 1e-12);
        assert!((s.avg_packet_latency() - 18.0).abs() < 1e-12);
        assert!((s.avg_hops() - 3.0).abs() < 1e-12);
        assert_eq!(s.max_network_latency, 20);
        assert_eq!(s.max_queuing_latency, 6);
    }

    #[test]
    fn empty_stats_have_zero_averages() {
        let s = NetStats::default();
        assert_eq!(s.avg_network_latency(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
        assert_eq!(s.avg_buffer_utilization(), 0.0);
        assert_eq!(s.throughput_flits_per_cycle(), 0.0);
    }

    #[test]
    fn utilization_normalization() {
        let s = NetStats {
            cycles: 100,
            buffer_capacity: 10,
            buffer_occupancy_sum: 500,
            ..Default::default()
        };
        assert!((s.avg_buffer_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accumulate_merges_windows() {
        let mut a = NetStats::default();
        a.record(&delivered(0, 1, 5, 1));
        a.cycles = 10;
        let mut b = NetStats::default();
        b.record(&delivered(0, 2, 8, 2));
        b.cycles = 20;
        a.accumulate(&b);
        assert_eq!(a.packets, 2);
        assert_eq!(a.cycles, 30);
        assert_eq!(a.hops_sum, 3);
    }

    #[test]
    fn quantiles_track_the_latency_distribution() {
        let mut s = NetStats::default();
        // 99 fast packets (total latency 8) and one straggler (1000).
        for _ in 0..99 {
            s.record(&delivered(0, 2, 8, 2));
        }
        s.record(&delivered(0, 2, 1000, 2));
        let p50 = s.p50_latency();
        assert!((4.0..=8.0).contains(&p50), "p50 {p50} in the fast bucket");
        let p999 = s.p999_latency();
        assert!(
            (512.0..=1024.0).contains(&p999),
            "p999 {p999} lands in the straggler's bucket"
        );
        assert!(s.p99_latency() <= p999);
        assert!(s.p95_latency() <= s.p99_latency());
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = CycleHistogram::default();
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_merge_matches_combined_observation() {
        let mut a = CycleHistogram::default();
        let mut b = CycleHistogram::default();
        let mut both = CycleHistogram::default();
        for v in [0u64, 1, 3, 17, 200] {
            a.observe(v);
            both.observe(v);
        }
        for v in [5u64, 900, 900, 12_000] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.sum(), 14_026);
    }

    #[test]
    fn accumulate_merges_latency_histograms() {
        let mut a = NetStats::default();
        a.record(&delivered(0, 1, 5, 1));
        let mut b = NetStats::default();
        b.record(&delivered(0, 2, 2000, 2));
        a.accumulate(&b);
        assert_eq!(a.latency_hist.count(), 2);
        assert!(a.p999_latency() >= 1024.0);
    }

    #[test]
    fn by_kind_accounting() {
        let mut s = NetStats::default();
        let mut p = Packet::coherence(1, NodeId(0), NodeId(1), 0);
        p.created_at = 0;
        s.record(&Delivered {
            packet: p,
            injected_at: 0,
            ejected_at: 1,
            hops: 1,
        });
        assert_eq!(s.by_kind, [0, 0, 1]);
    }
}
