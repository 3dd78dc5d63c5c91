//! The metrics registry: interned counters, gauges, log2-bucket
//! histograms, span accumulators, and a bounded structured event log.

use crate::mode::TelemetryMode;
use std::collections::HashMap;

/// Number of histogram buckets: upper bounds `2^0 .. 2^31` plus `+Inf`.
///
/// Every histogram in the workspace shares this fixed log2 layout, which
/// keeps observation branch-free (a `leading_zeros` and an add), makes
/// registries mergeable bucket-by-bucket, and spans the full useful range
/// of cycle-denominated values (1 cycle to ~2.1 billion cycles).
pub const HIST_BUCKETS: usize = 33;

/// A sorted, deduplicated label set (`key=value` pairs).
///
/// Labels are sorted by key at construction so that two label sets with
/// the same pairs in different orders intern to the same time series and
/// export identically.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    /// Builds a label set from `(key, value)` pairs; order is normalized.
    pub fn new(pairs: &[(&str, &str)]) -> Self {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, val)| (k.to_string(), val.to_string()))
            .collect();
        v.sort();
        v.dedup_by(|a, b| a.0 == b.0);
        Labels(v)
    }

    /// The empty label set.
    pub fn empty() -> Self {
        Labels(Vec::new())
    }

    /// Whether the set has no labels.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// A canonical `k=v,k2=v2` string used for interning and sort order.
    pub fn key(&self) -> String {
        let mut s = String::new();
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }
}

/// Handle to an interned counter. Copyable; recording is an array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to an interned gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to an interned histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Handle to an interned span accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Static metadata shared by every metric kind.
#[derive(Debug, Clone, PartialEq)]
struct Meta {
    name: String,
    help: String,
    unit: String,
    labels: Labels,
}

#[derive(Debug, Clone, PartialEq)]
struct HistData {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SpanData {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// One structured event: a name, the simulation cycle it happened on, and
/// free-form string fields. Events are the telemetry face of things that
/// are individually interesting (a fault fired, the escalation ladder
/// moved, a guard tripped) rather than statistically interesting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Dotted event name, e.g. `guard.escalated`.
    pub name: String,
    /// Simulation cycle the event was recorded at.
    pub cycle: u64,
    /// Sorted `(key, value)` detail fields.
    pub fields: Vec<(String, String)>,
}

/// The bucket index a value falls into: bucket `b` covers
/// `2^(b-1) < v <= 2^b` (bucket 0 covers `v <= 1`), bucket 32 is `+Inf`.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// The upper-bound label (`le`) of histogram bucket `b`.
pub(crate) fn bucket_bound(b: usize) -> String {
    if b >= HIST_BUCKETS - 1 {
        "+Inf".to_string()
    } else {
        (1u64 << b).to_string()
    }
}

/// Default cap on retained events; older events are kept, newer ones
/// counted as dropped (the earliest events usually explain a failure).
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// The metrics registry. One per simulation; merge after the fact.
///
/// Values are plain (non-atomic) integers/floats: a registry is owned by
/// a single simulation thread, and parallel campaigns give every point its
/// own registry and [`merge`](Registry::merge) them when the campaign
/// completes. Registration interns by `(kind, name, label set)` — a
/// second registration of the same identity returns the existing handle.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    mode: TelemetryMode,
    counters: Vec<(Meta, u64)>,
    gauges: Vec<(Meta, f64)>,
    hists: Vec<(Meta, HistData)>,
    spans: Vec<(Meta, SpanData)>,
    events: Vec<Event>,
    event_capacity: usize,
    events_dropped: u64,
    index: HashMap<String, usize>,
}

impl Registry {
    /// Creates an empty registry collecting under `mode`.
    pub fn new(mode: TelemetryMode) -> Self {
        Registry {
            mode,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            spans: Vec::new(),
            events: Vec::new(),
            event_capacity: DEFAULT_EVENT_CAPACITY,
            events_dropped: 0,
            index: HashMap::new(),
        }
    }

    /// The collection mode this registry was created with.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Caps the retained event count (the first `cap` events are kept;
    /// later ones only increment the dropped counter).
    pub fn set_event_capacity(&mut self, cap: usize) {
        self.event_capacity = cap;
    }

    fn intern(&mut self, kind: char, name: &str, labels: &Labels) -> Option<usize> {
        let key = format!("{kind}|{name}|{}", labels.key());
        self.index.get(&key).copied().map_or_else(
            || {
                let next = match kind {
                    'c' => self.counters.len(),
                    'g' => self.gauges.len(),
                    'h' => self.hists.len(),
                    's' => self.spans.len(),
                    _ => unreachable!("unknown metric kind"),
                };
                self.index.insert(key, next);
                None
            },
            Some,
        )
    }

    /// Registers (or looks up) a counter time series.
    pub fn counter(
        &mut self,
        name: &str,
        help: &str,
        unit: &str,
        labels: &[(&str, &str)],
    ) -> CounterId {
        let labels = Labels::new(labels);
        if let Some(i) = self.intern('c', name, &labels) {
            return CounterId(i);
        }
        self.counters.push((
            Meta {
                name: name.to_string(),
                help: help.to_string(),
                unit: unit.to_string(),
                labels,
            },
            0,
        ));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or looks up) a gauge time series.
    pub fn gauge(
        &mut self,
        name: &str,
        help: &str,
        unit: &str,
        labels: &[(&str, &str)],
    ) -> GaugeId {
        let labels = Labels::new(labels);
        if let Some(i) = self.intern('g', name, &labels) {
            return GaugeId(i);
        }
        self.gauges.push((
            Meta {
                name: name.to_string(),
                help: help.to_string(),
                unit: unit.to_string(),
                labels,
            },
            0.0,
        ));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or looks up) a histogram with the fixed log2 buckets.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        unit: &str,
        labels: &[(&str, &str)],
    ) -> HistogramId {
        let labels = Labels::new(labels);
        if let Some(i) = self.intern('h', name, &labels) {
            return HistogramId(i);
        }
        self.hists.push((
            Meta {
                name: name.to_string(),
                help: help.to_string(),
                unit: unit.to_string(),
                labels,
            },
            HistData::default(),
        ));
        HistogramId(self.hists.len() - 1)
    }

    /// Registers (or looks up) a span accumulator (count/total/min/max of
    /// durations in nanoseconds).
    pub fn span(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> SpanId {
        let labels = Labels::new(labels);
        if let Some(i) = self.intern('s', name, &labels) {
            return SpanId(i);
        }
        self.spans.push((
            Meta {
                name: name.to_string(),
                help: help.to_string(),
                unit: "seconds".to_string(),
                labels,
            },
            SpanData::default(),
        ));
        SpanId(self.spans.len() - 1)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// The current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Sets a gauge to `v` (gauges are last-write-wins).
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        let h = &mut self.hists[id.0].1;
        h.buckets[bucket_index(v)] += 1;
        h.count += 1;
        h.sum += v;
    }

    /// Records one span duration in nanoseconds.
    #[inline]
    pub fn record_span_ns(&mut self, id: SpanId, ns: u64) {
        let s = &mut self.spans[id.0].1;
        if s.count == 0 || ns < s.min_ns {
            s.min_ns = ns;
        }
        if ns > s.max_ns {
            s.max_ns = ns;
        }
        s.count += 1;
        s.total_ns += ns;
    }

    /// Records a structured event. Fields are sorted by key; events past
    /// the capacity only increment the dropped counter.
    pub fn event(&mut self, name: &str, cycle: u64, fields: &[(&str, &str)]) {
        if self.events.len() >= self.event_capacity {
            self.events_dropped += 1;
            return;
        }
        let mut fields: Vec<(String, String)> = fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        fields.sort();
        self.events.push(Event {
            name: name.to_string(),
            cycle,
            fields,
        });
    }

    /// Number of events recorded (retained, not counting dropped).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Events dropped because the capacity was reached.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Folds `other` into `self`: counters and histogram buckets add,
    /// span accumulators combine (count/total add, min/max extend),
    /// gauges take `other`'s value (last write wins), events append up to
    /// capacity. Metric identities missing from `self` are registered.
    pub fn merge(&mut self, other: &Registry) {
        for (m, v) in other.counters.clone() {
            let pairs: Vec<(&str, &str)> = m.labels.iter().collect();
            let id = self.counter(&m.name, &m.help, &m.unit, &pairs);
            self.add(id, v);
        }
        for (m, v) in other.gauges.clone() {
            let pairs: Vec<(&str, &str)> = m.labels.iter().collect();
            let id = self.gauge(&m.name, &m.help, &m.unit, &pairs);
            self.set(id, v);
        }
        for (m, h) in other.hists.clone() {
            let pairs: Vec<(&str, &str)> = m.labels.iter().collect();
            let id = self.histogram(&m.name, &m.help, &m.unit, &pairs);
            let mine = &mut self.hists[id.0].1;
            for (b, n) in h.buckets.iter().enumerate() {
                mine.buckets[b] += n;
            }
            mine.count += h.count;
            mine.sum += h.sum;
        }
        for (m, s) in other.spans.clone() {
            let pairs: Vec<(&str, &str)> = m.labels.iter().collect();
            let id = self.span(&m.name, &m.help, &pairs);
            let mine = &mut self.spans[id.0].1;
            if s.count > 0 {
                if mine.count == 0 || s.min_ns < mine.min_ns {
                    mine.min_ns = s.min_ns;
                }
                if s.max_ns > mine.max_ns {
                    mine.max_ns = s.max_ns;
                }
                mine.count += s.count;
                mine.total_ns += s.total_ns;
            }
        }
        self.events_dropped += other.events_dropped;
        for e in &other.events {
            if self.events.len() >= self.event_capacity {
                self.events_dropped += 1;
            } else {
                self.events.push(e.clone());
            }
        }
    }

    /// A deterministic, export-ready view: every metric kind sorted by
    /// `(name, label key)`, events in recording order.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<CounterSample> = self
            .counters
            .iter()
            .map(|(m, v)| CounterSample {
                name: m.name.clone(),
                help: m.help.clone(),
                unit: m.unit.clone(),
                labels: m.labels.clone(),
                value: *v,
            })
            .collect();
        counters.sort_by(|a, b| (&a.name, a.labels.key()).cmp(&(&b.name, b.labels.key())));

        let mut gauges: Vec<GaugeSample> = self
            .gauges
            .iter()
            .map(|(m, v)| GaugeSample {
                name: m.name.clone(),
                help: m.help.clone(),
                unit: m.unit.clone(),
                labels: m.labels.clone(),
                value: *v,
            })
            .collect();
        gauges.sort_by(|a, b| (&a.name, a.labels.key()).cmp(&(&b.name, b.labels.key())));

        let mut histograms: Vec<HistogramSample> = self
            .hists
            .iter()
            .map(|(m, h)| HistogramSample {
                name: m.name.clone(),
                help: m.help.clone(),
                unit: m.unit.clone(),
                labels: m.labels.clone(),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(b, n)| (bucket_bound(b), *n))
                    .collect(),
                count: h.count,
                sum: h.sum,
            })
            .collect();
        histograms.sort_by(|a, b| (&a.name, a.labels.key()).cmp(&(&b.name, b.labels.key())));

        let mut spans: Vec<SpanSample> = self
            .spans
            .iter()
            .map(|(m, s)| SpanSample {
                name: m.name.clone(),
                help: m.help.clone(),
                labels: m.labels.clone(),
                count: s.count,
                total_ns: s.total_ns,
                min_ns: s.min_ns,
                max_ns: s.max_ns,
            })
            .collect();
        spans.sort_by(|a, b| (&a.name, a.labels.key()).cmp(&(&b.name, b.labels.key())));

        Snapshot {
            mode: self.mode.label(),
            counters,
            gauges,
            histograms,
            spans,
            events: self.events.clone(),
            events_dropped: self.events_dropped,
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(TelemetryMode::Strict)
    }
}

/// One counter time series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Unit (e.g. `packets`, `cycles`).
    pub unit: String,
    /// Label set.
    pub labels: Labels,
    /// Current value.
    pub value: u64,
}

/// One gauge time series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Unit.
    pub unit: String,
    /// Label set.
    pub labels: Labels,
    /// Current value.
    pub value: f64,
}

/// One histogram time series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Unit of observed values.
    pub unit: String,
    /// Label set.
    pub labels: Labels,
    /// Non-cumulative per-bucket counts, as `(le bound, count)` with the
    /// fixed log2 bounds `1, 2, 4, …, 2^31, +Inf`.
    pub buckets: Vec<(String, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// One span accumulator in a [`Snapshot`]. Durations are nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSample {
    /// Span name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label set.
    pub labels: Labels,
    /// Number of recorded spans.
    pub count: u64,
    /// Total duration.
    pub total_ns: u64,
    /// Shortest recorded span (0 if none).
    pub min_ns: u64,
    /// Longest recorded span (0 if none).
    pub max_ns: u64,
}

/// A deterministic point-in-time view of a [`Registry`], ready for the
/// exporters in [`crate::export`] or for direct inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The registry's collection-mode label (`off`, `sampled:N`, `strict`).
    pub mode: String,
    /// Counters sorted by `(name, labels)`.
    pub counters: Vec<CounterSample>,
    /// Gauges sorted by `(name, labels)`.
    pub gauges: Vec<GaugeSample>,
    /// Histograms sorted by `(name, labels)`.
    pub histograms: Vec<HistogramSample>,
    /// Spans sorted by `(name, labels)`.
    pub spans: Vec<SpanSample>,
    /// Events in recording order.
    pub events: Vec<Event>,
    /// Events lost to the capacity bound.
    pub events_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_with_inf_tail() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 31), 31);
        assert_eq!(bucket_index((1 << 31) + 1), 32);
        assert_eq!(bucket_index(u64::MAX), 32);
        assert_eq!(bucket_bound(0), "1");
        assert_eq!(bucket_bound(31), (1u64 << 31).to_string());
        assert_eq!(bucket_bound(32), "+Inf");
    }

    #[test]
    fn interning_dedupes_and_label_order_is_normalized() {
        let mut r = Registry::new(TelemetryMode::Strict);
        let a = r.counter("x_total", "h", "packets", &[("b", "2"), ("a", "1")]);
        let b = r.counter("x_total", "h", "packets", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.counter_value(a), 3);
        assert_eq!(r.snapshot().counters.len(), 1);
        assert_eq!(r.snapshot().counters[0].labels.key(), "a=1,b=2");
    }

    #[test]
    fn histogram_counts_and_sum() {
        let mut r = Registry::new(TelemetryMode::Strict);
        let h = r.histogram("lat_cycles", "h", "cycles", &[]);
        for v in [1, 2, 3, 100] {
            r.observe(h, v);
        }
        let s = r.snapshot();
        let hs = &s.histograms[0];
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 106);
        assert_eq!(hs.buckets[0], ("1".to_string(), 1));
        assert_eq!(hs.buckets[1], ("2".to_string(), 1));
        assert_eq!(hs.buckets[2], ("4".to_string(), 1));
        assert_eq!(hs.buckets[7], ("128".to_string(), 1));
    }

    #[test]
    fn span_min_max_total() {
        let mut r = Registry::new(TelemetryMode::Strict);
        let s = r.span("stage_seconds", "h", &[]);
        r.record_span_ns(s, 50);
        r.record_span_ns(s, 10);
        r.record_span_ns(s, 90);
        let snap = r.snapshot();
        let ss = &snap.spans[0];
        assert_eq!(
            (ss.count, ss.total_ns, ss.min_ns, ss.max_ns),
            (3, 150, 10, 90)
        );
    }

    #[test]
    fn events_are_bounded_and_field_sorted() {
        let mut r = Registry::new(TelemetryMode::Strict);
        r.set_event_capacity(2);
        r.event("e", 1, &[("z", "9"), ("a", "0")]);
        r.event("e", 2, &[]);
        r.event("e", 3, &[]);
        assert_eq!(r.event_count(), 2);
        assert_eq!(r.events_dropped(), 1);
        assert_eq!(
            r.snapshot().events[0].fields,
            vec![
                ("a".to_string(), "0".to_string()),
                ("z".to_string(), "9".to_string())
            ]
        );
    }

    #[test]
    fn merge_adds_counters_histograms_and_combines_spans() {
        let mut a = Registry::new(TelemetryMode::Strict);
        let mut b = Registry::new(TelemetryMode::Strict);
        let ca = a.counter("c_total", "h", "u", &[("k", "v")]);
        a.add(ca, 5);
        let cb = b.counter("c_total", "h", "u", &[("k", "v")]);
        b.add(cb, 7);
        let gb = b.gauge("g", "h", "u", &[]);
        b.set(gb, 2.5);
        let hb = b.histogram("h", "h", "cycles", &[]);
        b.observe(hb, 3);
        let sa = a.span("s_seconds", "h", &[]);
        a.record_span_ns(sa, 100);
        let sb = b.span("s_seconds", "h", &[]);
        b.record_span_ns(sb, 10);
        b.event("ev", 9, &[]);

        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.counters[0].value, 12);
        assert_eq!(s.gauges[0].value, 2.5);
        assert_eq!(s.histograms[0].count, 1);
        assert_eq!(
            (s.spans[0].count, s.spans[0].min_ns, s.spans[0].max_ns),
            (2, 10, 100)
        );
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].cycle, 9);
    }

    #[test]
    fn snapshot_ordering_is_deterministic() {
        let mut r = Registry::new(TelemetryMode::Strict);
        r.counter("b_total", "h", "u", &[]);
        r.counter("a_total", "h", "u", &[("k", "2")]);
        r.counter("a_total", "h", "u", &[("k", "1")]);
        let names: Vec<String> = r
            .snapshot()
            .counters
            .iter()
            .map(|c| format!("{}{{{}}}", c.name, c.labels.key()))
            .collect();
        assert_eq!(names, vec!["a_total{k=1}", "a_total{k=2}", "b_total{}"]);
    }
}
