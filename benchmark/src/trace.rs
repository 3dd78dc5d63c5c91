//! Spans recorded from outside the crates.
//!
//! The benchmark times calls into the crates' public functions; nothing
//! inside the crates is instrumented. Coarse calls (a set-up step, a
//! segment, an epoch boundary, a job, a request) are kept as individual
//! [`Span`]s. Per-cycle calls would be millions of spans, so they are
//! folded per segment into an [`Agg`] — count, sum and a histogram — that
//! becomes a child of the segment span when the segment ends. A
//! segment's *self time* is its duration minus its children, and is
//! reported (`host.residual_share`) rather than dropped.
//!
//! With tracing off every method is a no-op that reads no clock, so the
//! untraced run — the only source of end-to-end metrics — pays one
//! predictable branch per call site.

use adaptnoc_sim::json::Value;
use std::time::Instant;

/// Identifies a span; 0 means "no span" (no parent, or tracing off).
pub type SpanId = u32;

/// One coarse span.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based identifier.
    pub id: SpanId,
    /// The span that was open when this one began (0 at the root).
    pub parent: SpanId,
    /// The call this span wraps, e.g. `sim.new`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The per-cycle calls that are aggregated instead of kept one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Workload::tick`.
    WorkloadsTick,
    /// `Network::step`.
    SimStep,
    /// `Design::tick`.
    CoreTick,
    /// `SyntheticInjector::tick`.
    WorkloadsInject,
}

impl Call {
    const ALL: [Call; 4] = [
        Call::WorkloadsTick,
        Call::SimStep,
        Call::CoreTick,
        Call::WorkloadsInject,
    ];

    /// The span name the aggregate is filed under.
    pub fn name(self) -> &'static str {
        match self {
            Call::WorkloadsTick => "workloads.tick",
            Call::SimStep => "sim.step",
            Call::CoreTick => "core.tick",
            Call::WorkloadsInject => "workloads.inject",
        }
    }
}

const SUB: u32 = 3; // 2^3 linear sub-buckets per octave
const HIST_BUCKETS: usize = (64 - SUB as usize + 1) * (1 << SUB);

/// A log2 histogram of nanosecond durations with 8 linear sub-buckets
/// per octave (relative resolution 12.5 %).
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: Vec<u64>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < (1 << SUB) {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB)) & ((1 << SUB) - 1);
        (((exp - SUB + 1) << SUB) + sub as u32) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        if i < (1 << SUB) {
            return (i as u64, 1);
        }
        let exp = (i >> SUB) as u32 + SUB - 1;
        let sub = (i & ((1 << SUB) - 1)) as u64;
        (((1 << SUB) + sub) << (exp - SUB), 1 << (exp - SUB))
    }

    fn observe(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
    }

    fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The `q`-quantile, interpolated inside the hit bucket (0 when
    /// empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let (lo, width) = Self::bounds(i);
                return lo as f64 + width as f64 * (rank - seen) as f64 / n as f64;
            }
            seen += n;
        }
        unreachable!("rank is at most the total count")
    }
}

/// The aggregate of one per-cycle call over one segment.
#[derive(Debug, Clone)]
pub struct Agg {
    /// The segment span this aggregate is a child of.
    pub parent: SpanId,
    /// The call, e.g. `sim.step`.
    pub name: &'static str,
    /// Calls folded in.
    pub count: u64,
    /// Total duration, nanoseconds.
    pub sum_ns: u64,
    /// Duration histogram.
    pub hist: Hist,
}

impl Agg {
    fn empty(name: &'static str) -> Self {
        Agg {
            parent: 0,
            name,
            count: 0,
            sum_ns: 0,
            hist: Hist::default(),
        }
    }
}

/// The span recorder. See the module documentation.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    aggs: Vec<Agg>,
    stack: Vec<SpanId>,
    open: Vec<Agg>,
}

impl Tracer {
    /// A tracer; with `on == false` it records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::new(),
            open: Call::ALL
                .into_iter()
                .map(|c| Agg::empty(c.name()))
                .collect(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a coarse span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as SpanId + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Closes a segment span: as [`end`](Self::end), and files the
    /// per-cycle aggregates gathered since the last segment ended as its
    /// children.
    pub fn end_segment(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        self.end(id);
        for a in self.open.iter_mut().filter(|a| a.count > 0) {
            let name = a.name;
            let done = std::mem::replace(a, Agg::empty(name));
            self.aggs.push(Agg { parent: id, ..done });
        }
    }

    /// Wraps one coarse call in a span.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Starts a chain of per-cycle laps. Reads the clock only when
    /// tracing.
    #[inline]
    pub fn clock(&self) -> Instant {
        if self.on {
            Instant::now()
        } else {
            self.t0
        }
    }

    /// Books the time since `since` to `call` and returns the new lap
    /// start, so consecutive calls share one clock read.
    #[inline]
    pub fn lap(&mut self, call: Call, since: Instant) -> Instant {
        if !self.on {
            return since;
        }
        let now = Instant::now();
        let ns = (now - since).as_nanos() as u64;
        let a = &mut self.open[call as usize];
        a.count += 1;
        a.sum_ns += ns;
        a.hist.observe(ns);
        now
    }

    /// Total time booked under `name` (spans and aggregates), seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum();
        let aggs: u64 = self
            .aggs
            .iter()
            .filter(|a| a.name == name)
            .map(|a| a.sum_ns)
            .sum();
        (spans + aggs) as f64 / 1e9
    }

    /// Calls booked under `name` (spans and aggregates).
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
            + self
                .aggs
                .iter()
                .filter(|a| a.name == name)
                .map(|a| a.count)
                .sum::<u64>()
    }

    /// The `q`-quantile of the durations booked under `name`,
    /// nanoseconds: exact over spans, histogram-interpolated over
    /// aggregates (a name is one or the other).
    pub fn quantile_ns(&self, name: &str, q: f64) -> f64 {
        let exact: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect();
        if !exact.is_empty() {
            return crate::stats::quantile(&exact, q);
        }
        let mut merged = Hist::default();
        for a in self.aggs.iter().filter(|a| a.name == name) {
            merged.merge(&a.hist);
        }
        merged.quantile(q)
    }

    /// Over all spans named `segment`: the share of their duration that
    /// no child span or aggregate accounts for.
    pub fn residual_share(&self, segment: &str) -> f64 {
        let (mut total, mut covered) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == segment) {
            total += s.ns();
            covered += self
                .spans
                .iter()
                .filter(|c| c.parent == s.id)
                .map(Span::ns)
                .sum::<u64>();
            covered += self
                .aggs
                .iter()
                .filter(|a| a.parent == s.id)
                .map(|a| a.sum_ns)
                .sum::<u64>();
        }
        if total == 0 {
            0.0
        } else {
            total.saturating_sub(covered) as f64 / total as f64
        }
    }

    /// Everything recorded, as JSON: `{"spans": [...], "aggregates":
    /// [...]}`; histograms list only their non-empty buckets as
    /// `[lower_bound_ns, count]`.
    pub fn to_json(&self) -> Value {
        let num = |v: u64| Value::Number(v as f64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), num(s.id as u64)),
                    ("parent".into(), num(s.parent as u64)),
                    ("name".into(), Value::String(s.name.into())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                ])
            })
            .collect();
        let aggs = self
            .aggs
            .iter()
            .map(|a| {
                let hist = a
                    .hist
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| Value::Array(vec![num(Hist::bounds(i).0), num(n)]))
                    .collect();
                Value::Object(vec![
                    ("parent".into(), num(a.parent as u64)),
                    ("name".into(), Value::String(a.name.into())),
                    ("count".into(), num(a.count)),
                    ("sum_ns".into(), num(a.sum_ns)),
                    ("hist".into(), Value::Array(hist)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("spans".into(), Value::Array(spans)),
            ("aggregates".into(), Value::Array(aggs)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_contiguous_and_ordered() {
        let mut prev_end = 0u64;
        for i in 0..200 {
            let (lo, width) = Hist::bounds(i);
            assert_eq!(
                lo,
                prev_end,
                "bucket {i} starts where {} ended",
                i.max(1) - 1
            );
            assert_eq!(Hist::index(lo), i);
            assert_eq!(Hist::index(lo + width - 1), i);
            prev_end = lo + width;
        }
        assert!(Hist::index(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        for (q, want) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            assert!((got / want - 1.0).abs() < 0.13, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let seg = t.begin("segment");
        let c = t.clock();
        t.lap(Call::SimStep, c);
        t.end_segment(seg);
        assert_eq!(t.count("segment"), 0);
        assert_eq!(t.count("sim.step"), 0);
        assert_eq!(t.residual_share("segment"), 0.0);
    }

    #[test]
    fn segment_self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let seg = t.begin("segment");
        let mut c = t.clock();
        for _ in 0..100 {
            std::hint::black_box((0..200).sum::<u64>());
            c = t.lap(Call::SimStep, c);
        }
        t.timed("sim.take_epoch", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        std::thread::sleep(std::time::Duration::from_millis(2)); // unlabelled
        t.end_segment(seg);
        assert_eq!(t.count("sim.step"), 100);
        assert_eq!(t.count("sim.take_epoch"), 1);
        let seg_s = t.total_s("segment");
        let parts = t.total_s("sim.step") + t.total_s("sim.take_epoch");
        let residual = t.residual_share("segment");
        assert!(residual > 0.0 && residual < 1.0);
        assert!((parts + residual * seg_s - seg_s).abs() < 1e-6);
        let json = t.to_json().to_string_compact();
        assert!(json.contains("\"name\":\"sim.step\"") && json.contains("\"parent\":1"));
    }
}
