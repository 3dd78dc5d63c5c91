//! The measuring harness shared by the workloads: set-up timing, timed
//! segments bracketed by calibration readings, the scratch directory and
//! the per-pass result.

use crate::calib::{Calib, Kernel};
use crate::metrics::Values;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `--seconds` value the workload sizes are written for.
pub const DEFAULT_SECONDS: u64 = 10;

/// The quantile of a phase's segment costs that stands for the phase in
/// `norm_wall_s`: the first quartile. Co-tenants of the bench host only
/// ever add time, in bursts that last for several segments, and the
/// calibration reading is itself the least disturbed of its kernel runs;
/// over windows of 24 segments on a busy host the first quartile of the
/// normalised costs moved 2 % where their median moved 5 % (and the raw
/// median 26 %). A change to the code moves every segment, this one too;
/// the rest of the distribution is `job_turnaround_ms_p50` and `_p90`.
pub const UNDISTURBED: f64 = 0.25;

/// The name of every timed segment's span.
pub const SEGMENT: &str = "segment";

/// A scratch directory inside the build directory (next to the running
/// executable, so inside the checkout and ignored by git), unique per
/// process and pass, removed when dropped — on return and on unwind.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates the directory.
    ///
    /// # Errors
    ///
    /// I/O errors from locating the executable or creating the directory.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let base = exe
            .parent()
            .ok_or_else(|| std::io::Error::other("executable has no parent directory"))?;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = base.join(format!(
            "bench-scratch-{tag}-{}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The timed segments of one phase of a workload.
#[derive(Debug)]
struct Phase {
    name: &'static str,
    /// Cost of each segment: reference-host seconds, or raw seconds on a
    /// workload that is not normalised.
    costs: Vec<f64>,
    /// Raw wall of each segment, seconds.
    walls: Vec<f64>,
}

/// One pass (untraced or traced) over one workload.
#[derive(Debug)]
pub struct Bench {
    /// Workload seed.
    pub seed: u64,
    /// `--seconds`: scales the fixed simulated work.
    pub seconds: u64,
    /// The span recorder (off in the untraced pass).
    pub tr: Tracer,
    calib: Calib,
    normalise: Option<Kernel>,
    last_mops: f64,
    setup_s: f64,
    phases: Vec<Phase>,
}

impl Bench {
    /// Starts a pass. `normalise` names the calibration kernel the
    /// workload's costs are normalised with; `None` leaves them raw (for
    /// a workload dominated by waiting rather than by the CPU).
    ///
    /// # Errors
    ///
    /// The memory kernel's helper process could not be started.
    pub fn new(
        seed: u64,
        seconds: u64,
        traced: bool,
        normalise: Option<Kernel>,
    ) -> std::io::Result<Bench> {
        let mut calib = Calib::new(normalise.unwrap_or(Kernel::Cache))?;
        let last_mops = calib.read();
        Ok(Bench {
            seed,
            seconds,
            tr: Tracer::new(traced),
            calib,
            normalise,
            last_mops,
            setup_s: 0.0,
            phases: Vec::new(),
        })
    }

    /// Scales a count written for [`DEFAULT_SECONDS`] to `--seconds`,
    /// never below `min`. The result depends on nothing else, so one
    /// `(seed, seconds)` pair always simulates the same work.
    pub fn scaled(&self, base: u64, min: u64) -> u64 {
        (base * self.seconds / DEFAULT_SECONDS).max(min)
    }

    fn cost(&mut self, wall_s: f64) -> f64 {
        let Some(kernel) = self.normalise else {
            return wall_s;
        };
        let before = self.last_mops;
        let after = self.calib.read();
        self.last_mops = after;
        wall_s * kernel.factor(before, after)
    }

    /// Times a set-up step: runs `build` `reps` times, adds the median
    /// cost to `setup_s` and returns the last product. Only the last
    /// repetition is traced, so layer times describe one set-up.
    pub fn setup<T>(&mut self, reps: usize, mut build: impl FnMut(&mut Tracer) -> T) -> T {
        assert!(reps >= 1);
        let mut walls = Vec::with_capacity(reps);
        let mut off = Tracer::new(false);
        let mut product = None;
        for rep in 0..reps {
            drop(product.take()); // one instance alive at a time, as in a real run
            let last = rep + 1 == reps;
            let span = if last { self.tr.begin("setup") } else { 0 };
            let t = Instant::now();
            product = Some(build(if last { &mut self.tr } else { &mut off }));
            walls.push(t.elapsed().as_secs_f64());
            if last {
                self.tr.end(span);
            }
        }
        // One calibration pair brackets the whole batch: a single cheap
        // construction is shorter than a calibration reading.
        let unit = self.cost(1.0);
        self.setup_s += median(&walls) * unit;
        product.expect("reps >= 1")
    }

    /// Runs one timed segment of `phase`: a `segment` span bracketed by
    /// calibration readings (the reading that closes one segment opens
    /// the next).
    pub fn segment<R>(&mut self, phase: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let span = self.tr.begin(SEGMENT);
        let t = Instant::now();
        let r = f(&mut self.tr);
        let wall = t.elapsed().as_secs_f64();
        self.tr.end_segment(span);
        self.record_segment(phase, wall);
        r
    }

    fn record_segment(&mut self, phase: &'static str, wall_s: f64) {
        let cost = self.cost(wall_s);
        let at = match self.phases.iter().position(|p| p.name == phase) {
            Some(at) => at,
            None => {
                self.phases.push(Phase {
                    name: phase,
                    costs: Vec::new(),
                    walls: Vec::new(),
                });
                self.phases.len() - 1
            }
        };
        self.phases[at].costs.push(cost);
        self.phases[at].walls.push(wall_s);
    }

    /// Closes the pass.
    pub fn finish(self, outcome: Outcome) -> Pass {
        Pass {
            setup_s: self.setup_s,
            norm_wall_s: self
                .phases
                .iter()
                .map(|p| p.costs.len() as f64 * quantile(&p.costs, UNDISTURBED))
                .sum(),
            raw_wall_s: self.phases.iter().flat_map(|p| &p.walls).sum(),
            calib_median: self.calib.median_mops(),
            calib_spread_pct: self.calib.spread_pct(),
            tr: self.tr,
            outcome,
        }
    }
}

/// What a workload reports about the simulated side of one pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Digest of the simulated statistics.
    pub digest: u64,
    /// Operations attempted (packets offered / jobs submitted).
    pub attempted: u64,
    /// Operations failed (packets dropped or undelivered / jobs not
    /// completed or with wrong rows).
    pub failed: u64,
    /// Correctness-check failures; any entry fails the whole workload.
    pub errors: Vec<String>,
    /// Simulated cycles inside the timed segments.
    pub sim_cycles: u64,
    /// Exact counters and workload-specific layer values.
    pub values: Values,
}

impl Outcome {
    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// A finished pass.
#[derive(Debug)]
pub struct Pass {
    /// Set-up time (see `setup_s` in the schema).
    pub setup_s: f64,
    /// Sum over phases of segments x first-quartile segment cost.
    pub norm_wall_s: f64,
    /// Raw wall of the timed segments.
    pub raw_wall_s: f64,
    /// Median calibration reading, Mops/s.
    pub calib_median: f64,
    /// Spread of the calibration readings, percent.
    pub calib_spread_pct: f64,
    /// Recorded spans (empty when untraced).
    pub tr: Tracer,
    /// The workload's report.
    pub outcome: Outcome,
}
