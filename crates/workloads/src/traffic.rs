//! The former names of the open-loop generator, kept for the benchmark.
//!
//! [`OpenLoopEngine`] is the only open-loop traffic generator. The
//! benchmark package (`benchmark/`) drives its `scale_64` workload
//! through `traffic::{Pattern, SyntheticInjector}`, and that package
//! stays unchanged between benchmark revisions so that runs stay
//! comparable; these two names are therefore kept as a thin shim over
//! the engine. New code constructs [`OpenLoopEngine`] directly.

use crate::open::{OpenLoopEngine, TrafficSpec};
use adaptnoc_sim::network::Network;
use adaptnoc_topology::geom::{Grid, Rect};

pub use crate::open::DestPattern as Pattern;

/// A Bernoulli, constant-rate [`OpenLoopEngine`].
#[derive(Debug)]
pub struct SyntheticInjector(OpenLoopEngine);

impl SyntheticInjector {
    /// An engine driving `rect` of `grid` at `rate` packets per node per
    /// cycle, with destinations drawn by `pattern`.
    pub fn new(grid: Grid, rect: Rect, pattern: Pattern, rate: f64, seed: u64) -> Self {
        let spec = TrafficSpec {
            dest: pattern,
            ..TrafficSpec::uniform(rate)
        };
        SyntheticInjector(OpenLoopEngine::new(grid, rect, spec, seed))
    }

    /// Injects this cycle's packets ([`OpenLoopEngine::tick`]). Returns
    /// how many were offered.
    pub fn tick(&mut self, net: &mut Network) -> usize {
        self.0.tick(net)
    }
}
