//! Deterministic region-parallel stepping.
//!
//! [`StepPool`] is a fixed pool of worker threads that splits the router
//! stage of one cycle into contiguous router *bands* (one per thread,
//! aligned to subNoC region boundaries when a [`RegionMap`] is installed)
//! and runs them concurrently. Everything the bands could race on is
//! deferred into per-band `StageSink`s and merged **in ascending band
//! order** at the cycle barrier, so the output — delivered packets,
//! statistics, trace events, telemetry counters — is byte-identical to the
//! serial stepper at any thread count (pinned by
//! `tests/region_parallel_equivalence.rs`).
//!
//! ## The boundary-channel exchange
//!
//! Bands partition *routers*; channels are owned by the band containing
//! their **source** router (see `crate::stage::ChannelShard`). A flit
//! crossing a band boundary is simply pushed onto its channel's queue by
//! the owning band and picked up by the destination band's router in the
//! *link* stage of a later cycle — the channel queues double as the
//! exchange buffers, and because a channel's wire latency is at least one
//! cycle, no band ever reads state another band writes within the same
//! cycle. Credits flow the other way through `pending_credits`, which is
//! also applied a cycle later; both lists are concatenated in band order at
//! the barrier so their apply order matches the serial walk exactly.
//!
//! The pool runs band 0 on the calling thread and bands 1.. on the
//! workers, then blocks until every worker acknowledges the cycle. Workers
//! park on a condvar between cycles; per-band scratch (request masks,
//! sinks) persists across cycles so the steady-state hot loop performs no
//! allocation. Each band walks the busy-router set over its own router
//! range and only reads it; the routers a band drains leave the set after
//! the merge, so no two bands write one word of it.

use crate::stage::{BandJob, WorkerState};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A partition of the router index space into contiguous bands, used to
/// align parallel bands with subNoC regions so cross-band traffic (and
/// with it merge pressure) stays low.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    /// Band boundaries: `bounds[b]..bounds[b + 1]` is band `b`'s router
    /// range. Starts at 0, ends at the router count, strictly increasing.
    bounds: Vec<usize>,
}

impl RegionMap {
    /// An even split of `n_routers` routers into `bands` contiguous bands
    /// (clamped to at most one band per router, at least one band).
    pub fn even(n_routers: usize, bands: usize) -> RegionMap {
        let bands = bands.clamp(1, n_routers.max(1));
        let bounds = (0..=bands).map(|b| b * n_routers / bands).collect();
        RegionMap { bounds }
    }

    /// A custom split from explicit band boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` does not start at 0 or is not strictly
    /// increasing.
    pub fn from_bounds(bounds: Vec<usize>) -> RegionMap {
        assert!(bounds.len() >= 2, "a region map needs at least one band");
        assert_eq!(bounds[0], 0, "region bounds must start at router 0");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "region bounds must be strictly increasing"
        );
        RegionMap { bounds }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total routers covered.
    pub fn routers(&self) -> usize {
        *self.bounds.last().expect("bounds are non-empty")
    }

    /// The band boundaries (`bands() + 1` entries).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }
}

/// Synchronization state shared by the pool owner and all workers.
#[derive(Debug, Default)]
struct PoolShared {
    /// Cycle generation counter; bumping it (under the lock) releases the
    /// workers for one cycle.
    gen: Mutex<u64>,
    gen_cv: Condvar,
    /// Workers that finished the current generation.
    done: Mutex<usize>,
    done_cv: Condvar,
    shutdown: AtomicBool,
}

/// One worker's mailbox: the job slot filled by the dispatcher and the
/// persistent band state the worker runs it into.
#[derive(Default)]
struct WorkerShared {
    job: Mutex<Option<BandJob>>,
    state: Mutex<WorkerState>,
}

impl std::fmt::Debug for WorkerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerShared").finish_non_exhaustive()
    }
}

/// A fixed pool of `threads - 1` worker threads (plus the calling thread)
/// for region-parallel [`Network::step_parallel`](crate::network::Network::step_parallel)
/// (see [`crate::network::Network::step_parallel`]).
///
/// The pool is created once and reused across cycles and across networks;
/// dropping it shuts the workers down. `StepPool::new(1)` creates no
/// threads and makes `step_parallel` equivalent to `step`.
pub struct StepPool {
    shared: Arc<PoolShared>,
    workers: Vec<Arc<WorkerShared>>,
    handles: Vec<JoinHandle<()>>,
    /// Optional custom band partition (aligned to subNoC regions).
    regions: Option<RegionMap>,
}

impl std::fmt::Debug for StepPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepPool")
            .field("threads", &self.threads())
            .field("regions", &self.regions)
            .finish_non_exhaustive()
    }
}

impl StepPool {
    /// Creates a pool that steps with `threads` total threads (the calling
    /// thread plus `threads - 1` workers). `threads == 0` is treated as 1.
    pub fn new(threads: usize) -> StepPool {
        let shared = Arc::new(PoolShared::default());
        let n_workers = threads.max(1) - 1;
        let mut workers = Vec::with_capacity(n_workers);
        let mut handles = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let mine = Arc::new(WorkerShared::default());
            workers.push(Arc::clone(&mine));
            let pool = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("adaptnoc-band-{}", w + 1))
                .spawn(move || worker_loop(&pool, &mine))
                .expect("spawning a step-pool worker");
            handles.push(handle);
        }
        StepPool {
            shared,
            workers,
            handles,
            regions: None,
        }
    }

    /// Total threads participating in a parallel step (including the
    /// calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Installs a custom band partition (e.g. subNoC region boundaries).
    /// The map is used whenever its router count matches the stepped
    /// network and its band count does not exceed [`threads`](Self::threads);
    /// otherwise the pool falls back to an even split.
    pub fn set_regions(&mut self, map: Option<RegionMap>) {
        self.regions = map;
    }

    /// Band boundaries for stepping a network of `n_routers` routers.
    pub(crate) fn plan(&self, n_routers: usize) -> Vec<usize> {
        if let Some(m) = &self.regions {
            if m.routers() == n_routers && m.bands() <= self.threads() {
                return m.bounds.clone();
            }
        }
        RegionMap::even(n_routers, self.threads()).bounds
    }

    /// Hands `jobs` to workers 0.. and releases them for one generation.
    /// Always paired with a following [`wait`](Self::wait).
    pub(crate) fn dispatch(&mut self, jobs: Vec<BandJob>) {
        debug_assert!(jobs.len() <= self.workers.len(), "more jobs than workers");
        for (w, job) in self.workers.iter().zip(jobs) {
            *w.job.lock().expect("job slot poisoned") = Some(job);
        }
        *self.shared.done.lock().expect("done counter poisoned") = 0;
        let mut gen = self.shared.gen.lock().expect("generation poisoned");
        *gen += 1;
        self.shared.gen_cv.notify_all();
    }

    /// Blocks until every worker acknowledged the current generation.
    pub(crate) fn wait(&self) {
        let mut done = self.shared.done.lock().expect("done counter poisoned");
        while *done < self.workers.len() {
            done = self
                .shared
                .done_cv
                .wait(done)
                .expect("done counter poisoned");
        }
    }

    /// Runs `f` over the workers' band states in ascending band order
    /// (bands 1..; band 0 runs on the calling thread, into the network's
    /// own sink). Must only be called after [`wait`](Self::wait) — the
    /// worker state locks are uncontended then.
    pub(crate) fn merge_states(&mut self, mut f: impl FnMut(&mut WorkerState)) {
        for w in &self.workers {
            f(&mut w.state.lock().expect("worker state poisoned"));
        }
    }
}

impl Drop for StepPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _gen = self.shared.gen.lock().expect("generation poisoned");
            self.shared.gen_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker body: park until a generation is published, run the job (if
/// any), acknowledge, repeat until shutdown.
fn worker_loop(pool: &PoolShared, mine: &WorkerShared) {
    let mut seen = 0u64;
    loop {
        {
            let mut gen = pool.gen.lock().expect("generation poisoned");
            while *gen == seen && !pool.shutdown.load(Ordering::SeqCst) {
                gen = pool.gen_cv.wait(gen).expect("generation poisoned");
            }
            if pool.shutdown.load(Ordering::SeqCst) {
                return;
            }
            seen = *gen;
        }
        let job = mine.job.lock().expect("job slot poisoned").take();
        if let Some(job) = job {
            let mut state = mine.state.lock().expect("worker state poisoned");
            crate::stage::run_band_job(job, &mut state);
        }
        let mut done = pool.done.lock().expect("done counter poisoned");
        *done += 1;
        pool.done_cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_region_map_covers_all_routers() {
        let m = RegionMap::even(64, 4);
        assert_eq!(m.bands(), 4);
        assert_eq!(m.bounds(), &[0, 16, 32, 48, 64]);
        let m = RegionMap::even(7, 3);
        assert_eq!(m.routers(), 7);
        assert_eq!(m.bounds()[0], 0);
        assert!(m.bounds().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn even_region_map_clamps_band_count() {
        assert_eq!(RegionMap::even(2, 8).bands(), 2);
        assert_eq!(RegionMap::even(5, 0).bands(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_bounds_rejects_non_monotonic() {
        let _ = RegionMap::from_bounds(vec![0, 4, 4, 8]);
    }

    #[test]
    fn pool_plan_prefers_matching_region_map() {
        let mut pool = StepPool::new(2);
        assert_eq!(pool.plan(8), vec![0, 4, 8]);
        pool.set_regions(Some(RegionMap::from_bounds(vec![0, 6, 8])));
        assert_eq!(pool.plan(8), vec![0, 6, 8]);
        // Mismatched router count falls back to the even split.
        assert_eq!(pool.plan(10), vec![0, 5, 10]);
    }

    #[test]
    fn pool_starts_and_shuts_down() {
        let pool = StepPool::new(4);
        assert_eq!(pool.threads(), 4);
        drop(pool); // joins workers; hangs here = shutdown bug
    }
}
