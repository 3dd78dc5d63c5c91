//! Deterministic fault schedules.
//!
//! A [`FaultSchedule`] is an ordered list of [`FaultEvent`]s — transient
//! link faults (the link heals after a duration), permanent link faults,
//! and permanent router faults — fired into a running simulation by a
//! [`crate::controller::FaultController`]. Schedules are plain data:
//! hand-written for targeted experiments or drawn from the in-tree seeded
//! PRNG for campaigns, so the same seed always produces the same faults
//! and, downstream, byte-identical metrics.

use adaptnoc_sim::ids::RouterId;
use adaptnoc_sim::rng::Rng;
use adaptnoc_sim::spec::{ChannelKey, NetworkSpec};
use adaptnoc_topology::geom::{Grid, Rect};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A link stops accepting flits for `duration` cycles, then heals.
    TransientLink {
        /// The faulted channel's endpoints.
        key: ChannelKey,
        /// Cycles until the link heals.
        duration: u64,
    },
    /// A link dies permanently; the subNoC must reroute around it (or
    /// segment its adaptable twin).
    PermanentLink {
        /// The dead channel's endpoints.
        key: ChannelKey,
    },
    /// A router dies permanently, taking its node and all its links down.
    PermanentRouter {
        /// The dead router.
        router: RouterId,
    },
}

/// A fault firing at a simulation cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the fault strikes.
    pub at: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// An ordered fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

/// Parameters for [`FaultSchedule::random`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleParams {
    /// Number of transient link faults.
    pub transients: usize,
    /// Number of permanent link faults.
    pub permanent_links: usize,
    /// Number of permanent router faults.
    pub router_faults: usize,
    /// Faults strike uniformly in `[window_start, window_end)`.
    pub window_start: u64,
    /// End of the strike window (exclusive).
    pub window_end: u64,
    /// Transient durations are uniform in `[min_duration, max_duration]`.
    pub min_duration: u64,
    /// Longest transient outage.
    pub max_duration: u64,
}

impl Default for ScheduleParams {
    fn default() -> Self {
        ScheduleParams {
            transients: 2,
            permanent_links: 1,
            router_faults: 0,
            window_start: 100,
            window_end: 1_000,
            min_duration: 20,
            max_duration: 200,
        }
    }
}

impl FaultSchedule {
    /// Builds a schedule from explicit events (sorted by strike cycle,
    /// stable for equal cycles).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// The events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Draws a random schedule over `rect`'s router-to-router channels and
    /// routers, deterministically from `seed`. Faulted channels are drawn
    /// without replacement; the region's origin router is never drawn as a
    /// router fault (it anchors the recovery spanning tree in campaigns
    /// that compare against a healthy baseline).
    pub fn random(
        spec: &NetworkSpec,
        grid: &Grid,
        rect: Rect,
        params: &ScheduleParams,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let region_router = |r: RouterId| {
            let x = (r.0 % grid.width as u16) as u8;
            let y = (r.0 / grid.width as u16) as u8;
            rect.contains(adaptnoc_topology::geom::Coord::new(x, y))
        };
        let mut keys: Vec<ChannelKey> = spec
            .channels
            .iter()
            .filter(|c| region_router(c.src.router) && region_router(c.dst.router))
            .map(|c| c.key())
            .collect();
        let mut routers: Vec<RouterId> = rect
            .iter()
            .skip(1) // keep the origin alive
            .map(|c| grid.router(c))
            .collect();

        let mut events = Vec::new();
        let strike = |rng: &mut Rng| {
            params.window_start
                + rng.random_below((params.window_end - params.window_start).max(1) as usize) as u64
        };
        for _ in 0..params.transients {
            if keys.is_empty() {
                break;
            }
            let key = keys.swap_remove(rng.random_below(keys.len()));
            let duration = params.min_duration
                + rng.random_below((params.max_duration - params.min_duration + 1).max(1) as usize)
                    as u64;
            events.push(FaultEvent {
                at: strike(&mut rng),
                kind: FaultKind::TransientLink { key, duration },
            });
        }
        for _ in 0..params.permanent_links {
            if keys.is_empty() {
                break;
            }
            let key = keys.swap_remove(rng.random_below(keys.len()));
            events.push(FaultEvent {
                at: strike(&mut rng),
                kind: FaultKind::PermanentLink { key },
            });
        }
        for _ in 0..params.router_faults {
            if routers.is_empty() {
                break;
            }
            let router = routers.swap_remove(rng.random_below(routers.len()));
            events.push(FaultEvent {
                at: strike(&mut rng),
                kind: FaultKind::PermanentRouter { router },
            });
        }
        FaultSchedule::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_sim::config::SimConfig;
    use adaptnoc_topology::prelude::*;

    fn mesh() -> (NetworkSpec, Grid) {
        let grid = Grid::new(4, 4);
        (mesh_chip(grid, &SimConfig::baseline()).unwrap(), grid)
    }

    #[test]
    fn schedule_is_sorted_and_deterministic() {
        let (spec, grid) = mesh();
        let rect = Rect::new(0, 0, 4, 4);
        let p = ScheduleParams {
            transients: 3,
            permanent_links: 2,
            router_faults: 1,
            ..Default::default()
        };
        let a = FaultSchedule::random(&spec, &grid, rect, &p, 42);
        let b = FaultSchedule::random(&spec, &grid, rect, &p, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        let c = FaultSchedule::random(&spec, &grid, rect, &p, 43);
        assert_ne!(a, c, "different seeds draw different faults");
    }

    #[test]
    fn faults_are_drawn_without_replacement() {
        let (spec, grid) = mesh();
        let p = ScheduleParams {
            transients: 10,
            permanent_links: 10,
            router_faults: 3,
            ..Default::default()
        };
        let s = FaultSchedule::random(&spec, &grid, Rect::new(0, 0, 4, 4), &p, 7);
        let mut keys: Vec<ChannelKey> = s
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::TransientLink { key, .. } | FaultKind::PermanentLink { key } => {
                    Some(key)
                }
                FaultKind::PermanentRouter { .. } => None,
            })
            .collect();
        let n = keys.len();
        keys.sort_by_key(|k| (k.src.router.0, k.src.port.0));
        keys.dedup();
        assert_eq!(keys.len(), n);
        // The origin router is never drawn.
        assert!(s.events().iter().all(|e| !matches!(
            e.kind,
            FaultKind::PermanentRouter { router } if router == grid.router(Coord::new(0, 0))
        )));
    }

    #[test]
    fn window_bounds_respected() {
        let (spec, grid) = mesh();
        let p = ScheduleParams {
            transients: 8,
            permanent_links: 0,
            router_faults: 0,
            window_start: 50,
            window_end: 60,
            min_duration: 5,
            max_duration: 5,
        };
        let s = FaultSchedule::random(&spec, &grid, Rect::new(0, 0, 4, 4), &p, 1);
        for e in s.events() {
            assert!((50..60).contains(&e.at));
            if let FaultKind::TransientLink { duration, .. } = e.kind {
                assert_eq!(duration, 5);
            }
        }
    }
}
