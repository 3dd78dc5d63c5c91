//! Sparse-Hamming-Graph-style customizable topology generation.
//!
//! Hamming graphs connect every pair of routers sharing a row or column;
//! sparse Hamming graphs (Iff et al., see PAPERS.md) keep only a budgeted
//! subset of those links and beat fixed meshes/tori under a wiring budget.
//! This module generates the design-point family: the plain mesh fabric
//! plus *skip links* at configurable per-dimension offsets, placed at
//! aligned positions (`x ≡ rect.x (mod offset)`) so that every offset
//! contributes exactly one span per direction to any tile edge it crosses —
//! the per-edge wiring cost stays flat no matter how many offsets stack.
//!
//! Routing is the *monotone* dimension-ordered scheme of [`crate::dor`]
//! ([`crate::dor::fill_dor_tables_monotone`]): within a row/column the next
//! hop is shortest-path restricted to strictly distance-decreasing,
//! non-overshooting edges. Forbidding target-crossing hops means a route
//! uses one travel direction per line, so each direction's channel
//! dependencies only ever point further along — the dependency graph is
//! acyclic (deadlock-free) for *any* offset set the user configures, not
//! just the aligned binary ladders of [`SparseHammingParams::default_for`].
//! (The overshoot-permitting scheme the torus/express builders use is not
//! safe here: irregular offsets like `[3, 4, 7]` let overshoot-then-return
//! routes close a dependency cycle.)

use crate::dor::{fill_dor_tables_monotone, nodes_of, routers_of};
use crate::geom::{Coord, Rect};
use crate::plan::{express_latency, BuildError, ChipPlan};
use crate::regions::mesh_fabric;
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::Vnet;
use adaptnoc_sim::spec::{ChannelKind, ChannelSpec, NetworkSpec, PortRef};

/// Row/column connectivity parameters of a sparse Hamming design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseHammingParams {
    /// Skip distances added along every row (each `o >= 2`, strictly
    /// increasing). A skip of `o` links aligned tiles `x` and `x + o`.
    pub row_offsets: Vec<u8>,
    /// Skip distances added along every column.
    pub col_offsets: Vec<u8>,
}

impl SparseHammingParams {
    /// The default design point for a `w` x `h` region: power-of-two skip
    /// hierarchies (2, 4, 8, ...) up to half of each dimension — binary
    /// skip rings giving logarithmic row/column diameter.
    pub fn default_for(w: u8, h: u8) -> Self {
        let ladder = |dim: u8| {
            let mut v = Vec::new();
            let mut o = 2u8;
            while o <= dim / 2 {
                v.push(o);
                o = o.saturating_mul(2);
            }
            v
        };
        SparseHammingParams {
            row_offsets: ladder(w),
            col_offsets: ladder(h),
        }
    }

    /// Checks that the offsets are usable in a `rect`-sized region:
    /// strictly increasing, each at least 2 and smaller than the dimension.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Region`] on malformed offsets.
    pub fn validate(&self, rect: Rect) -> Result<(), BuildError> {
        let check = |offsets: &[u8], dim: u8, which: &str| {
            let mut last = 1u8;
            for &o in offsets {
                if o < 2 || o <= last {
                    return Err(BuildError::Region(format!(
                        "sparse-hamming {which} offsets must be strictly increasing and >= 2"
                    )));
                }
                if o >= dim {
                    return Err(BuildError::Region(format!(
                        "sparse-hamming {which} offset {o} does not fit a dimension of {dim}"
                    )));
                }
                last = o;
            }
            Ok(())
        };
        check(&self.row_offsets, rect.w, "row")?;
        check(&self.col_offsets, rect.h, "column")
    }

    /// Ports each router needs: 4 directions + local + one in/out pair per
    /// dimension-direction per offset.
    pub fn ports_needed(&self) -> u8 {
        5 + 2 * (self.row_offsets.len() + self.col_offsets.len()) as u8
    }
}

/// Builds a sparse Hamming subNoC into the plan: mesh fabric + aligned skip
/// links on dedicated high ports, DOR tables over the combined graph.
///
/// # Errors
///
/// Returns [`BuildError`] on malformed offsets or wiring conflicts.
pub fn sparse_hamming_region(
    plan: &mut ChipPlan,
    rect: Rect,
    params: &SparseHammingParams,
    cfg: &SimConfig,
) -> Result<(), BuildError> {
    params.validate(rect)?;
    mesh_fabric(plan, rect)?;
    let grid = plan.grid;

    // Raise the router radix for the skip-link ports. Port map: 0..4 are
    // the mesh directions, 4 the local NI, then one +dir/-dir port pair
    // per offset (row offsets first).
    let n_ports = params.ports_needed();
    for c in rect.iter() {
        let r = grid.router(c).index();
        plan.spec.routers[r].n_ports = plan.spec.routers[r].n_ports.max(n_ports);
    }

    // A skip pair between a and b on the offset's dedicated ports: like the
    // mesh convention, the same port id carries the outgoing link towards a
    // neighbour and the incoming link from it.
    let skip_pair =
        |plan: &mut ChipPlan, a: Coord, b: Coord, port_pos: u8, port_neg: u8, dim_y: bool| {
            let (ra, rb) = (grid.router(a), grid.router(b));
            let mm = a.manhattan(b) as f32;
            let fwd = ChannelSpec {
                src: PortRef::new(ra, adaptnoc_sim::ids::PortId(port_pos)),
                dst: PortRef::new(rb, adaptnoc_sim::ids::PortId(port_neg)),
                latency: express_latency(mm),
                length_mm: mm,
                dateline: false,
                dim_y,
                kind: ChannelKind::Express,
            };
            let rev = ChannelSpec {
                src: PortRef::new(rb, adaptnoc_sim::ids::PortId(port_neg)),
                dst: PortRef::new(ra, adaptnoc_sim::ids::PortId(port_pos)),
                ..fwd
            };
            plan.add_channel(fwd)?;
            plan.add_channel(rev)?;
            Ok::<(), BuildError>(())
        };

    for (i, &o) in params.row_offsets.iter().enumerate() {
        let (pp, pn) = (5 + 2 * i as u8, 6 + 2 * i as u8);
        for y in rect.y..rect.y_end() {
            let mut x = rect.x;
            while x + o < rect.x_end() {
                skip_pair(plan, Coord::new(x, y), Coord::new(x + o, y), pp, pn, false)?;
                x += o;
            }
        }
    }
    let base = 5 + 2 * params.row_offsets.len() as u8;
    for (j, &o) in params.col_offsets.iter().enumerate() {
        let (pp, pn) = (base + 2 * j as u8, base + 1 + 2 * j as u8);
        for x in rect.x..rect.x_end() {
            let mut y = rect.y;
            while y + o < rect.y_end() {
                skip_pair(plan, Coord::new(x, y), Coord::new(x, y + o), pp, pn, true)?;
                y += o;
            }
        }
    }

    let routers = routers_of(&grid, rect.iter());
    let nodes = nodes_of(&grid, rect.iter());
    for v in 0..cfg.vnets {
        fill_dor_tables_monotone(&mut plan.spec, &grid, Vnet(v), &routers, &nodes, false)?;
    }
    Ok(())
}

/// Builds a whole chip as one sparse Hamming network.
///
/// # Errors
///
/// Propagates [`BuildError`] from the region builder or spec validation.
pub fn sparse_hamming_chip(
    grid: crate::geom::Grid,
    params: &SparseHammingParams,
    cfg: &SimConfig,
) -> Result<NetworkSpec, BuildError> {
    let mut plan = ChipPlan::new(grid, cfg);
    sparse_hamming_region(
        &mut plan,
        Rect::new(0, 0, grid.width, grid.height),
        params,
        cfg,
    )?;
    plan.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Grid;
    use crate::validate::{all_pairs, check_routes_and_deadlock, wiring_feasible, WiringLimits};
    use adaptnoc_sim::ids::NodeId;

    #[test]
    fn default_params_are_binary_ladders() {
        let p = SparseHammingParams::default_for(16, 16);
        assert_eq!(p.row_offsets, vec![2, 4, 8]);
        assert_eq!(p.col_offsets, vec![2, 4, 8]);
        let p = SparseHammingParams::default_for(4, 8);
        assert_eq!(p.row_offsets, vec![2]);
        assert_eq!(p.col_offsets, vec![2, 4]);
    }

    #[test]
    fn malformed_offsets_rejected() {
        let rect = Rect::new(0, 0, 8, 8);
        for bad in [vec![1], vec![4, 2], vec![2, 2], vec![8]] {
            let p = SparseHammingParams {
                row_offsets: bad,
                col_offsets: vec![],
            };
            assert!(p.validate(rect).is_err());
        }
    }

    #[test]
    fn chip_16x16_is_deadlock_free_and_fits_wiring() {
        let grid = Grid::new(16, 16);
        let cfg = SimConfig::baseline();
        let params = SparseHammingParams::default_for(16, 16);
        let spec = sparse_hamming_chip(grid, &params, &cfg).unwrap();
        // Skip links exist beyond the 2*(15*16)*2 = 960 mesh channels.
        assert!(spec.channels.len() > 960);
        let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
        let stats = check_routes_and_deadlock(&spec, &all_pairs(&nodes)).unwrap();
        // Binary skip ladder: row/column distance is logarithmic, so the
        // worst route is far below the 30-hop mesh diameter.
        assert!(stats.max_hops <= 14, "max hops {}", stats.max_hops);
        let report = wiring_feasible(&spec, &grid, &WiringLimits::paper());
        assert!(report.fits, "wiring report {report:?}");
    }

    #[test]
    fn skip_links_cut_hops_vs_mesh() {
        let grid = Grid::new(16, 16);
        let cfg = SimConfig::baseline();
        let params = SparseHammingParams::default_for(16, 16);
        let spec = sparse_hamming_chip(grid, &params, &cfg).unwrap();
        let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
        let pairs = all_pairs(&nodes);
        let sparse = check_routes_and_deadlock(&spec, &pairs).unwrap();
        let mesh = crate::chip::mesh_chip(grid, &cfg).unwrap();
        let mesh = check_routes_and_deadlock(&mesh, &pairs).unwrap();
        assert!(
            sparse.avg_hops() < 0.6 * mesh.avg_hops(),
            "sparse {} vs mesh {}",
            sparse.avg_hops(),
            mesh.avg_hops()
        );
    }

    #[test]
    fn region_within_larger_chip_builds() {
        let grid = Grid::new(8, 8);
        let cfg = SimConfig::baseline();
        let mut plan = ChipPlan::new(grid, &cfg);
        let rect = Rect::new(2, 2, 4, 4);
        sparse_hamming_region(
            &mut plan,
            rect,
            &SparseHammingParams::default_for(4, 4),
            &cfg,
        )
        .unwrap();
        for c in grid.iter() {
            if !rect.contains(c) {
                plan.add_local_ni(c);
            }
        }
        let spec = plan.finish().unwrap();
        let nodes: Vec<NodeId> = rect.iter().map(|c| grid.node(c)).collect();
        check_routes_and_deadlock(&spec, &all_pairs(&nodes)).unwrap();
    }
}
