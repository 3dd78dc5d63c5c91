//! Whole-chip spec assembly from region assignments.

use crate::geom::{Coord, Grid, Rect};
use crate::plan::{BuildError, ChipPlan};
use crate::regions::{build_region, RegionTopology, TopologyKind};
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::Direction;
use adaptnoc_sim::spec::NetworkSpec;

/// Builds a complete chip spec from disjoint region assignments.
///
/// Tiles not covered by any region are wired as a best-effort mesh among
/// themselves (they host no experiment traffic).
///
/// # Errors
///
/// Returns [`BuildError`] if regions overlap, exceed the grid, or a region
/// builder fails.
pub fn build_chip_spec(
    grid: Grid,
    regions: &[RegionTopology],
    cfg: &SimConfig,
) -> Result<NetworkSpec, BuildError> {
    for (i, a) in regions.iter().enumerate() {
        if !a.rect.fits(&grid) {
            return Err(BuildError::Region(format!(
                "region {} exceeds the grid",
                a.rect
            )));
        }
        for b in &regions[i + 1..] {
            if a.rect.overlaps(&b.rect) {
                return Err(BuildError::Region(format!(
                    "regions {} and {} overlap",
                    a.rect, b.rect
                )));
            }
        }
    }

    let mut plan = ChipPlan::new(grid, cfg);
    for region in regions {
        build_region(&mut plan, region, cfg)?;
    }

    // Leftover tiles: wire a best-effort mesh so the spec stays valid.
    let leftover: Vec<Coord> = grid
        .iter()
        .filter(|c| !regions.iter().any(|r| r.rect.contains(*c)))
        .collect();
    if !leftover.is_empty() {
        for &c in &leftover {
            plan.add_local_ni(c);
            for dir in [Direction::East, Direction::North] {
                if let Some(n) = plan.grid.neighbor(c, dir) {
                    if leftover.contains(&n) {
                        plan.add_mesh_link(c, n)?;
                    }
                }
            }
        }
        let routers: Vec<_> = leftover.iter().map(|&c| grid.router(c)).collect();
        let nodes: Vec<_> = leftover.iter().map(|&c| grid.node(c)).collect();
        crate::dor::fill_dor_tables_all_vnets(
            &mut plan.spec,
            &grid,
            cfg.vnets,
            &routers,
            &nodes,
            true,
        )?;
    }

    plan.finish()
}

/// The whole-chip mesh baseline.
///
/// # Errors
///
/// Propagates [`BuildError`] (cannot fail for a valid grid).
pub fn mesh_chip(grid: Grid, cfg: &SimConfig) -> Result<NetworkSpec, BuildError> {
    build_chip_spec(
        grid,
        &[RegionTopology::new(
            Rect::new(0, 0, grid.width, grid.height),
            TopologyKind::Mesh,
        )],
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptnoc_sim::ids::NodeId;

    #[test]
    fn mesh_chip_8x8_has_expected_shape() {
        let spec = mesh_chip(Grid::paper(), &SimConfig::baseline()).unwrap();
        assert_eq!(spec.routers.len(), 64);
        assert_eq!(spec.nis.len(), 64);
        // 2 * (7*8 + 7*8) = 224 unidirectional channels.
        assert_eq!(spec.channels.len(), 224);
        assert_eq!(spec.active_routers(), 64);
    }

    #[test]
    fn overlapping_regions_rejected() {
        let regions = [
            RegionTopology::new(Rect::new(0, 0, 4, 4), TopologyKind::Mesh),
            RegionTopology::new(Rect::new(2, 2, 4, 4), TopologyKind::Mesh),
        ];
        let err = build_chip_spec(Grid::paper(), &regions, &SimConfig::baseline());
        assert!(matches!(err, Err(BuildError::Region(_))));
    }

    #[test]
    fn oversized_region_rejected() {
        let regions = [RegionTopology::new(
            Rect::new(4, 4, 8, 4),
            TopologyKind::Mesh,
        )];
        let err = build_chip_spec(Grid::paper(), &regions, &SimConfig::baseline());
        assert!(matches!(err, Err(BuildError::Region(_))));
    }

    #[test]
    fn multi_region_chip_builds() {
        let cfg = SimConfig::adapt_noc();
        let regions = [
            RegionTopology::new(Rect::new(0, 0, 4, 4), TopologyKind::Cmesh),
            RegionTopology::new(Rect::new(4, 0, 4, 4), TopologyKind::Torus),
            RegionTopology::new(Rect::new(0, 4, 8, 4), TopologyKind::Tree).with_root(NodeId(32)),
        ];
        let spec = build_chip_spec(Grid::paper(), &regions, &cfg).unwrap();
        assert_eq!(spec.nis.len(), 64);
        // The cmesh region gated 12 routers.
        assert_eq!(spec.active_routers(), 64 - 12);
    }

    #[test]
    fn leftover_tiles_get_best_effort_mesh() {
        let cfg = SimConfig::baseline();
        let regions = [RegionTopology::new(
            Rect::new(0, 0, 4, 8),
            TopologyKind::Mesh,
        )];
        let spec = build_chip_spec(Grid::paper(), &regions, &cfg).unwrap();
        assert_eq!(spec.nis.len(), 64, "leftover tiles still get NIs");
        // Leftover right half is a connected mesh: 2*(3*8 + 4*7) = 104
        // channels, plus the region's 2*(3*8+4*7) = same.
        assert_eq!(spec.channels.len(), 208);
    }
}
