//! Drivable-area rasterization — the `costmap_generator` node.
//!
//! Two inputs, two rasterization passes, matching the node's two
//! subscriptions in Table IV:
//!
//! * the non-ground point cloud (`/points_no_ground`) marks occupied
//!   cells directly;
//! * tracked objects with predicted paths mark their footprint *now* and
//!   along the trajectory they are predicted to follow, with decaying
//!   cost ("not occupied by objects or to be occupied in the near future").

use av_des::{Leaf, SnapError, SnapReader, SnapWriter};
use av_geom::Vec3;
use av_pointcloud::PointCloud;

/// Cost value for a directly observed obstacle.
pub const COST_OCCUPIED: u8 = 100;

/// Costmap geometry and weights.
#[derive(Debug, Clone, PartialEq)]
pub struct CostmapParams {
    /// Cell edge length, meters.
    pub resolution: f64,
    /// Grid half-extent (the grid covers ±half_size around the ego),
    /// meters.
    pub half_size: f64,
    /// Obstacle inflation radius, meters.
    pub inflation: f64,
    /// Cost assigned to a predicted (future) footprint at horizon start,
    /// decaying linearly to 0 at the path end.
    pub predicted_cost: u8,
    /// Points below this height (sensor frame) are ignored as residual
    /// ground returns.
    pub min_height: f64,
}

impl Default for CostmapParams {
    fn default() -> CostmapParams {
        CostmapParams {
            resolution: 0.25,
            half_size: 40.0,
            inflation: 0.4,
            predicted_cost: 60,
            min_height: -1.6,
        }
    }
}

/// An ego-centered occupancy grid (body frame: +x forward).
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyGrid {
    resolution: f64,
    half_size: f64,
    cells_per_side: usize,
    data: Vec<u8>,
}

impl OccupancyGrid {
    fn new(resolution: f64, half_size: f64) -> OccupancyGrid {
        let cells_per_side = ((2.0 * half_size) / resolution).ceil() as usize;
        OccupancyGrid {
            resolution,
            half_size,
            cells_per_side,
            data: vec![0; cells_per_side * cells_per_side],
        }
    }

    /// Rebuilds a grid from its parts, as produced by [`OccupancyGrid::resolution`],
    /// [`OccupancyGrid::half_size`] and [`OccupancyGrid::data`].
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold a whole square grid matching the
    /// geometry implied by `resolution` and `half_size`.
    pub fn from_parts(resolution: f64, half_size: f64, data: Vec<u8>) -> OccupancyGrid {
        OccupancyGrid::checked(resolution, half_size, data).expect("grid data length mismatch")
    }

    fn checked(resolution: f64, half_size: f64, data: Vec<u8>) -> Option<OccupancyGrid> {
        let cells_per_side = ((2.0 * half_size) / resolution).ceil() as usize;
        if cells_per_side.checked_mul(cells_per_side) != Some(data.len()) {
            return None;
        }
        Some(OccupancyGrid { resolution, half_size, cells_per_side, data })
    }

    /// Cell edge length, meters.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Grid half-extent, meters.
    pub fn half_size(&self) -> f64 {
        self.half_size
    }

    /// Cells per side (the grid is square).
    pub fn cells_per_side(&self) -> usize {
        self.cells_per_side
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the grid has no cells (never for generated grids).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Cell index for a body-frame position, or `None` outside the grid.
    pub fn index_of(&self, p: Vec3) -> Option<usize> {
        let col = (p.x + self.half_size) / self.resolution;
        let row = (p.y + self.half_size) / self.resolution;
        // Rejects negatives and NaN; `as usize` then floors what is left.
        if !(col >= 0.0 && row >= 0.0) {
            return None;
        }
        let (col, row) = (col as usize, row as usize);
        if col >= self.cells_per_side || row >= self.cells_per_side {
            return None;
        }
        Some(row * self.cells_per_side + col)
    }

    /// Cost at a body-frame position (0 outside the grid).
    pub fn cost_at(&self, p: Vec3) -> u8 {
        self.index_of(p).map(|i| self.data[i]).unwrap_or(0)
    }

    fn raise(&mut self, index: usize, cost: u8) {
        self.data[index] = self.data[index].max(cost);
    }

    /// Number of cells with nonzero cost.
    pub fn occupied_cells(&self) -> usize {
        self.data.iter().filter(|&&c| c > 0).count()
    }

    /// Fraction of cells with zero cost.
    pub fn free_ratio(&self) -> f64 {
        1.0 - self.occupied_cells() as f64 / self.data.len() as f64
    }

    /// Raw cost data, row-major (row = y, col = x).
    pub fn data(&self) -> &[u8] {
        &self.data
    }
}

/// Checkpoint encoding: resolution, half-size, then the cells as a
/// sequence.
impl Leaf for OccupancyGrid {
    fn put(&self, w: &mut SnapWriter) {
        w.put_f64(self.resolution);
        w.put_f64(self.half_size);
        self.data.put(w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<OccupancyGrid, SnapError> {
        let (resolution, half_size, data) = Leaf::get(r)?;
        OccupancyGrid::checked(resolution, half_size, data)
            .ok_or_else(|| SnapError::Corrupt("grid data length mismatch".to_string()))
    }
}

/// An object footprint plus its predicted future positions, as handed to
/// the costmap by the prediction node.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectFootprint {
    /// Current position (body frame).
    pub position: Vec3,
    /// Half-extents of the body box.
    pub half_extents: Vec3,
    /// Heading, radians.
    pub yaw: f64,
    /// Predicted future positions, nearest first.
    pub path: Vec<Vec3>,
}

/// The costmap generator.
///
/// ```
/// use av_geom::Vec3;
/// use av_pointcloud::PointCloud;
/// use av_perception::{CostmapGenerator, CostmapParams};
///
/// let gen = CostmapGenerator::new(CostmapParams::default());
/// let points = PointCloud::from_positions([Vec3::new(5.0, 0.0, 0.0)]);
/// let grid = gen.from_points(&points);
/// assert!(grid.cost_at(Vec3::new(5.0, 0.0, 0.0)) > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CostmapGenerator {
    params: CostmapParams,
}

impl CostmapGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if resolution or half-size are not positive.
    pub fn new(params: CostmapParams) -> CostmapGenerator {
        assert!(params.resolution > 0.0, "resolution must be positive");
        assert!(params.half_size > params.resolution, "grid must span multiple cells");
        CostmapGenerator { params }
    }

    /// Generator parameters.
    pub fn params(&self) -> &CostmapParams {
        &self.params
    }

    /// Rasterizes the non-ground point cloud into an occupancy grid.
    pub fn from_points(&self, no_ground: &PointCloud) -> OccupancyGrid {
        let mut grid = OccupancyGrid::new(self.params.resolution, self.params.half_size);
        let inflate_cells = (self.params.inflation / self.params.resolution).ceil() as i64;
        for p in no_ground.positions() {
            if p.z < self.params.min_height {
                continue;
            }
            self.stamp(&mut grid, p, inflate_cells, COST_OCCUPIED);
        }
        grid
    }

    /// Rasterizes tracked objects and their predicted paths.
    pub fn from_objects(&self, objects: &[ObjectFootprint]) -> OccupancyGrid {
        let mut grid = OccupancyGrid::new(self.params.resolution, self.params.half_size);
        for obj in objects {
            self.stamp_footprint(&mut grid, obj.position, obj, COST_OCCUPIED);
            let n = obj.path.len();
            for (k, &waypoint) in obj.path.iter().enumerate() {
                // Linear decay toward the end of the horizon.
                let decay = 1.0 - (k as f64 + 1.0) / (n as f64 + 1.0);
                let cost = (self.params.predicted_cost as f64 * decay).round() as u8;
                if cost == 0 {
                    continue;
                }
                self.stamp_footprint(&mut grid, waypoint, obj, cost);
            }
        }
        grid
    }

    /// Combines both passes into one grid (cell-wise max).
    pub fn combine(a: &OccupancyGrid, b: &OccupancyGrid) -> OccupancyGrid {
        assert_eq!(a.cells_per_side, b.cells_per_side, "grids must have equal geometry");
        let mut out = a.clone();
        for (dst, &src) in out.data.iter_mut().zip(&b.data) {
            *dst = (*dst).max(src);
        }
        out
    }

    fn stamp(&self, grid: &mut OccupancyGrid, p: Vec3, inflate_cells: i64, cost: u8) {
        let Some(center) = grid.index_of(p) else { return };
        let side = grid.cells_per_side as i64;
        let (row, col) =
            ((center / grid.cells_per_side) as i64, (center % grid.cells_per_side) as i64);
        for dr in -inflate_cells..=inflate_cells {
            for dc in -inflate_cells..=inflate_cells {
                let (r, c) = (row + dr, col + dc);
                if r < 0 || c < 0 || r >= side || c >= side {
                    continue;
                }
                grid.raise((r * side + c) as usize, cost);
            }
        }
    }

    fn stamp_footprint(&self, grid: &mut OccupancyGrid, at: Vec3, obj: &ObjectFootprint, cost: u8) {
        // Rasterize the oriented footprint rectangle by sampling its area
        // at cell resolution.
        let (sin_y, cos_y) = obj.yaw.sin_cos();
        let hx = obj.half_extents.x.max(self.params.resolution);
        let hy = obj.half_extents.y.max(self.params.resolution);
        let step = self.params.resolution * 0.7;
        let mut x = -hx;
        while x <= hx {
            let mut y = -hy;
            while y <= hy {
                let world =
                    Vec3::new(at.x + cos_y * x - sin_y * y, at.y + sin_y * x + cos_y * y, 0.0);
                if let Some(idx) = grid.index_of(world) {
                    grid.raise(idx, cost);
                }
                y += step;
            }
            x += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> CostmapGenerator {
        CostmapGenerator::new(CostmapParams::default())
    }

    #[test]
    fn point_marks_and_inflates() {
        let grid = generator().from_points(&PointCloud::from_positions([Vec3::new(5.0, 2.0, 0.0)]));
        assert_eq!(grid.cost_at(Vec3::new(5.0, 2.0, 0.0)), COST_OCCUPIED);
        // Inflation: a cell 0.3 m away is also marked.
        assert_eq!(grid.cost_at(Vec3::new(5.3, 2.0, 0.0)), COST_OCCUPIED);
        // Far away stays free.
        assert_eq!(grid.cost_at(Vec3::new(15.0, 2.0, 0.0)), 0);
    }

    #[test]
    fn low_points_ignored() {
        let grid =
            generator().from_points(&PointCloud::from_positions([Vec3::new(5.0, 0.0, -1.85)]));
        assert_eq!(grid.occupied_cells(), 0);
    }

    #[test]
    fn out_of_grid_points_ignored() {
        let grid =
            generator().from_points(&PointCloud::from_positions([Vec3::new(500.0, 0.0, 0.0)]));
        assert_eq!(grid.occupied_cells(), 0);
    }

    #[test]
    fn object_footprint_covers_its_box() {
        let obj = ObjectFootprint {
            position: Vec3::new(10.0, 0.0, 0.0),
            half_extents: Vec3::new(2.25, 0.9, 0.75),
            yaw: 0.0,
            path: vec![],
        };
        let grid = generator().from_objects(&[obj]);
        assert_eq!(grid.cost_at(Vec3::new(10.0, 0.0, 0.0)), COST_OCCUPIED);
        assert_eq!(grid.cost_at(Vec3::new(11.9, 0.0, 0.0)), COST_OCCUPIED);
        assert_eq!(grid.cost_at(Vec3::new(10.0, 0.7, 0.0)), COST_OCCUPIED);
        assert_eq!(grid.cost_at(Vec3::new(10.0, 3.0, 0.0)), 0);
    }

    #[test]
    fn rotated_footprint_follows_yaw() {
        let obj = ObjectFootprint {
            position: Vec3::new(10.0, 0.0, 0.0),
            half_extents: Vec3::new(2.25, 0.9, 0.75),
            yaw: std::f64::consts::FRAC_PI_2,
            path: vec![],
        };
        let grid = generator().from_objects(&[obj]);
        // Long axis now along +y.
        assert_eq!(grid.cost_at(Vec3::new(10.0, 1.9, 0.0)), COST_OCCUPIED);
        assert_eq!(grid.cost_at(Vec3::new(11.9, 0.0, 0.0)), 0);
    }

    #[test]
    fn predicted_path_costs_decay() {
        let obj = ObjectFootprint {
            position: Vec3::new(5.0, 0.0, 0.0),
            half_extents: Vec3::new(1.0, 1.0, 1.0),
            yaw: 0.0,
            path: vec![Vec3::new(10.0, 0.0, 0.0), Vec3::new(15.0, 0.0, 0.0)],
        };
        let grid = generator().from_objects(&[obj]);
        let now = grid.cost_at(Vec3::new(5.0, 0.0, 0.0));
        let soon = grid.cost_at(Vec3::new(10.0, 0.0, 0.0));
        let later = grid.cost_at(Vec3::new(15.0, 0.0, 0.0));
        assert_eq!(now, COST_OCCUPIED);
        assert!(soon > later, "prediction cost must decay: {soon} vs {later}");
        assert!(later > 0);
    }

    #[test]
    fn combine_takes_cellwise_max() {
        let gen = generator();
        let a = gen.from_points(&PointCloud::from_positions([Vec3::new(5.0, 0.0, 0.0)]));
        let b = gen.from_objects(&[ObjectFootprint {
            position: Vec3::new(-5.0, 0.0, 0.0),
            half_extents: Vec3::splat(1.0),
            yaw: 0.0,
            path: vec![],
        }]);
        let c = CostmapGenerator::combine(&a, &b);
        assert_eq!(c.cost_at(Vec3::new(5.0, 0.0, 0.0)), COST_OCCUPIED);
        assert_eq!(c.cost_at(Vec3::new(-5.0, 0.0, 0.0)), COST_OCCUPIED);
        assert!(c.occupied_cells() >= a.occupied_cells().max(b.occupied_cells()));
    }

    #[test]
    fn free_ratio_reflects_occupancy() {
        let grid = generator().from_points(&PointCloud::new());
        assert_eq!(grid.free_ratio(), 1.0);
        let grid2 =
            generator().from_points(&PointCloud::from_positions([Vec3::new(1.0, 1.0, 0.0)]));
        assert!(grid2.free_ratio() < 1.0);
    }

    #[test]
    fn nan_positions_mark_nothing() {
        let gen = generator();
        let grid = gen.from_points(&PointCloud::new());
        for p in [
            Vec3::new(f64::NAN, 0.0, 0.0),
            Vec3::new(0.0, f64::NAN, 0.0),
            Vec3::new(f64::NAN, f64::NAN, 0.0),
        ] {
            assert_eq!(grid.index_of(p), None, "{p:?}");
            assert_eq!(grid.cost_at(p), 0, "{p:?}");
            let marked = gen.from_points(&PointCloud::from_positions([p]));
            assert_eq!(marked.occupied_cells(), 0, "{p:?}");
            let object = ObjectFootprint {
                position: p,
                half_extents: Vec3::splat(1.0),
                yaw: 0.0,
                path: vec![p],
            };
            assert_eq!(gen.from_objects(&[object]).occupied_cells(), 0, "{p:?}");
        }
    }

    #[test]
    fn grid_geometry() {
        let grid = generator().from_points(&PointCloud::new());
        assert_eq!(grid.cells_per_side(), 320);
        assert_eq!(grid.len(), 320 * 320);
        assert!(!grid.is_empty());
        assert!(grid.index_of(Vec3::new(39.9, 39.9, 0.0)).is_some());
        assert!(grid.index_of(Vec3::new(40.1, 0.0, 0.0)).is_none());
        assert!(grid.index_of(Vec3::new(0.0, -40.1, 0.0)).is_none());
        // The first cell starts exactly at the grid edge; anything
        // below it, however little, is outside.
        assert_eq!(grid.index_of(Vec3::new(-40.0, -40.0, 0.0)), Some(0));
        assert!(grid.index_of(Vec3::new((-40.0f64).next_down(), 0.0, 0.0)).is_none());
        assert!(grid.index_of(Vec3::new(f64::INFINITY, 0.0, 0.0)).is_none());
    }
}
