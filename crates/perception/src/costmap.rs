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
use av_geom::{CellScale, Vec3};
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
    /// Divides by `resolution`.
    cells: CellScale,
    half_size: f64,
    cells_per_side: usize,
    data: Vec<u8>,
}

impl OccupancyGrid {
    fn new(resolution: f64, half_size: f64) -> OccupancyGrid {
        let cells_per_side = ((2.0 * half_size) / resolution).ceil() as usize;
        OccupancyGrid {
            resolution,
            cells: CellScale::new(resolution),
            half_size,
            cells_per_side,
            data: vec![0; cells_per_side * cells_per_side],
        }
    }

    /// Rebuilds a grid from its parts; `None` unless `data` holds a whole
    /// square grid of the geometry `resolution` and `half_size` imply.
    fn checked(resolution: f64, half_size: f64, data: Vec<u8>) -> Option<OccupancyGrid> {
        let cells_per_side = ((2.0 * half_size) / resolution).ceil() as usize;
        if cells_per_side.checked_mul(cells_per_side) != Some(data.len()) {
            return None;
        }
        Some(OccupancyGrid {
            resolution,
            cells: CellScale::new(resolution),
            half_size,
            cells_per_side,
            data,
        })
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
        self.index_of_xy(p.x, p.y)
    }

    fn index_of_xy(&self, x: f64, y: f64) -> Option<usize> {
        let col = self.cells.scaled(x + self.half_size);
        let row = self.cells.scaled(y + self.half_size);
        // Inside iff both lie in [0, cells per side), an integer, so the
        // test needs no conversion; NaN fails it. A plain truncation then
        // floors what is left (a saturating float-to-`usize` cast costs a
        // dozen instructions, and this runs for every footprint sample).
        let side = self.cells_per_side as f64;
        if !(col >= 0.0 && row >= 0.0 && col < side && row < side) {
            return None;
        }
        // SAFETY: both lie in [0, cells per side), and the grid's cell
        // count fits in memory, so cells per side fits a `u32`.
        let (col, row) = unsafe { (col.to_int_unchecked::<u32>(), row.to_int_unchecked::<u32>()) };
        Some(row as usize * self.cells_per_side + col as usize)
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

    /// Rasterizes tracked objects and their predicted paths. A footprint
    /// whose position, yaw or extents are not finite marks nothing. One
    /// wider than any view of the grid (a half-extent past
    /// `half_size·√2`, the grid's widest projection onto an axis) is
    /// sampled per stamp, only where it can land in the grid, so no
    /// extent costs more samples than the grid can receive.
    pub fn from_objects(&self, objects: &[ObjectFootprint]) -> OccupancyGrid {
        let (resolution, half_size) = (self.params.resolution, self.params.half_size);
        let mut grid = OccupancyGrid::new(resolution, half_size);
        let mut samples = FootprintSamples::default();
        let reach = half_size * std::f64::consts::SQRT_2;
        for obj in objects {
            if !(obj.position.is_finite() && obj.half_extents.is_finite() && obj.yaw.is_finite()) {
                continue;
            }
            let clipped = obj.half_extents.x.max(obj.half_extents.y) > reach;
            if !clipped {
                samples.fill(obj, resolution);
            }
            let mut stamp = |at: Vec3, cost: u8| {
                if clipped {
                    samples.fill_clipped(obj, resolution, at, half_size);
                }
                samples.stamp(&mut grid, at, cost);
            };
            stamp(obj.position, COST_OCCUPIED);
            let n = obj.path.len();
            for (k, &waypoint) in obj.path.iter().enumerate() {
                // Linear decay toward the end of the horizon.
                let decay = 1.0 - (k as f64 + 1.0) / (n as f64 + 1.0);
                let cost = (self.params.predicted_cost as f64 * decay).round() as u8;
                if cost == 0 {
                    continue;
                }
                stamp(waypoint, cost);
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
}

/// An oriented footprint rectangle sampled at cell resolution, in the
/// body frame of its object: the rotated sample offsets, computed once
/// and stamped at the object's position and at each waypoint.
#[derive(Default)]
struct FootprintSamples {
    /// `(cos·x, sin·x)` per sample `x` along the heading.
    along: Vec<(f64, f64)>,
    /// `(sin·y, cos·y)` per sample `y` across it.
    across: Vec<(f64, f64)>,
}

impl FootprintSamples {
    /// Samples `obj`'s footprint from `−h` to `h` in steps of 0.7 cells
    /// on each axis, `h` the half-extent (at least one cell).
    fn fill(&mut self, obj: &ObjectFootprint, resolution: f64) {
        let (sin_y, cos_y) = obj.yaw.sin_cos();
        let hx = obj.half_extents.x.max(resolution);
        let hy = obj.half_extents.y.max(resolution);
        let step = resolution * 0.7;
        self.along.clear();
        let mut x = -hx;
        while x <= hx {
            self.along.push((cos_y * x, sin_y * x));
            x += step;
        }
        self.across.clear();
        let mut y = -hy;
        while y <= hy {
            self.across.push((sin_y * y, cos_y * y));
            y += step;
        }
    }

    /// [`fill`](Self::fill) for a footprint too wide to sample whole:
    /// only the offsets that can land in the grid of half-size `half`
    /// when stamped at `at`. On each axis the grid projects onto a window
    /// of half-width `half·(|cos| + |sin|)` around `at`'s projection,
    /// widened a cell for rounding. Samples run evenly from where that
    /// window meets the footprint, counted rather than accumulated and
    /// at most the window's worth, so no input can stall the loop.
    fn fill_clipped(&mut self, obj: &ObjectFootprint, resolution: f64, at: Vec3, half: f64) {
        let (sin_y, cos_y) = obj.yaw.sin_cos();
        let step = resolution * 0.7;
        let w = half * (cos_y.abs() + sin_y.abs()) + resolution;
        let most = (2.0 * w / step) as usize + 2;
        let axis = |h: f64, centre: f64| {
            let h = h.max(resolution);
            let (lo, hi) = ((centre - w).max(-h), (centre + w).min(h));
            let n = if lo <= hi { (((hi - lo) / step) as usize + 1).min(most) } else { 0 };
            (0..n).map(move |j| lo + j as f64 * step)
        };
        self.along.clear();
        let along = axis(obj.half_extents.x, -(cos_y * at.x + sin_y * at.y));
        self.along.extend(along.map(|x| (cos_y * x, sin_y * x)));
        self.across.clear();
        let across = axis(obj.half_extents.y, sin_y * at.x - cos_y * at.y);
        self.across.extend(across.map(|y| (sin_y * y, cos_y * y)));
    }

    /// Raises every sampled cell around `at` to `cost`.
    fn stamp(&self, grid: &mut OccupancyGrid, at: Vec3, cost: u8) {
        self.each_point(at, |x, y| {
            if let Some(idx) = grid.index_of_xy(x, y) {
                grid.raise(idx, cost);
            }
        });
    }

    /// Calls `f` with every sample around `at`: `(at.x + cos·x − sin·y,
    /// at.y + sin·x + cos·y)`, summed left to right as the uncached
    /// formula does.
    fn each_point(&self, at: Vec3, mut f: impl FnMut(f64, f64)) {
        for &(cos_x, sin_x) in &self.along {
            let (x0, y0) = (at.x + cos_x, at.y + sin_x);
            for &(sin_y, cos_y) in &self.across {
                f(x0 - sin_y, y0 + cos_y);
            }
        }
    }
}

#[cfg(test)]
impl CostmapGenerator {
    /// The original [`from_objects`](Self::from_objects), which samples
    /// every footprint afresh: the oracle it is checked against bit for
    /// bit. It never returns on an infinite extent.
    fn objects_reference(&self, objects: &[ObjectFootprint]) -> OccupancyGrid {
        let mut grid = OccupancyGrid::new(self.params.resolution, self.params.half_size);
        for obj in objects {
            self.stamp_footprint_reference(&mut grid, obj.position, obj, COST_OCCUPIED);
            let n = obj.path.len();
            for (k, &waypoint) in obj.path.iter().enumerate() {
                let decay = 1.0 - (k as f64 + 1.0) / (n as f64 + 1.0);
                let cost = (self.params.predicted_cost as f64 * decay).round() as u8;
                if cost == 0 {
                    continue;
                }
                self.stamp_footprint_reference(&mut grid, waypoint, obj, cost);
            }
        }
        grid
    }

    fn stamp_footprint_reference(
        &self,
        grid: &mut OccupancyGrid,
        at: Vec3,
        obj: &ObjectFootprint,
        cost: u8,
    ) {
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
                let col = (world.x + grid.half_size) / grid.resolution;
                let row = (world.y + grid.half_size) / grid.resolution;
                if col >= 0.0 && row >= 0.0 {
                    let (col, row) = (col as usize, row as usize);
                    if col < grid.cells_per_side && row < grid.cells_per_side {
                        grid.raise(row * grid.cells_per_side + col, cost);
                    }
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

#[cfg(test)]
mod proptests {
    //! Seeded property tests: footprints sampled once per object equal
    //! the retained per-stamp oracle cell for cell.
    use super::*;
    use av_des::{RngStreams, StreamRng};
    use std::f64::consts::PI;

    fn random_object(rng: &mut StreamRng, half_size: f64) -> ObjectFootprint {
        // Mostly inside the grid, some straddling or beyond its edge.
        let reach = half_size + 6.0;
        let position = Vec3::new(rng.uniform(-reach, reach), rng.uniform(-reach, reach), 0.8);
        let yaw = match rng.uniform_usize(6) {
            0 => 0.0,
            1 => -0.0,
            2 => PI,
            3 => -PI,
            _ => rng.uniform(-4.0, 4.0),
        };
        // Some extents below the resolution (the footprint takes one cell).
        let extent = |rng: &mut StreamRng| match rng.uniform_usize(4) {
            0 => rng.uniform(0.0, 0.2),
            _ => rng.uniform(0.2, 3.0),
        };
        let half_extents = Vec3::new(extent(rng), extent(rng), 0.75);
        let velocity = Vec3::new(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), 0.0);
        let path =
            (1..=rng.uniform_usize(8)).map(|k| position + velocity * (0.5 * k as f64)).collect();
        ObjectFootprint { position, half_extents, yaw, path }
    }

    #[test]
    fn sampled_once_matches_the_reference() {
        let mut rng = RngStreams::new(0xc05).stream("objects");
        for resolution in [0.25, 0.3] {
            let params = CostmapParams { resolution, ..CostmapParams::default() };
            let generator = CostmapGenerator::new(params);
            for round in 0..48 {
                let objects: Vec<ObjectFootprint> =
                    (0..rng.uniform_usize(30)).map(|_| random_object(&mut rng, 40.0)).collect();
                assert_eq!(
                    generator.from_objects(&objects),
                    generator.objects_reference(&objects),
                    "resolution {resolution}, round {round}"
                );
            }
        }
    }

    /// Every sample point has the bits of the uncached formula, rounding
    /// for rounding: a cell boundary can fall between two orders of the
    /// same sum, too rarely for the grids above to show it.
    #[test]
    fn sample_points_equal_the_uncached_formula() {
        let mut rng = RngStreams::new(0xc05).stream("samples");
        for resolution in [0.25, 0.3] {
            for round in 0..200 {
                let obj = random_object(&mut rng, 40.0);
                let mut samples = FootprintSamples::default();
                samples.fill(&obj, resolution);
                for at in std::iter::once(obj.position).chain(obj.path.iter().copied()) {
                    let mut points = Vec::new();
                    samples.each_point(at, |x, y| points.push([x.to_bits(), y.to_bits()]));
                    let (sin_y, cos_y) = obj.yaw.sin_cos();
                    let hx = obj.half_extents.x.max(resolution);
                    let hy = obj.half_extents.y.max(resolution);
                    let step = resolution * 0.7;
                    let mut want = Vec::new();
                    let mut x = -hx;
                    while x <= hx {
                        let mut y = -hy;
                        while y <= hy {
                            let world =
                                (at.x + cos_y * x - sin_y * y, at.y + sin_y * x + cos_y * y);
                            want.push([world.0.to_bits(), world.1.to_bits()]);
                            y += step;
                        }
                        x += step;
                    }
                    assert_eq!(points, want, "resolution {resolution}, round {round}");
                }
            }
        }
    }

    /// Cell indices equal the original division-and-`as usize` formula:
    /// seeded positions in and around the grid, and cell boundaries,
    /// signed zeros and non-finite coordinates.
    #[test]
    fn index_of_matches_the_division_formula() {
        let mut rng = RngStreams::new(0xc05).stream("index");
        for resolution in [0.25, 0.3] {
            let grid =
                CostmapGenerator::new(CostmapParams { resolution, ..CostmapParams::default() })
                    .from_points(&PointCloud::new());
            let reference = |x: f64, y: f64| {
                let col = (x + grid.half_size) / grid.resolution;
                let row = (y + grid.half_size) / grid.resolution;
                if !(col >= 0.0 && row >= 0.0) {
                    return None;
                }
                let (col, row) = (col as usize, row as usize);
                (col < grid.cells_per_side && row < grid.cells_per_side)
                    .then(|| row * grid.cells_per_side + col)
            };
            let mut coords: Vec<f64> =
                [0.0, -0.0, 40.0, -40.0, 1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]
                    .into_iter()
                    .flat_map(|v: f64| [v, v.next_up(), v.next_down()])
                    .collect();
            for k in -170..=170 {
                let boundary = k as f64 * resolution;
                coords.extend([boundary, boundary.next_up(), boundary.next_down()]);
            }
            coords.extend((0..2000).map(|_| rng.uniform(-45.0, 45.0)));
            for &x in &coords {
                for &y in [0.0, 39.9, -40.0, x, -x, f64::NAN].iter() {
                    let p = Vec3::new(x, y, 0.0);
                    assert_eq!(grid.index_of(p), reference(x, y), "({x:e}, {y:e}) at {resolution}");
                    let q = Vec3::new(y, x, 0.0);
                    assert_eq!(grid.index_of(q), reference(y, x), "({y:e}, {x:e}) at {resolution}");
                }
            }
        }
    }

    /// Objects centred on the grid's edges and corners, half in, half out.
    #[test]
    fn grid_edge_objects_match_the_reference() {
        let generator = CostmapGenerator::new(CostmapParams::default());
        let edge = 40.0f64;
        for x in [-edge, -edge + 0.1, 0.0, edge - 0.1, edge, (-edge).next_down()] {
            for y in [-edge, 0.0, edge, edge.next_up()] {
                let objects: Vec<ObjectFootprint> = [0.0, -0.0, PI, -PI, 0.7]
                    .into_iter()
                    .map(|yaw| ObjectFootprint {
                        position: Vec3::new(x, y, 0.0),
                        half_extents: Vec3::new(2.25, 0.9, 0.75),
                        yaw,
                        path: vec![Vec3::new(x + 1.0, y - 1.0, 0.0)],
                    })
                    .collect();
                assert_eq!(
                    generator.from_objects(&objects),
                    generator.objects_reference(&objects),
                    "({x}, {y})"
                );
            }
        }
    }

    /// A footprint wider than the grid is sampled only where it can land:
    /// a huge one centred on the ego returns promptly and marks every
    /// cell at any heading, even past the extent where `x += step` stops
    /// moving `x` (about 2.3e15 m).
    #[test]
    fn huge_footprints_mark_the_whole_grid_promptly() {
        let generator = CostmapGenerator::new(CostmapParams::default());
        for half in [1e6, 1e16] {
            for yaw in [0.0, 0.3, -PI / 4.0] {
                let obj = ObjectFootprint {
                    position: Vec3::new(0.0, 0.0, 0.8),
                    half_extents: Vec3::new(half, half, 0.75),
                    yaw,
                    path: vec![Vec3::new(3.0, -2.0, 0.0)],
                };
                let grid = generator.from_objects(&[obj]);
                assert_eq!(grid.occupied_cells(), grid.len(), "half-extent {half:e}, yaw {yaw}");
                assert!(grid.data().iter().all(|&c| c == COST_OCCUPIED));
            }
        }
        // Long and thin: only the strip along the heading is marked.
        let strip = ObjectFootprint {
            position: Vec3::ZERO,
            half_extents: Vec3::new(1e6, 1.0, 0.75),
            yaw: 0.0,
            path: vec![],
        };
        let grid = generator.from_objects(std::slice::from_ref(&strip));
        assert_eq!(grid.cost_at(Vec3::new(-39.9, 0.5, 0.0)), COST_OCCUPIED);
        assert_eq!(grid.cost_at(Vec3::new(39.9, -0.5, 0.0)), COST_OCCUPIED);
        assert_eq!(grid.cost_at(Vec3::new(0.0, 3.0, 0.0)), 0);
    }

    /// Objects whose footprint cannot reach the grid mark nothing,
    /// however wide: a far-away car, and huge footprints whose edge stays
    /// kilometres short of the grid (or a non-finite waypoint).
    #[test]
    fn far_away_objects_mark_nothing() {
        let generator = CostmapGenerator::new(CostmapParams::default());
        let car = ObjectFootprint {
            position: Vec3::new(1e7, -3e6, 0.8),
            half_extents: Vec3::new(2.25, 0.9, 0.75),
            yaw: 0.4,
            path: vec![Vec3::new(1e7 + 2.0, -3e6, 0.8)],
        };
        let huge = ObjectFootprint { half_extents: Vec3::new(1e6, 1e6, 0.75), ..car.clone() };
        let beyond = ObjectFootprint {
            position: Vec3::new(0.0, 5e16, 0.8),
            half_extents: Vec3::new(1e16, 1e16, 0.75),
            yaw: 0.0,
            path: vec![Vec3::new(0.0, f64::NAN, 0.0), Vec3::new(f64::INFINITY, 0.0, 0.0)],
        };
        let grid = generator.from_objects(&[car, huge, beyond]);
        assert_eq!(grid.occupied_cells(), 0);
    }

    /// Footprints up to the clipping bound keep the sequence the oracle
    /// samples, so wide in-grid objects still equal it cell for cell.
    #[test]
    fn widest_unclipped_footprints_match_the_reference() {
        let generator = CostmapGenerator::new(CostmapParams::default());
        let reach = 40.0 * std::f64::consts::SQRT_2;
        let objects: Vec<ObjectFootprint> = [(reach, 0.3), (0.9, reach), (30.0, 25.0)]
            .into_iter()
            .map(|(hx, hy)| ObjectFootprint {
                position: Vec3::new(12.0, -30.0, 0.8),
                half_extents: Vec3::new(hx, hy, 0.75),
                yaw: 0.7,
                path: vec![Vec3::new(14.0, -29.0, 0.8)],
            })
            .collect();
        assert_eq!(generator.from_objects(&objects), generator.objects_reference(&objects));
    }

    /// An infinite extent used to sample forever; any non-finite
    /// position, yaw or extent now skips that footprint alone.
    #[test]
    fn non_finite_footprints_are_skipped() {
        let generator = CostmapGenerator::new(CostmapParams::default());
        let good = ObjectFootprint {
            position: Vec3::new(5.0, 1.0, 0.0),
            half_extents: Vec3::new(2.25, 0.9, 0.75),
            yaw: 0.3,
            path: vec![Vec3::new(8.0, 1.0, 0.0)],
        };
        let alone = generator.from_objects(std::slice::from_ref(&good));
        assert!(alone.occupied_cells() > 0);
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let broken = [
            ObjectFootprint { half_extents: Vec3::new(inf, 0.9, 0.75), ..good.clone() },
            ObjectFootprint { half_extents: Vec3::new(2.0, -inf, 0.75), ..good.clone() },
            ObjectFootprint { half_extents: Vec3::new(nan, 0.9, 0.75), ..good.clone() },
            ObjectFootprint { position: Vec3::new(inf, 0.0, 0.0), ..good.clone() },
            ObjectFootprint { position: Vec3::new(0.0, nan, 0.0), ..good.clone() },
            ObjectFootprint { yaw: inf, ..good.clone() },
            ObjectFootprint { yaw: nan, ..good.clone() },
        ];
        for obj in &broken {
            let grid = generator.from_objects(&[obj.clone(), good.clone()]);
            assert_eq!(grid, alone, "{obj:?}");
        }
    }
}
