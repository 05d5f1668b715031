//! Euclidean clustering — the `euclidean_cluster` node.
//!
//! Region growing: points within `tolerance` of any point already in a
//! cluster join that cluster. Clusters within a size band become detected
//! objects with centroid and bounding box — "identifying volumes that can
//! be perceived as objects ... also calculates the cluster centroids to
//! stipulate how distant the objects are" (Table I).
//!
//! The hot path grows regions over a voxel-hash neighbor grid with cells
//! of `tolerance` meters: every neighbor within the tolerance lives in
//! one of the 27 cells around a point, so the BFS expands by scanning at
//! most 27 bucket ranges instead of descending a k-d tree per point.
//! Each occupied cell finds its occupied neighbours once, shared by all
//! of its points, and a cell whose points all joined clusters is skipped
//! whole. The
//! original k-d tree formulation is retained as
//! [`EuclideanCluster::cluster_reference`]; property tests pin the two
//! to identical output.

use crate::{DetectedObject, ObjectClass};
use av_geom::{floor_i32, Aabb};
use av_pointcloud::{CellMap, KdTree, PointCloud};

/// Clustering parameters (Autoware defaults: 0.75 m tolerance, 20–100k
/// point clusters, scaled here to the simulated beam density).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterParams {
    /// Neighbour distance for region growing, meters.
    pub tolerance: f64,
    /// Minimum points for a cluster to become an object.
    pub min_points: usize,
    /// Maximum points (larger blobs are walls/buildings, not objects).
    pub max_points: usize,
    /// Ignore points beyond this range (objects too far to matter).
    pub max_range: f64,
}

impl Default for ClusterParams {
    fn default() -> ClusterParams {
        ClusterParams { tolerance: 0.75, min_points: 5, max_points: 5000, max_range: 60.0 }
    }
}

/// One extracted cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Indices of member points in the input cloud.
    pub indices: Vec<usize>,
    /// Member centroid.
    pub centroid: av_geom::Vec3,
    /// Axis-aligned bounds of the members.
    pub bounds: Aabb,
}

impl Cluster {
    /// Converts the cluster to a detection (class unknown).
    pub fn to_detection(&self) -> DetectedObject {
        let size = self.bounds.size();
        DetectedObject {
            position: self.centroid,
            half_extents: size * 0.5,
            yaw: 0.0,
            class: ObjectClass::Unknown,
            confidence: 1.0,
            point_count: self.indices.len() as u32,
        }
    }
}

/// The euclidean clustering algorithm.
///
/// ```
/// use av_geom::Vec3;
/// use av_pointcloud::PointCloud;
/// use av_perception::{ClusterParams, EuclideanCluster};
///
/// // Two blobs 10 m apart.
/// let mut pts = Vec::new();
/// for i in 0..10 {
///     pts.push(Vec3::new(5.0 + 0.05 * i as f64, 0.0, 0.0));
///     pts.push(Vec3::new(15.0 + 0.05 * i as f64, 0.0, 0.0));
/// }
/// let clusters = EuclideanCluster::new(ClusterParams::default())
///     .cluster(&PointCloud::from_positions(pts));
/// assert_eq!(clusters.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct EuclideanCluster {
    params: ClusterParams,
}

impl EuclideanCluster {
    /// Creates the clusterer.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance <= 0` or `min_points == 0`.
    pub fn new(params: ClusterParams) -> EuclideanCluster {
        assert!(params.tolerance > 0.0, "cluster tolerance must be positive");
        assert!(params.min_points > 0, "clusters need at least one point");
        EuclideanCluster { params }
    }

    /// Clustering parameters.
    pub fn params(&self) -> &ClusterParams {
        &self.params
    }

    /// Extracts clusters from a (non-ground) cloud.
    ///
    /// Output is deterministic: clusters are seeded in point order and
    /// reported in seed order. Region growing runs over a voxel-hash
    /// neighbor grid; the result is bit-identical to
    /// [`cluster_reference`](EuclideanCluster::cluster_reference) because
    /// a cluster is the connected component of the tolerance graph — the
    /// search order cannot change its membership — and members are sorted
    /// before centroid and bounds accumulation.
    pub fn cluster(&self, cloud: &PointCloud) -> Vec<Cluster> {
        let (in_range, positions) = self.range_gate(cloud);
        if in_range.is_empty() {
            return Vec::new();
        }
        let grid = NeighborGrid::build(&positions, self.params.tolerance);
        let tol_sq = self.params.tolerance * self.params.tolerance;

        let mut visited = vec![false; positions.len()];
        // Per cell, how many of its points no cluster holds yet: a cell
        // with none left is skipped whole.
        let mut unvisited: Vec<u32> = grid.cells.iter().map(|&(_, len)| len).collect();
        let mut clusters = Vec::new();
        for seed in 0..positions.len() {
            if visited[seed] {
                continue;
            }
            visited[seed] = true;
            unvisited[grid.cell_of[seed] as usize] -= 1;
            let mut members = vec![seed];
            let mut cursor = 0;
            while cursor < members.len() {
                let current = members[cursor];
                cursor += 1;
                let p = positions[current];
                for &cell in grid.adjacent(current) {
                    let left = &mut unvisited[cell as usize];
                    if *left == 0 {
                        continue;
                    }
                    for &n in grid.points(cell) {
                        let n = n as usize;
                        if !visited[n] && positions[n].distance_sq(p) <= tol_sq {
                            visited[n] = true;
                            *left -= 1;
                            members.push(n);
                        }
                    }
                }
            }
            if let Some(cluster) = self.finish_cluster(members, &positions, &in_range) {
                clusters.push(cluster);
            }
        }
        clusters
    }

    /// The original k-d tree formulation of [`cluster`](Self::cluster),
    /// retained as the reference the determinism harness pins the
    /// voxel-hash implementation against.
    pub fn cluster_reference(&self, cloud: &PointCloud) -> Vec<Cluster> {
        let (in_range, positions) = self.range_gate(cloud);
        if in_range.is_empty() {
            return Vec::new();
        }
        let tree = KdTree::build(&positions);

        let mut visited = vec![false; positions.len()];
        let mut clusters = Vec::new();
        let mut neighbour_buf = Vec::new();
        for seed in 0..positions.len() {
            if visited[seed] {
                continue;
            }
            visited[seed] = true;
            let mut members = vec![seed];
            let mut cursor = 0;
            while cursor < members.len() {
                let current = members[cursor];
                cursor += 1;
                tree.radius_search_into(
                    positions[current],
                    self.params.tolerance,
                    &mut neighbour_buf,
                );
                for &n in &neighbour_buf {
                    if !visited[n] {
                        visited[n] = true;
                        members.push(n);
                    }
                }
            }
            if let Some(cluster) = self.finish_cluster(members, &positions, &in_range) {
                clusters.push(cluster);
            }
        }
        clusters
    }

    /// Range gate (Autoware clips the cloud before clustering): indices
    /// of kept points and their positions, in input order.
    fn range_gate(&self, cloud: &PointCloud) -> (Vec<usize>, Vec<av_geom::Vec3>) {
        let in_range: Vec<usize> = (0..cloud.len())
            .filter(|&i| cloud.point(i).position.norm_xy() <= self.params.max_range)
            .collect();
        let positions = in_range.iter().map(|&i| cloud.point(i).position).collect();
        (in_range, positions)
    }

    /// Size-filters a finished component and computes its centroid and
    /// bounds over *sorted* members, so the floating-point summation
    /// order is independent of how the region grew.
    fn finish_cluster(
        &self,
        mut members: Vec<usize>,
        positions: &[av_geom::Vec3],
        in_range: &[usize],
    ) -> Option<Cluster> {
        if members.len() < self.params.min_points || members.len() > self.params.max_points {
            return None;
        }
        members.sort_unstable();
        let mut centroid = av_geom::Vec3::ZERO;
        let mut bounds = Aabb::EMPTY;
        for &m in &members {
            centroid += positions[m];
            bounds.expand(positions[m]);
        }
        centroid /= members.len() as f64;
        Some(Cluster { indices: members.iter().map(|&m| in_range[m]).collect(), centroid, bounds })
    }

    /// Convenience: clusters and converts to detections in one call.
    pub fn detect(&self, cloud: &PointCloud) -> Vec<DetectedObject> {
        self.cluster(cloud).iter().map(Cluster::to_detection).collect()
    }
}

/// The 13 of the 26 neighbour offsets that follow `(0, 0, 0)` in
/// lexicographic order; the other 13 are their negations.
const FORWARD: [(i32, i32, i32); 13] = [
    (0, 0, 1),
    (0, 1, -1),
    (0, 1, 0),
    (0, 1, 1),
    (1, -1, -1),
    (1, -1, 0),
    (1, -1, 1),
    (1, 0, -1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, -1),
    (1, 1, 0),
    (1, 1, 1),
];

/// A voxel-hash neighbor grid with cubic cells of the clustering
/// tolerance: any point within `tolerance` of `p` lies in one of the 27
/// cells around `p`'s cell, so a radius query degenerates to scanning at
/// most 27 contiguous bucket ranges. CSR layout throughout — one shared
/// index array for the points of every cell, one for the occupied
/// neighbours of every cell, no per-cell allocation.
struct NeighborGrid {
    /// Per occupied cell, its `(start, len)` range of `order`.
    cells: Vec<(u32, u32)>,
    /// Point indices grouped by cell (input order within each cell).
    order: Vec<u32>,
    /// The occupied cell of every point.
    cell_of: Vec<u32>,
    /// Per occupied cell, its range of `adjacent`: `adjacent_start[c]..
    /// adjacent_start[c + 1]`.
    adjacent_start: Vec<u32>,
    /// The occupied cells among each cell's 27, itself included.
    adjacent: Vec<u32>,
}

impl NeighborGrid {
    fn build(positions: &[av_geom::Vec3], cell: f64) -> NeighborGrid {
        let inv_cell = 1.0 / cell;
        // Dense cell ids in first-appearance order, and bucket sizes.
        let mut ids: CellMap<u32> = CellMap::default();
        let mut keys = Vec::new();
        let mut cells: Vec<(u32, u32)> = Vec::new();
        let cell_of: Vec<u32> = positions
            .iter()
            .map(|p| {
                let key = Self::key(*p, inv_cell);
                let id = *ids.entry(key).or_insert_with(|| {
                    keys.push(key);
                    cells.push((0, 0));
                    (cells.len() - 1) as u32
                });
                cells[id as usize].1 += 1;
                id
            })
            .collect();
        // Carve ranges, then fill them in input order.
        let mut start = 0u32;
        for range in &mut cells {
            range.0 = start;
            start += range.1;
            range.1 = 0; // reused as a fill cursor below
        }
        let mut order = vec![0u32; positions.len()];
        for (i, &id) in cell_of.iter().enumerate() {
            let range = &mut cells[id as usize];
            order[(range.0 + range.1) as usize] = i as u32;
            range.1 += 1;
        }
        // Each adjacent pair is found once, from its lower key: 13 probes
        // per cell instead of 26.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (id, &(kx, ky, kz)) in keys.iter().enumerate() {
            for (dx, dy, dz) in FORWARD {
                if let Some(&other) = ids.get(&(kx + dx, ky + dy, kz + dz)) {
                    pairs.push((id as u32, other));
                }
            }
        }
        // Each cell lists itself, then its neighbours.
        let mut adjacent_start = vec![0u32; keys.len() + 1];
        for &(a, b) in &pairs {
            adjacent_start[a as usize + 1] += 1;
            adjacent_start[b as usize + 1] += 1;
        }
        for c in 0..keys.len() {
            adjacent_start[c + 1] += adjacent_start[c] + 1;
        }
        let mut fill: Vec<u32> = adjacent_start[..keys.len()].to_vec();
        let mut adjacent = vec![0u32; adjacent_start[keys.len()] as usize];
        for c in 0..keys.len() as u32 {
            adjacent[fill[c as usize] as usize] = c;
            fill[c as usize] += 1;
        }
        for &(a, b) in &pairs {
            adjacent[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
            adjacent[fill[b as usize] as usize] = a;
            fill[b as usize] += 1;
        }
        NeighborGrid { cells, order, cell_of, adjacent_start, adjacent }
    }

    fn key(p: av_geom::Vec3, inv_cell: f64) -> (i32, i32, i32) {
        (floor_i32(p.x * inv_cell), floor_i32(p.y * inv_cell), floor_i32(p.z * inv_cell))
    }

    /// The occupied cells among the 27 around point `i`'s cell: their
    /// points are a superset of those within one cell size of it (the
    /// caller applies the exact distance test).
    fn adjacent(&self, i: usize) -> &[u32] {
        let cell = self.cell_of[i] as usize;
        &self.adjacent[self.adjacent_start[cell] as usize..self.adjacent_start[cell + 1] as usize]
    }

    /// The points of occupied cell `cell`, in input order.
    fn points(&self, cell: u32) -> &[u32] {
        let (start, len) = self.cells[cell as usize];
        &self.order[start as usize..(start + len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_geom::Vec3;

    fn blob(center: Vec3, n: usize, spacing: f64) -> Vec<Vec3> {
        (0..n)
            .map(|i| {
                center
                    + Vec3::new(
                        (i % 3) as f64 * spacing,
                        ((i / 3) % 3) as f64 * spacing,
                        (i / 9) as f64 * spacing,
                    )
            })
            .collect()
    }

    #[test]
    fn separate_blobs_become_clusters() {
        let mut pts = blob(Vec3::new(5.0, 0.0, 0.0), 12, 0.2);
        pts.extend(blob(Vec3::new(5.0, 8.0, 0.0), 15, 0.2));
        pts.extend(blob(Vec3::new(-6.0, -3.0, 0.0), 9, 0.2));
        let clusters = EuclideanCluster::new(ClusterParams::default())
            .cluster(&PointCloud::from_positions(pts));
        assert_eq!(clusters.len(), 3);
        let sizes: Vec<usize> = clusters.iter().map(|c| c.indices.len()).collect();
        assert!(sizes.contains(&12) && sizes.contains(&15) && sizes.contains(&9));
    }

    #[test]
    fn chain_within_tolerance_is_one_cluster() {
        // A line of points each 0.5 m apart: transitively connected.
        let pts: Vec<Vec3> = (0..20).map(|i| Vec3::new(3.0 + i as f64 * 0.5, 0.0, 0.0)).collect();
        let clusters = EuclideanCluster::new(ClusterParams::default())
            .cluster(&PointCloud::from_positions(pts));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].indices.len(), 20);
    }

    #[test]
    fn small_clusters_filtered() {
        let params = ClusterParams { min_points: 10, ..ClusterParams::default() };
        let pts = blob(Vec3::new(4.0, 0.0, 0.0), 5, 0.2);
        let clusters = EuclideanCluster::new(params).cluster(&PointCloud::from_positions(pts));
        assert!(clusters.is_empty());
    }

    #[test]
    fn oversized_clusters_filtered() {
        let params = ClusterParams { max_points: 10, ..ClusterParams::default() };
        let pts = blob(Vec3::new(4.0, 0.0, 0.0), 27, 0.2);
        let clusters = EuclideanCluster::new(params).cluster(&PointCloud::from_positions(pts));
        assert!(clusters.is_empty());
    }

    #[test]
    fn far_points_ignored() {
        let params = ClusterParams { max_range: 20.0, ..ClusterParams::default() };
        let pts = blob(Vec3::new(50.0, 0.0, 0.0), 12, 0.2);
        let clusters = EuclideanCluster::new(params).cluster(&PointCloud::from_positions(pts));
        assert!(clusters.is_empty());
    }

    #[test]
    fn centroid_and_bounds_cover_members() {
        let pts = blob(Vec3::new(5.0, 1.0, 0.0), 18, 0.3);
        let cloud = PointCloud::from_positions(pts);
        let clusters = EuclideanCluster::new(ClusterParams::default()).cluster(&cloud);
        assert_eq!(clusters.len(), 1);
        let c = &clusters[0];
        assert!(c.bounds.contains(c.centroid));
        for &i in &c.indices {
            assert!(c.bounds.contains(cloud.point(i).position));
        }
    }

    #[test]
    fn detection_conversion() {
        let pts = blob(Vec3::new(5.0, 0.0, 0.0), 12, 0.3);
        let detections = EuclideanCluster::new(ClusterParams::default())
            .detect(&PointCloud::from_positions(pts));
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].class, ObjectClass::Unknown);
        assert_eq!(detections[0].point_count, 12);
    }

    #[test]
    fn deterministic_output() {
        let mut pts = blob(Vec3::new(5.0, 0.0, 0.0), 12, 0.2);
        pts.extend(blob(Vec3::new(-5.0, 2.0, 0.0), 14, 0.2));
        let cloud = PointCloud::from_positions(pts);
        let c = EuclideanCluster::new(ClusterParams::default());
        assert_eq!(c.cluster(&cloud), c.cluster(&cloud));
    }

    #[test]
    fn empty_input_yields_no_clusters() {
        let clusters = EuclideanCluster::new(ClusterParams::default()).cluster(&PointCloud::new());
        assert!(clusters.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    //! Seeded randomized property tests (fixed-seed PCG stream, so any
    //! failure reproduces exactly).
    use super::*;
    use av_des::{RngStreams, StreamRng};
    use av_geom::Vec3;

    fn random_cloud(rng: &mut StreamRng, max: usize) -> PointCloud {
        let n = 1 + rng.uniform_usize(max - 1);
        PointCloud::from_positions((0..n).map(|_| {
            Vec3::new(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0), rng.uniform(0.0, 2.0))
        }))
    }

    /// Clusters partition their members: no index appears twice, all
    /// indices valid, all member pairs transitively connected (weakly
    /// checked via bounds diameter ≥ tolerance gaps).
    #[test]
    fn clusters_are_disjoint_and_valid() {
        let mut rng = RngStreams::new(0xc15).stream("disjoint");
        for _ in 0..128 {
            let cloud = random_cloud(&mut rng, 120);
            let params = ClusterParams { min_points: 1, ..ClusterParams::default() };
            let clusters = EuclideanCluster::new(params).cluster(&cloud);
            let mut seen = std::collections::HashSet::new();
            for c in &clusters {
                for &i in &c.indices {
                    assert!(i < cloud.len());
                    assert!(seen.insert(i), "index {i} in two clusters");
                }
            }
        }
    }

    /// Up to `max` points in a few boxes well under a cell wide, so most
    /// points share their cell with many others.
    fn dense_cloud(rng: &mut StreamRng, max: usize) -> PointCloud {
        let centers: Vec<Vec3> = (0..1 + rng.uniform_usize(3))
            .map(|_| Vec3::new(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), 1.0))
            .collect();
        let n = 1 + rng.uniform_usize(max - 1);
        PointCloud::from_positions((0..n).map(|i| {
            let jitter =
                Vec3::new(rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2));
            centers[i % centers.len()] + jitter
        }))
    }

    /// The voxel-hash implementation is bit-identical to the retained
    /// k-d tree reference — same members, same centroids (exact float
    /// equality), same order — on scattered clouds and on dense ones.
    #[test]
    fn grid_matches_kdtree_reference_exactly() {
        let mut rng = RngStreams::new(0xc15).stream("pin");
        for round in 0..128 {
            let cloud =
                if round < 96 { random_cloud(&mut rng, 150) } else { dense_cloud(&mut rng, 400) };
            let params = ClusterParams {
                tolerance: rng.uniform(0.3, 2.0),
                min_points: 1 + rng.uniform_usize(4),
                ..ClusterParams::default()
            };
            let c = EuclideanCluster::new(params);
            assert_eq!(c.cluster(&cloud), c.cluster_reference(&cloud), "round {round}");
        }
    }

    /// Every in-range point lands in exactly one cluster when no size
    /// filtering applies.
    #[test]
    fn min1_clustering_covers_in_range_points() {
        let mut rng = RngStreams::new(0xc15).stream("cover");
        for _ in 0..128 {
            let cloud = random_cloud(&mut rng, 80);
            let params =
                ClusterParams { min_points: 1, max_points: usize::MAX, ..ClusterParams::default() };
            let clusters = EuclideanCluster::new(params).cluster(&cloud);
            let covered: usize = clusters.iter().map(|c| c.indices.len()).sum();
            let in_range = cloud.positions().filter(|p| p.norm_xy() <= 60.0).count();
            assert_eq!(covered, in_range);
        }
    }
}
