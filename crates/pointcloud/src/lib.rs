//! Point-cloud data structures and spatial indices.
//!
//! Autoware leans on the Point Cloud Library for everything LiDAR-shaped;
//! the paper finds `ndt_matching` spends >90% of its CPU time inside PCL
//! "manipulating tree-like data structures". This crate is the Rust
//! equivalent substrate:
//!
//! * [`PointCloud`] — the LiDAR sweep container ([`Point`] = position +
//!   intensity + ring).
//! * [`KdTree`] — a 3D k-d tree with nearest-neighbour and radius queries,
//!   the data structure under both `euclidean_cluster` and NDT's neighbour
//!   lookups (and, through its pointer-chasing access pattern, the source
//!   of `euclidean_cluster`'s poor L1 locality in Table VII).
//! * [`VoxelGrid`] — centroid down-sampling, i.e. the `voxel_grid_filter`
//!   node's algorithm; [`VoxelMap`] applies it incrementally to a growing
//!   map.
//! * [`NdtGrid`] — per-voxel Gaussian statistics (mean + regularized
//!   covariance) over a map cloud, the representation `ndt_matching`
//!   scores candidate poses against.

#![warn(missing_docs)]

mod cloud;
mod kdtree;
mod ndt_grid;
mod voxel;

pub use cloud::{Point, PointCloud};
pub use kdtree::KdTree;
pub use ndt_grid::{CellHasher, CellMap, NdtCell, NdtGrid};
pub use voxel::{VoxelGrid, VoxelMap};
