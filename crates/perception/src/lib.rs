//! The LiDAR perception algorithms of the Autoware stack.
//!
//! Each module implements, from scratch, the algorithm behind one of the
//! paper's profiled nodes (Table I):
//!
//! | Module | Node | Role |
//! |---|---|---|
//! | [`ground`] | `ray_ground_filter` | split a sweep into ground / above-ground points |
//! | [`cluster`] | `euclidean_cluster` | group non-ground points into objects |
//! | [`ndt`] | `ndt_matching` | localize by aligning the sweep to the HD map |
//! | [`mapping`] | `ndt_mapping` | build the point-cloud map the authors also had to build |
//! | [`fusion`] | `range_vision_fusion` | combine LiDAR clusters with camera detections |
//! | [`costmap`] | `costmap_generator` | rasterize obstacles + predicted paths into drivable space |
//!
//! The algorithms are *real*: clustering region-grows through a k-d tree,
//! NDT runs damped Newton iterations on the Gaussian-voxel likelihood, the
//! costmap rasterizes real footprints. Their outputs feed the downstream
//! nodes, and their work counters (points, iterations, cells) drive the
//! calibrated platform cost models.

#![warn(missing_docs)]

pub mod cluster;
pub mod costmap;
pub mod fusion;
pub mod ground;
pub mod mapping;
pub mod ndt;
mod objects;

pub use cluster::{Cluster, ClusterParams, EuclideanCluster};
pub use costmap::{CostmapGenerator, CostmapParams, OccupancyGrid};
pub use fusion::{fuse_objects, FusionParams};
pub use ground::{GroundSplit, RayGroundFilter, RayGroundParams};
pub use mapping::NdtMappingBuilder;
pub use ndt::{MatchResult, NdtMatcher, NdtParams, NdtWorkspace};
pub use objects::{DetectedObject, ObjectClass};
