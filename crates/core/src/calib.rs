//! Calibrated cost models: real algorithm work → modeled service demands.
//!
//! Our substrate is a simulator, not the authors' Xeon + GTX-1080-class
//! testbed, so per-node constants are calibrated once against the paper's
//! *unloaded means* (Fig 5, Fig 8's standalone bars, Table VI) and then
//! never touched per experiment. Everything the paper reports beyond those
//! anchors — tail inflation, contention deltas, drop percentages, path
//! sums, utilization ratios — *emerges* from the queueing, bandwidth and
//! serialization mechanics of `av-platform`/`av-ros` plus the real
//! per-frame work variation of the algorithms.
//!
//! Anchors used (from the paper):
//!
//! * SSD512 standalone mean 73.45 ms, σ ≈ 1 ms; YOLO 31.23 ms (Fig 8);
//!   SSD512 ≈ 50/50 CPU/GPU, YOLO > 90% GPU (Fig 8).
//! * `ndt_matching`, `ray_ground_filter` means > 20 ms (Fig 5).
//! * CPU ≈ 43–45 W across detectors; GPU 122 / 67 / 117 W (Table VI).

use av_des::{SimDuration, Snap, StreamRng};
use av_platform::{CpuConfig, GpuConfig, PowerModel};
use av_vision::{DetectorKind, NetworkDescriptor};

/// One node's CPU cost model: affine in its work units with log-normal
/// per-frame jitter (scheduling noise, allocator behaviour, DVFS — the
/// residual variation not explained by scene complexity).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCost {
    /// Fixed cost per invocation, ms.
    pub base_ms: f64,
    /// Cost per work unit (the unit is node-specific: kilo-points,
    /// Newton iterations, objects, kilo-candidates), ms.
    pub per_unit_ms: f64,
    /// Memory-bandwidth intensity while running (see
    /// [`av_platform::CpuTask`]).
    pub mem_intensity: f64,
    /// σ of the multiplicative log-normal jitter.
    pub jitter_sigma: f64,
}

impl NodeCost {
    /// Samples the service demand for `units` of work.
    pub fn demand(&self, units: f64, rng: &mut StreamRng) -> SimDuration {
        let ms = (self.base_ms + self.per_unit_ms * units) * rng.log_normal(0.0, self.jitter_sigma);
        SimDuration::from_millis_f64(ms)
    }

    /// Saves or restores the model for a checkpoint.
    pub fn snap(&mut self, s: &mut Snap<'_>) {
        s.f64(&mut self.base_ms);
        s.f64(&mut self.per_unit_ms);
        s.f64(&mut self.mem_intensity);
        s.f64(&mut self.jitter_sigma);
    }
}

/// A vision detector's three-phase cost: CPU pre-processing, GPU
/// inference (from the network descriptor), CPU post-processing.
#[derive(Debug, Clone, PartialEq)]
pub struct VisionCost {
    /// CPU pre-processing (resize/normalize), ms.
    pub preprocess: NodeCost,
    /// CPU post-processing per kilo-candidate (the ranking/NMS pass).
    pub postprocess: NodeCost,
    /// GPU kernel time per inference.
    pub gpu_kernel: SimDuration,
    /// Host→device copy bytes per inference.
    pub copy_bytes: u64,
    /// GPU dynamic energy per inference, joules.
    pub energy_j: f64,
}

impl VisionCost {
    /// Saves or restores the model for a checkpoint (the detector
    /// fallback hot-swaps it, so it is dynamic state).
    pub fn snap(&mut self, s: &mut Snap<'_>) {
        self.preprocess.snap(s);
        self.postprocess.snap(s);
        s.dur(&mut self.gpu_kernel);
        s.u64(&mut self.copy_bytes);
        s.f64(&mut self.energy_j);
    }
}

/// The full calibration: per-node cost models + platform parameters.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// `voxel_grid_filter`; unit: kilo-points of raw sweep.
    pub voxel_grid_filter: NodeCost,
    /// `ndt_matching`; unit: Newton iterations of the real matcher.
    pub ndt_matching: NodeCost,
    /// `ray_ground_filter`; unit: kilo-points of raw sweep.
    pub ray_ground_filter: NodeCost,
    /// `euclidean_cluster` CPU phases; unit: kilo-points of non-ground
    /// cloud.
    pub euclidean_cluster: NodeCost,
    /// `euclidean_cluster` GPU phase.
    pub cluster_gpu_kernel: SimDuration,
    /// `euclidean_cluster` GPU energy per sweep, joules.
    pub cluster_gpu_energy_j: f64,
    /// `range_vision_fusion`; unit: objects fused.
    pub range_vision_fusion: NodeCost,
    /// `imm_ukf_pda_tracker`; unit: tracks + measurements.
    pub imm_ukf_pda_tracker: NodeCost,
    /// `naive_motion_predict`; unit: tracks.
    pub naive_motion_predict: NodeCost,
    /// `costmap_generator` (points input); unit: kilo-points.
    pub costmap_points: NodeCost,
    /// `costmap_generator_obj` (objects input); unit: predicted objects.
    pub costmap_objects: NodeCost,
    /// Auxiliary subscriptions (pose caches, GNSS/IMU intake).
    pub auxiliary: NodeCost,
    /// Planning nodes (actuation layer), per invocation.
    pub planning: NodeCost,
    /// `traffic_light_recognition` (extension); unit: lights classified.
    pub traffic_light: NodeCost,
    /// Traffic-light classifier GPU time per frame with ≥1 ROI.
    pub traffic_light_gpu: SimDuration,
    /// `radar_detection` (extension); unit: targets converted.
    pub radar_detection: NodeCost,
    /// GPU peak FLOP/s used to derive network kernel times.
    pub gpu_peak_flops: f64,
    /// GPU memory bandwidth, bytes/s.
    pub gpu_mem_bandwidth: f64,
    /// CPU platform parameters.
    pub cpu: CpuConfig,
    /// GPU platform parameters.
    pub gpu: GpuConfig,
    /// Power model.
    pub power: PowerModel,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            voxel_grid_filter: NodeCost {
                base_ms: 2.0,
                per_unit_ms: 0.8,
                mem_intensity: 0.40,
                jitter_sigma: 0.15,
            },
            ndt_matching: NodeCost {
                base_ms: 8.0,
                per_unit_ms: 3.0,
                mem_intensity: 0.25,
                jitter_sigma: 0.12,
            },
            ray_ground_filter: NodeCost {
                base_ms: 6.0,
                per_unit_ms: 3.0,
                mem_intensity: 0.35,
                jitter_sigma: 0.12,
            },
            euclidean_cluster: NodeCost {
                base_ms: 3.0,
                per_unit_ms: 2.4,
                mem_intensity: 0.40,
                jitter_sigma: 0.22,
            },
            cluster_gpu_kernel: SimDuration::from_millis_f64(3.0),
            cluster_gpu_energy_j: 0.35,
            range_vision_fusion: NodeCost {
                base_ms: 1.5,
                per_unit_ms: 0.15,
                mem_intensity: 0.20,
                jitter_sigma: 0.20,
            },
            imm_ukf_pda_tracker: NodeCost {
                base_ms: 2.0,
                per_unit_ms: 0.12,
                mem_intensity: 0.25,
                jitter_sigma: 0.30,
            },
            naive_motion_predict: NodeCost {
                base_ms: 0.5,
                per_unit_ms: 0.08,
                mem_intensity: 0.15,
                jitter_sigma: 0.20,
            },
            costmap_points: NodeCost {
                base_ms: 3.0,
                per_unit_ms: 1.2,
                mem_intensity: 0.35,
                jitter_sigma: 0.18,
            },
            costmap_objects: NodeCost {
                base_ms: 3.0,
                per_unit_ms: 0.35,
                mem_intensity: 0.60,
                jitter_sigma: 0.35,
            },
            auxiliary: NodeCost {
                base_ms: 0.05,
                per_unit_ms: 0.0,
                mem_intensity: 0.02,
                jitter_sigma: 0.10,
            },
            planning: NodeCost {
                base_ms: 2.0,
                per_unit_ms: 0.2,
                mem_intensity: 0.15,
                jitter_sigma: 0.20,
            },
            traffic_light: NodeCost {
                base_ms: 1.0,
                per_unit_ms: 0.8,
                mem_intensity: 0.20,
                jitter_sigma: 0.20,
            },
            traffic_light_gpu: SimDuration::from_millis_f64(2.5),
            radar_detection: NodeCost {
                base_ms: 0.4,
                per_unit_ms: 0.05,
                mem_intensity: 0.05,
                jitter_sigma: 0.15,
            },
            gpu_peak_flops: 8.9e12,
            gpu_mem_bandwidth: 320e9,
            cpu: CpuConfig {
                cores: 8,
                dispatch_overhead: SimDuration::from_micros(30),
                mem_bandwidth: 1.0,
                contention_exponent: 1.7,
            },
            gpu: GpuConfig::default(),
            power: PowerModel {
                cpu_idle_w: 28.0,
                cpu_peak_w: 95.0,
                cpu_background_util: 0.10,
                gpu_idle_w: 12.0,
            },
        }
    }
}

impl Calibration {
    /// The vision-detector cost for a given network, anchored to Fig 8's
    /// standalone means (SSD512 ≈ 73 ms split ~50/50 CPU/GPU; YOLO ≈ 31 ms
    /// with > 90% on the GPU).
    pub fn vision_cost(&self, kind: DetectorKind) -> VisionCost {
        let network = NetworkDescriptor::for_kind(kind);
        let gpu_seconds = network.gpu_kernel_seconds(self.gpu_peak_flops, self.gpu_mem_bandwidth);
        let (pre_ms, post_per_kcand, jitter) = match kind {
            // SSD's Caffe-era pipeline does heavy CPU pre/post-processing.
            DetectorKind::Ssd512 => (3.0, 1.15, 0.013),
            DetectorKind::Ssd300 => (3.0, 1.15, 0.020),
            // YOLO (darknet) keeps almost everything on the GPU.
            DetectorKind::YoloV3 => (1.0, 0.07, 0.025),
        };
        VisionCost {
            preprocess: NodeCost {
                base_ms: pre_ms,
                per_unit_ms: 0.0,
                mem_intensity: 0.25,
                jitter_sigma: jitter,
            },
            postprocess: NodeCost {
                base_ms: 0.2,
                per_unit_ms: post_per_kcand,
                mem_intensity: 0.60,
                jitter_sigma: jitter,
            },
            gpu_kernel: SimDuration::from_secs_f64(gpu_seconds),
            copy_bytes: network.input_bytes(),
            energy_j: network.energy_per_inference_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::RngStreams;

    #[test]
    fn demand_is_affine_in_units() {
        let cost =
            NodeCost { base_ms: 2.0, per_unit_ms: 3.0, mem_intensity: 0.1, jitter_sigma: 0.0 };
        let mut rng = RngStreams::new(1).stream("c");
        let d1 = cost.demand(1.0, &mut rng);
        let d4 = cost.demand(4.0, &mut rng);
        assert_eq!(d1, SimDuration::from_millis(5));
        assert_eq!(d4, SimDuration::from_millis(14));
    }

    #[test]
    fn jitter_spreads_samples() {
        let cost =
            NodeCost { base_ms: 10.0, per_unit_ms: 0.0, mem_intensity: 0.1, jitter_sigma: 0.3 };
        let mut rng = RngStreams::new(2).stream("c");
        let samples: Vec<f64> =
            (0..500).map(|_| cost.demand(0.0, &mut rng).as_millis_f64()).collect();
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < 8.0 && max > 13.0, "jitter too tight: [{min}, {max}]");
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn standalone_vision_anchors() {
        let calib = Calibration::default();
        // SSD512: pre + GPU + post(24.56 kcand) ≈ 73 ms, roughly half GPU.
        let ssd = calib.vision_cost(DetectorKind::Ssd512);
        let cpu_ms = ssd.preprocess.base_ms + 0.2 + 1.15 * 24.564;
        let total = cpu_ms + ssd.gpu_kernel.as_millis_f64();
        assert!((65.0..82.0).contains(&total), "SSD512 standalone {total} ms");
        let gpu_share = ssd.gpu_kernel.as_millis_f64() / total;
        assert!((0.4..0.6).contains(&gpu_share), "SSD512 GPU share {gpu_share}");

        // YOLO: ≈ 31 ms, > 85% GPU.
        let yolo = calib.vision_cost(DetectorKind::YoloV3);
        let cpu_ms = yolo.preprocess.base_ms + 0.2 + 0.07 * 10.647;
        let total = cpu_ms + yolo.gpu_kernel.as_millis_f64();
        assert!((27.0..36.0).contains(&total), "YOLO standalone {total} ms");
        assert!(yolo.gpu_kernel.as_millis_f64() / total > 0.85);

        // SSD300 is the cheapest.
        let ssd300 = calib.vision_cost(DetectorKind::Ssd300);
        let total300 =
            ssd300.preprocess.base_ms + 0.2 + 1.15 * 8.732 + ssd300.gpu_kernel.as_millis_f64();
        assert!(total300 < total, "SSD300 must beat YOLO's total");
    }

    #[test]
    fn gpu_power_anchors() {
        // Mean GPU power over a drive ≈ idle + energy rate. SSD512 at its
        // ~12 fps effective rate lands near 122 W; SSD300 at 15 fps near
        // 67 W; YOLO near 117 W (Table VI).
        let calib = Calibration::default();
        let power = |energy_j: f64, fps: f64| calib.power.gpu_idle_w + energy_j * fps + 3.5;
        let ssd512 = power(calib.vision_cost(DetectorKind::Ssd512).energy_j, 12.2);
        let ssd300 = power(calib.vision_cost(DetectorKind::Ssd300).energy_j, 15.0);
        let yolo = power(calib.vision_cost(DetectorKind::YoloV3).energy_j, 15.0);
        assert!((110.0..135.0).contains(&ssd512), "SSD512 GPU power {ssd512}");
        assert!((58.0..80.0).contains(&ssd300), "SSD300 GPU power {ssd300}");
        assert!((105.0..130.0).contains(&yolo), "YOLO GPU power {yolo}");
        assert!(ssd512 > yolo && yolo > ssd300);
    }
}
