//! Layer-level compute models of the three detector networks.

use std::fmt;

/// Which vision detector a stack runs — the experimental variable of the
/// paper's Fig 5/6/8 and Tables III/V/VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// SSD with 512×512 input (VGG16 backbone).
    Ssd512,
    /// SSD with 300×300 input (VGG16 backbone).
    Ssd300,
    /// YOLOv3 with 416×416 input (Darknet-53 backbone).
    YoloV3,
}

impl DetectorKind {
    /// All detector kinds, in the paper's presentation order.
    pub const ALL: [DetectorKind; 3] =
        [DetectorKind::Ssd512, DetectorKind::Ssd300, DetectorKind::YoloV3];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Ssd512 => "SSD512",
            DetectorKind::Ssd300 => "SSD300",
            DetectorKind::YoloV3 => "YOLOv3",
        }
    }

    /// Parses a detector name, case-insensitively (`ssd512`, `SSD300`,
    /// `yolov3`, ...), as it appears in sweep specs and on the command
    /// line.
    pub fn parse(s: &str) -> Result<DetectorKind, String> {
        DetectorKind::ALL
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown detector {s:?} (expected SSD512, SSD300 or YOLOv3)"))
    }

    /// The cheapest detector (Fig 5: SSD300 has the lowest per-frame
    /// latency of the three) — the graceful-degradation fallback while
    /// a crashed primary detector restarts.
    pub fn cheapest() -> DetectorKind {
        DetectorKind::Ssd300
    }
}

impl fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One convolutional layer's compute/memory profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer name (e.g. `conv4_3`).
    pub name: String,
    /// Output spatial size (square).
    pub out_size: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel size (square).
    pub kernel: usize,
}

impl Layer {
    /// Multiply-accumulate FLOPs of the layer (2 × MACs).
    pub fn flops(&self) -> u64 {
        2 * (self.out_size
            * self.out_size
            * self.in_channels
            * self.out_channels
            * self.kernel
            * self.kernel) as u64
    }

    /// Activation + weight bytes touched (fp32).
    pub fn bytes(&self) -> u64 {
        let activations = self.out_size * self.out_size * self.out_channels;
        let weights = self.in_channels * self.out_channels * self.kernel * self.kernel;
        (4 * (activations + weights)) as u64
    }
}

/// A full network: layers plus the execution characteristics that drive
/// the GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDescriptor {
    /// Network name.
    pub name: &'static str,
    /// Square input resolution.
    pub input_size: usize,
    /// The layer stack.
    pub layers: Vec<Layer>,
    /// Candidate boxes (anchors/priors) the head emits — the size of the
    /// array CPU post-processing must rank.
    pub num_candidates: usize,
    /// Object classes the head predicts.
    pub num_classes: usize,
    /// Fraction of the device's peak FLOP/s this network's kernels
    /// sustain. SSD's large uniform 3×3 convs sustain more of the peak
    /// than Darknet-53's many small 1×1 kernels. (Power per busy-second
    /// is governed separately by `energy_per_inference_j`, which is how
    /// Table VI shows YOLO's GPU power near SSD512's despite lower
    /// utilization.)
    pub gpu_efficiency: f64,
    /// Dynamic energy per inference, joules (calibrated to Table VI).
    pub energy_per_inference_j: f64,
}

fn vgg16(input: usize) -> Vec<Layer> {
    // (name, out_divisor, in_c, out_c) for the 13 conv layers; pooling
    // halves resolution after each block.
    let blocks: [(&str, usize, usize, usize); 13] = [
        ("conv1_1", 1, 3, 64),
        ("conv1_2", 1, 64, 64),
        ("conv2_1", 2, 64, 128),
        ("conv2_2", 2, 128, 128),
        ("conv3_1", 4, 128, 256),
        ("conv3_2", 4, 256, 256),
        ("conv3_3", 4, 256, 256),
        ("conv4_1", 8, 256, 512),
        ("conv4_2", 8, 512, 512),
        ("conv4_3", 8, 512, 512),
        ("conv5_1", 16, 512, 512),
        ("conv5_2", 16, 512, 512),
        ("conv5_3", 16, 512, 512),
    ];
    blocks
        .iter()
        .map(|&(name, div, in_c, out_c)| Layer {
            name: name.to_string(),
            out_size: input / div,
            in_channels: in_c,
            out_channels: out_c,
            kernel: 3,
        })
        .collect()
}

fn ssd_extras(input: usize) -> Vec<Layer> {
    // fc6/fc7 as dilated convs plus the extra feature layers.
    let mut layers = vec![
        Layer {
            name: "fc6".into(),
            out_size: input / 16,
            in_channels: 512,
            out_channels: 1024,
            kernel: 3,
        },
        Layer {
            name: "fc7".into(),
            out_size: input / 16,
            in_channels: 1024,
            out_channels: 1024,
            kernel: 1,
        },
        Layer {
            name: "conv6_2".into(),
            out_size: input / 32,
            in_channels: 1024,
            out_channels: 512,
            kernel: 3,
        },
        Layer {
            name: "conv7_2".into(),
            out_size: input / 64,
            in_channels: 512,
            out_channels: 256,
            kernel: 3,
        },
    ];
    // Detection heads over the main feature maps.
    for (name, div, in_c) in
        [("head4_3", 8usize, 512usize), ("head_fc7", 16, 1024), ("head6", 32, 512)]
    {
        layers.push(Layer {
            name: name.to_string(),
            out_size: input / div,
            in_channels: in_c,
            out_channels: 6 * 25, // 6 anchors × (21 classes + 4 offsets)
            kernel: 3,
        });
    }
    layers
}

fn darknet53(input: usize) -> Vec<Layer> {
    let mut layers = vec![Layer {
        name: "conv0".into(),
        out_size: input,
        in_channels: 3,
        out_channels: 32,
        kernel: 3,
    }];
    // Residual stages: (downsample to, channels, residual blocks).
    let stages: [(usize, usize, usize); 5] =
        [(2, 64, 1), (4, 128, 2), (8, 256, 8), (16, 512, 8), (32, 1024, 4)];
    for (div, c, blocks) in stages {
        layers.push(Layer {
            name: format!("down{div}"),
            out_size: input / div,
            in_channels: c / 2,
            out_channels: c,
            kernel: 3,
        });
        for b in 0..blocks {
            layers.push(Layer {
                name: format!("res{div}_{b}a"),
                out_size: input / div,
                in_channels: c,
                out_channels: c / 2,
                kernel: 1,
            });
            layers.push(Layer {
                name: format!("res{div}_{b}b"),
                out_size: input / div,
                in_channels: c / 2,
                out_channels: c,
                kernel: 3,
            });
        }
    }
    // FPN-style neck: per detection scale, alternating 1×1/3×3 conv
    // pairs (the five-conv blocks of the YOLOv3 head).
    for (scale, div, c) in [("n32", 32usize, 1024usize), ("n16", 16, 512), ("n8", 8, 256)] {
        for pair in 0..3 {
            layers.push(Layer {
                name: format!("{scale}_{pair}a"),
                out_size: input / div,
                in_channels: c,
                out_channels: c / 2,
                kernel: 1,
            });
            layers.push(Layer {
                name: format!("{scale}_{pair}b"),
                out_size: input / div,
                in_channels: c / 2,
                out_channels: c,
                kernel: 3,
            });
        }
    }
    // Three YOLO heads.
    for (name, div, in_c) in
        [("head32", 32usize, 1024usize), ("head16", 16, 512), ("head8", 8, 256)]
    {
        layers.push(Layer {
            name: name.to_string(),
            out_size: input / div,
            in_channels: in_c,
            out_channels: 255, // 3 anchors × (80 classes + 5)
            kernel: 1,
        });
    }
    layers
}

impl NetworkDescriptor {
    /// SSD512 (VGG16, 512×512, 24 564 priors).
    pub fn ssd512() -> NetworkDescriptor {
        let mut layers = vgg16(512);
        layers.extend(ssd_extras(512));
        NetworkDescriptor {
            name: "SSD512",
            input_size: 512,
            layers,
            num_candidates: 24_564,
            num_classes: 21,
            gpu_efficiency: 0.52,
            energy_per_inference_j: 9.0,
        }
    }

    /// SSD300 (VGG16, 300×300, 8 732 priors).
    pub fn ssd300() -> NetworkDescriptor {
        let mut layers = vgg16(300);
        layers.extend(ssd_extras(300));
        NetworkDescriptor {
            name: "SSD300",
            input_size: 300,
            layers,
            num_candidates: 8_732,
            num_classes: 21,
            gpu_efficiency: 0.50,
            energy_per_inference_j: 3.7,
        }
    }

    /// YOLOv3-416 (Darknet-53, 10 647 candidates).
    pub fn yolov3() -> NetworkDescriptor {
        NetworkDescriptor {
            name: "YOLOv3",
            input_size: 416,
            layers: darknet53(416),
            num_candidates: 10_647,
            num_classes: 80,
            gpu_efficiency: 0.25,
            energy_per_inference_j: 7.0,
        }
    }

    /// The descriptor for a detector kind.
    pub fn for_kind(kind: DetectorKind) -> NetworkDescriptor {
        match kind {
            DetectorKind::Ssd512 => NetworkDescriptor::ssd512(),
            DetectorKind::Ssd300 => NetworkDescriptor::ssd300(),
            DetectorKind::YoloV3 => NetworkDescriptor::yolov3(),
        }
    }

    /// Total forward-pass FLOPs.
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(Layer::flops).sum()
    }

    /// Total activation/weight bytes.
    pub fn total_bytes(&self) -> u64 {
        self.layers.iter().map(Layer::bytes).sum()
    }

    /// Input image bytes copied host→device per inference (fp32 CHW).
    pub fn input_bytes(&self) -> u64 {
        (4 * 3 * self.input_size * self.input_size) as u64
    }

    /// Kernel time on a device with `peak_flops` (FLOP/s), as the sum of
    /// per-layer roofline times at this network's sustained efficiency.
    pub fn gpu_kernel_seconds(&self, peak_flops: f64, mem_bandwidth: f64) -> f64 {
        let sustained = peak_flops * self.gpu_efficiency;
        self.layers
            .iter()
            .map(|l| {
                let compute = l.flops() as f64 / sustained;
                let memory = l.bytes() as f64 / mem_bandwidth;
                compute.max(memory) + 8e-6 // per-kernel launch
            })
            .sum()
    }
}

const DETECTOR_CODES: [DetectorKind; 3] =
    [DetectorKind::Ssd512, DetectorKind::Ssd300, DetectorKind::YoloV3];

/// Checkpoint encoding: a one-byte code.
impl av_des::Leaf for DetectorKind {
    fn put(&self, w: &mut av_des::SnapWriter) {
        w.put_code(self, &DETECTOR_CODES);
    }
    fn get(r: &mut av_des::SnapReader<'_>) -> Result<DetectorKind, av_des::SnapError> {
        r.get_code("detector kind", &DETECTOR_CODES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_totals_match_published_scale() {
        // Published: YOLOv3-416 ≈ 65.9 BFLOPs (darknet's own count);
        // SSD300/SSD512 ≈ 31/90 GMACs → ~62/180 GFLOPs at 2 FLOPs/MAC.
        let ssd300 = NetworkDescriptor::ssd300().total_flops() as f64 / 1e9;
        let ssd512 = NetworkDescriptor::ssd512().total_flops() as f64 / 1e9;
        let yolo = NetworkDescriptor::yolov3().total_flops() as f64 / 1e9;
        assert!((45.0..80.0).contains(&ssd300), "SSD300 {ssd300} GFLOPs");
        assert!((150.0..220.0).contains(&ssd512), "SSD512 {ssd512} GFLOPs");
        assert!((55.0..90.0).contains(&yolo), "YOLOv3 {yolo} GFLOPs");
        // Relative ordering is what the figures depend on.
        assert!(ssd512 > yolo && yolo > ssd300);
        assert!(ssd512 / ssd300 > 2.0);
    }

    #[test]
    fn kernel_time_ordering_matches_fig8() {
        // On a GTX-1080-class device (8.9 TFLOP/s, 320 GB/s):
        let gpu_time = |n: &NetworkDescriptor| n.gpu_kernel_seconds(8.9e12, 320e9) * 1e3;
        let t512 = gpu_time(&NetworkDescriptor::ssd512());
        let t300 = gpu_time(&NetworkDescriptor::ssd300());
        let tyolo = gpu_time(&NetworkDescriptor::yolov3());
        // Fig 8: SSD512's GPU share ≈ 40 ms; YOLO ≈ 30 ms; SSD300 smaller.
        assert!((32.0..50.0).contains(&t512), "SSD512 GPU {t512} ms");
        assert!((24.0..36.0).contains(&tyolo), "YOLO GPU {tyolo} ms");
        assert!(t300 < tyolo && tyolo < t512);
    }

    #[test]
    fn candidates_match_published_counts() {
        assert_eq!(NetworkDescriptor::ssd512().num_candidates, 24_564);
        assert_eq!(NetworkDescriptor::ssd300().num_candidates, 8_732);
        assert_eq!(NetworkDescriptor::yolov3().num_candidates, 10_647);
    }

    #[test]
    fn for_kind_roundtrips() {
        for kind in DetectorKind::ALL {
            let n = NetworkDescriptor::for_kind(kind);
            assert_eq!(n.name, kind.name());
            assert!(!n.layers.is_empty());
            assert!(n.total_bytes() > 0);
            assert!(n.input_bytes() > 0);
            assert_eq!(DetectorKind::parse(&kind.name().to_lowercase()), Ok(kind));
        }
        assert!(DetectorKind::parse("yolov2").is_err());
    }

    #[test]
    fn layer_flops_formula() {
        let l =
            Layer { name: "t".into(), out_size: 10, in_channels: 4, out_channels: 8, kernel: 3 };
        assert_eq!(l.flops(), 2 * 10 * 10 * 4 * 8 * 9);
        assert_eq!(l.bytes(), 4 * (10 * 10 * 8 + 4 * 8 * 9));
    }

    #[test]
    fn display_names() {
        assert_eq!(DetectorKind::Ssd512.to_string(), "SSD512");
        assert_eq!(DetectorKind::YoloV3.to_string(), "YOLOv3");
    }
}
