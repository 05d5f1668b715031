//! Traffic-light recognition — the node the paper *could not* stimulate.
//!
//! "Since we do not have the annotation for traffic light poles position,
//! we cannot perform traffic light detection algorithms" (§III-C). Our
//! synthetic HD map carries the annotations, so the reproduction
//! exercises the node as an extension (off by default, so the headline
//! experiments stay comparable with the paper's setup).
//!
//! The node mirrors Autoware's `feat_proj` + `region_tlr` pair: project
//! the map-annotated light positions into the image using the current
//! localization, crop the ROIs, and classify each light's state with a
//! small CNN (modeled as a short GPU phase).

use crate::calib::{Calibration, NodeCost};
use crate::msg::{unexpected, LightObservation, Msg};
use crate::topics;
use av_des::{SimDuration, Snap, StreamRng};
use av_geom::Pose;
use av_ros::{Execution, Message, Node, Outbox};
use av_world::{LightState, TrafficLight};

/// The `traffic_light_recognition` node.
pub struct TrafficLightRecognitionNode {
    /// HD-map annotations: the light positions (§II-A's "3D position of
    /// traffic lights").
    map_lights: Vec<TrafficLight>,
    cost: NodeCost,
    aux: NodeCost,
    gpu_kernel: SimDuration,
    rng: StreamRng,
    cached_pose: Option<Pose>,
    /// Classification accuracy per ROI.
    accuracy: f64,
}

impl TrafficLightRecognitionNode {
    /// Creates the node from the HD map's light annotations.
    pub fn new(
        map_lights: Vec<TrafficLight>,
        calib: &Calibration,
        rng: StreamRng,
    ) -> TrafficLightRecognitionNode {
        TrafficLightRecognitionNode {
            map_lights,
            cost: calib.traffic_light.clone(),
            aux: calib.auxiliary.clone(),
            gpu_kernel: calib.traffic_light_gpu,
            rng,
            cached_pose: None,
            accuracy: 0.97,
        }
    }

    fn misclassify(state: LightState) -> LightState {
        match state {
            LightState::Green => LightState::Yellow,
            LightState::Yellow => LightState::Red,
            LightState::Red => LightState::Yellow,
        }
    }
}

impl Node<Msg> for TrafficLightRecognitionNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
        s.opt(&mut self.cached_pose, Snap::leaf);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        match &*msg.payload {
            Msg::Pose(estimate) => {
                self.cached_pose = Some(estimate.pose);
                Execution::cpu(self.aux.demand(0.0, &mut self.rng), self.aux.mem_intensity)
            }
            Msg::Image(frame) => {
                // feat_proj: select map lights plausibly in view of the
                // current pose (the ROI proposal step). A light whose ROI
                // the camera confirms gets classified.
                let pose = self.cached_pose.unwrap_or(Pose::IDENTITY);
                let candidate_ids: Vec<u32> = self
                    .map_lights
                    .iter()
                    .filter(|l| {
                        let rel = l.position - pose.translation;
                        rel.norm_xy() < 80.0
                    })
                    .map(|l| l.id)
                    .collect();
                let observations: Vec<LightObservation> = frame
                    .lights
                    .iter()
                    .filter(|l| candidate_ids.contains(&l.id))
                    .map(|l| {
                        let correct = self.rng.chance(self.accuracy);
                        let state = if correct { l.state } else { Self::misclassify(l.state) };
                        LightObservation {
                            id: l.id,
                            state,
                            confidence: if correct {
                                self.rng.uniform(0.8, 0.99)
                            } else {
                                self.rng.uniform(0.5, 0.8)
                            },
                            distance: l.distance,
                        }
                    })
                    .collect();
                let rois = observations.len();
                out.publish(topics::LIGHT_COLOR, Msg::LightColors(observations));
                let exec = Execution::cpu(
                    self.cost.demand(rois as f64, &mut self.rng),
                    self.cost.mem_intensity,
                );
                if rois > 0 {
                    // The classifier CNN runs once over the batched ROIs.
                    exec.then_gpu(self.gpu_kernel, 64 * 64 * 3 * rois as u64, 0.08)
                } else {
                    exec
                }
            }
            other => unexpected(topics::nodes::TRAFFIC_LIGHT_RECOGNITION, topic, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::PoseEstimate;
    use av_des::{RngStreams, SimTime};
    use av_ros::{Header, Lineage, Source};
    use av_world::{CameraConfig, CameraModel, ScenarioConfig, World};

    fn message(payload: Msg, stamp_ms: u64) -> Message<Msg> {
        Message::new(
            Header {
                seq: 1,
                stamp: SimTime::from_millis(stamp_ms),
                lineage: Lineage::origin(Source::Camera, SimTime::from_millis(stamp_ms)),
            },
            payload,
        )
    }

    /// Drives the camera along the route until a frame contains a light.
    fn frame_with_light(world: &World) -> Option<(f64, av_world::ImageFrame)> {
        let camera = CameraModel::new(CameraConfig::default());
        for i in 0..400 {
            let t = i as f64 * 0.5;
            let frame = camera.capture(world, &world.snapshot(t));
            if !frame.lights.is_empty() {
                return Some((t, frame));
            }
        }
        None
    }

    #[test]
    fn world_annotates_traffic_lights() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        assert_eq!(world.traffic_lights().len(), 4);
        for light in world.traffic_lights() {
            assert!(light.position.z > 4.0, "lights mounted overhead");
            // Cycle covers all three states.
            let states: std::collections::HashSet<_> =
                (0..40).map(|i| light.state_at(i as f64)).collect();
            assert_eq!(states.len(), 3);
        }
    }

    #[test]
    fn camera_sees_lights_somewhere_on_the_loop() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let found = frame_with_light(&world);
        assert!(found.is_some(), "no frame saw a light over a full loop");
    }

    #[test]
    fn node_classifies_visible_lights() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let (t, frame) = frame_with_light(&world).expect("a frame with lights");
        let truth: Vec<(u32, LightState)> = frame.lights.iter().map(|l| (l.id, l.state)).collect();

        let calib = Calibration::default();
        let mut node = TrafficLightRecognitionNode::new(
            world.traffic_lights().to_vec(),
            &calib,
            RngStreams::new(1).stream("tlr"),
        );
        // Cache the ego pose at that instant.
        node.on_message(
            topics::NDT_POSE,
            &message(
                Msg::Pose(PoseEstimate {
                    pose: world.ego_state(t).pose,
                    fitness: 1.0,
                    iterations: 3,
                }),
                (t * 1000.0) as u64,
            ),
            &mut Outbox::new(Lineage::empty()),
        );
        let mut out = Outbox::new(Lineage::empty());
        let exec = node.on_message(
            topics::IMAGE_RAW,
            &message(Msg::Image(frame), (t * 1000.0) as u64 + 5),
            &mut out,
        );
        assert!(!exec.gpu_demand().is_zero(), "classifier CNN must run");
        let items = out.into_items();
        assert_eq!(items[0].0, topics::LIGHT_COLOR);
        let Msg::LightColors(obs) = &items[0].1 else { panic!("wrong payload") };
        assert_eq!(obs.len(), truth.len());
        // With 97% accuracy and a handful of lights, expect agreement.
        let correct =
            obs.iter().filter(|o| truth.iter().any(|&(id, s)| id == o.id && s == o.state)).count();
        assert!(correct * 2 > obs.len(), "mostly correct classifications");
    }

    #[test]
    fn empty_frame_publishes_empty_and_skips_gpu() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let calib = Calibration::default();
        let mut node = TrafficLightRecognitionNode::new(
            world.traffic_lights().to_vec(),
            &calib,
            RngStreams::new(1).stream("tlr2"),
        );
        let frame = av_world::ImageFrame {
            width: 1280,
            height: 960,
            visible: vec![],
            lights: vec![],
            clutter: 0.0,
        };
        let mut out = Outbox::new(Lineage::empty());
        let exec = node.on_message(topics::IMAGE_RAW, &message(Msg::Image(frame), 10), &mut out);
        assert!(exec.gpu_demand().is_zero());
        let items = out.into_items();
        let Msg::LightColors(obs) = &items[0].1 else { panic!() };
        assert!(obs.is_empty());
    }
}
