//! The tracking pipeline nodes: tracker, relay, prediction.

use crate::calib::{Calibration, NodeCost};
use crate::msg::{unexpected, Msg};
use crate::topics;
use av_des::{SimTime, Snap, StreamRng};
use av_ros::{Execution, Message, Node, Outbox};
use av_tracking::{predict_objects, ImmUkfPdaTracker, PredictParams, TrackerParams};

/// `imm_ukf_pda_tracker`: multi-object tracking over fused detections.
pub struct ImmUkfPdaTrackerNode {
    tracker: ImmUkfPdaTracker,
    cost: NodeCost,
    rng: StreamRng,
    last_stamp: Option<SimTime>,
}

impl ImmUkfPdaTrackerNode {
    /// Creates the node.
    pub fn new(params: TrackerParams, calib: &Calibration, rng: StreamRng) -> ImmUkfPdaTrackerNode {
        ImmUkfPdaTrackerNode {
            tracker: ImmUkfPdaTracker::new(params),
            cost: calib.imm_ukf_pda_tracker.clone(),
            rng,
            last_stamp: None,
        }
    }

    /// Number of live tracks (for tests/diagnostics).
    pub fn track_count(&self) -> usize {
        self.tracker.track_count()
    }
}

impl Node<Msg> for ImmUkfPdaTrackerNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.tracker.snap(s);
        s.opt(&mut self.last_stamp, Snap::time);
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        let Msg::DetectedObjects(detections) = &*msg.payload else {
            unexpected(topics::nodes::IMM_UKF_PDA_TRACKER, topic, &msg.payload)
        };
        let dt = match self.last_stamp {
            Some(last) => msg.header.stamp.saturating_since(last).as_secs_f64().max(1e-3),
            None => 0.1,
        };
        self.last_stamp = Some(msg.header.stamp);
        let tracked = self.tracker.step(detections, dt);
        let work = self.tracker.last_work();
        let units = (work.tracks + work.measurements) as f64;
        out.publish(topics::OBJECT_TRACKER_OBJECTS, Msg::TrackedObjects(tracked));
        Execution::cpu(self.cost.demand(units, &mut self.rng), self.cost.mem_intensity)
    }
}

/// `ukf_track_relay`: forwards tracker output onto `/detection/objects`
/// (present in the paper's Table IV paths).
pub struct UkfTrackRelayNode {
    cost: NodeCost,
    rng: StreamRng,
}

impl UkfTrackRelayNode {
    /// Creates the relay.
    pub fn new(calib: &Calibration, rng: StreamRng) -> UkfTrackRelayNode {
        UkfTrackRelayNode { cost: calib.auxiliary.clone(), rng }
    }
}

impl Node<Msg> for UkfTrackRelayNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        let Msg::TrackedObjects(tracks) = &*msg.payload else {
            unexpected(topics::nodes::UKF_TRACK_RELAY, topic, &msg.payload)
        };
        out.publish(topics::DETECTION_OBJECTS, Msg::TrackedObjects(tracks.clone()));
        Execution::cpu(self.cost.demand(0.0, &mut self.rng), self.cost.mem_intensity)
    }
}

/// `naive_motion_predict`: constant-velocity/turn extrapolation of each
/// track.
pub struct NaiveMotionPredictNode {
    params: PredictParams,
    cost: NodeCost,
    rng: StreamRng,
}

impl NaiveMotionPredictNode {
    /// Creates the node.
    pub fn new(
        params: PredictParams,
        calib: &Calibration,
        rng: StreamRng,
    ) -> NaiveMotionPredictNode {
        NaiveMotionPredictNode { params, cost: calib.naive_motion_predict.clone(), rng }
    }
}

impl Node<Msg> for NaiveMotionPredictNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        let Msg::TrackedObjects(tracks) = &*msg.payload else {
            unexpected(topics::nodes::NAIVE_MOTION_PREDICT, topic, &msg.payload)
        };
        let predicted = predict_objects(tracks, &self.params);
        let units = tracks.len() as f64;
        out.publish(topics::MOTION_PREDICTOR_OBJECTS, Msg::PredictedObjects(predicted));
        Execution::cpu(self.cost.demand(units, &mut self.rng), self.cost.mem_intensity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::RngStreams;
    use av_geom::Vec3;
    use av_perception::DetectedObject;
    use av_ros::{Header, Lineage, Source};

    fn message(payload: Msg, stamp_ms: u64) -> Message<Msg> {
        Message::new(
            Header {
                seq: 1,
                stamp: SimTime::from_millis(stamp_ms),
                lineage: Lineage::origin(Source::Lidar, SimTime::from_millis(stamp_ms)),
            },
            payload,
        )
    }

    fn detections_at(x: f64) -> Msg {
        Msg::DetectedObjects(vec![DetectedObject::from_cluster(
            Vec3::new(x, 0.0, 0.0),
            Vec3::new(2.0, 0.9, 0.75),
            25,
        )])
    }

    #[test]
    fn tracker_node_confirms_and_publishes() {
        let calib = Calibration::default();
        let mut node = ImmUkfPdaTrackerNode::new(
            TrackerParams::default(),
            &calib,
            RngStreams::new(1).stream("t"),
        );
        let mut last_tracks = 0;
        for i in 0..8u64 {
            let mut out = Outbox::new(Lineage::empty());
            node.on_message(
                topics::FUSION_TOOLS_OBJECTS,
                &message(detections_at(10.0 + 0.8 * i as f64), 100 * (i + 1)),
                &mut out,
            );
            let items = out.into_items();
            let Msg::TrackedObjects(tracks) = &items[0].1 else { panic!() };
            last_tracks = tracks.len();
        }
        assert_eq!(last_tracks, 1);
        assert_eq!(node.track_count(), 1);
    }

    #[test]
    fn relay_and_predict_chain() {
        let calib = Calibration::default();
        let mut tracker = ImmUkfPdaTrackerNode::new(
            TrackerParams::default(),
            &calib,
            RngStreams::new(1).stream("t2"),
        );
        let mut tracks_msg = None;
        for i in 0..6u64 {
            let mut out = Outbox::new(Lineage::empty());
            tracker.on_message(
                topics::FUSION_TOOLS_OBJECTS,
                &message(detections_at(5.0 + 0.8 * i as f64), 100 * (i + 1)),
                &mut out,
            );
            tracks_msg = Some(out.into_items().remove(0).1);
        }

        let mut relay = UkfTrackRelayNode::new(&calib, RngStreams::new(1).stream("r"));
        let mut out = Outbox::new(Lineage::empty());
        let exec = relay.on_message(
            topics::OBJECT_TRACKER_OBJECTS,
            &message(tracks_msg.clone().unwrap(), 700),
            &mut out,
        );
        assert!(exec.cpu_demand().as_millis_f64() < 0.5, "relay must be nearly free");
        let relayed = out.into_items().remove(0);
        assert_eq!(relayed.0, topics::DETECTION_OBJECTS);

        let mut predict = NaiveMotionPredictNode::new(
            PredictParams::default(),
            &calib,
            RngStreams::new(1).stream("p"),
        );
        let mut out = Outbox::new(Lineage::empty());
        predict.on_message(topics::DETECTION_OBJECTS, &message(relayed.1, 705), &mut out);
        let items = out.into_items();
        let Msg::PredictedObjects(predicted) = &items[0].1 else { panic!() };
        assert_eq!(predicted.len(), 1);
        assert_eq!(predicted[0].path.len(), 6);
        // A moving track's predicted path must extend forward.
        assert!(predicted[0].path[5].distance(predicted[0].object.position) > 1.0);
    }
}
