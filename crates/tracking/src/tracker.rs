//! Track lifecycle management — the `imm_ukf_pda_tracker` node.

use crate::imm::{ImmFilter, ImmParams, N_MODELS};
use crate::pda::{combine_innovations, gate_measurements, PdaParams};
use av_geom::{Vec3, VecN};
use av_perception::{DetectedObject, ObjectClass};

/// Tracker configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerParams {
    /// IMM filter-bank parameters.
    pub imm: ImmParams,
    /// Gating/association parameters.
    pub pda: PdaParams,
    /// Consecutive-ish hits before a track is reported (confirmation).
    pub confirm_hits: u32,
    /// Missed frames before a track dies.
    pub max_misses: u32,
}

impl Default for TrackerParams {
    fn default() -> TrackerParams {
        TrackerParams {
            imm: ImmParams::default(),
            pda: PdaParams::default(),
            confirm_hits: 3,
            max_misses: 4,
        }
    }
}

/// A confirmed track, as published on `/detection/object_tracker/objects`:
/// "position, velocity, and associated identification" (§II-B).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedObject {
    /// Stable track identity.
    pub id: u64,
    /// Estimated position.
    pub position: Vec3,
    /// Estimated velocity (world frame).
    pub velocity: Vec3,
    /// Estimated heading, radians.
    pub yaw: f64,
    /// Estimated yaw rate, rad/s.
    pub yaw_rate: f64,
    /// Body half-extents (from the associated detections).
    pub half_extents: Vec3,
    /// Latched semantic class (first non-unknown vision label wins).
    pub class: ObjectClass,
    /// Frames since birth.
    pub age: u32,
    /// Posterior motion-model probabilities `[cv, ctrv, random]`.
    pub model_probs: [f64; N_MODELS],
}

/// Per-step work counters, consumed by the latency cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackerWork {
    /// Live tracks at the end of the step.
    pub tracks: usize,
    /// Measurements received.
    pub measurements: usize,
    /// Track×measurement gate evaluations performed.
    pub gates_evaluated: usize,
}

/// Checkpoint encoding: the fields in declaration order.
impl av_des::Leaf for TrackedObject {
    fn put(&self, w: &mut av_des::SnapWriter) {
        w.put_u64(self.id);
        self.position.put(w);
        self.velocity.put(w);
        w.put_f64(self.yaw);
        w.put_f64(self.yaw_rate);
        self.half_extents.put(w);
        self.class.put(w);
        w.put_u32(self.age);
        self.model_probs.put(w);
    }
    fn get(r: &mut av_des::SnapReader<'_>) -> Result<TrackedObject, av_des::SnapError> {
        Ok(TrackedObject {
            id: r.get_u64()?,
            position: Vec3::get(r)?,
            velocity: Vec3::get(r)?,
            yaw: r.get_f64()?,
            yaw_rate: r.get_f64()?,
            half_extents: Vec3::get(r)?,
            class: ObjectClass::get(r)?,
            age: r.get_u32()?,
            model_probs: <[f64; N_MODELS]>::get(r)?,
        })
    }
}

struct Track {
    id: u64,
    imm: ImmFilter,
    hits: u32,
    misses: u32,
    age: u32,
    half_extents: Vec3,
    class: ObjectClass,
    z_height: f64,
}

/// The IMM-UKF-PDA multi-object tracker.
///
/// Feed it detections (map frame) once per fused-detection frame; it
/// returns the confirmed tracks. See the module tests for full scenarios.
pub struct ImmUkfPdaTracker {
    params: TrackerParams,
    tracks: Vec<Track>,
    next_id: u64,
    last_work: TrackerWork,
}

impl ImmUkfPdaTracker {
    /// Creates an empty tracker.
    pub fn new(params: TrackerParams) -> ImmUkfPdaTracker {
        ImmUkfPdaTracker {
            params,
            tracks: Vec::new(),
            next_id: 1,
            last_work: TrackerWork::default(),
        }
    }

    /// Number of live (confirmed or tentative) tracks.
    pub fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// Work counters from the most recent [`ImmUkfPdaTracker::step`].
    pub fn last_work(&self) -> TrackerWork {
        self.last_work
    }

    /// Saves or restores all track state as a checkpoint section,
    /// replacing all current tracks on load. Tracker parameters are
    /// configuration and are not saved: a loading tracker must have been
    /// constructed with the same parameters.
    pub fn snap(&mut self, s: &mut av_des::Snap<'_>) {
        s.tag("tracker");
        s.u64(&mut self.next_id);
        s.usize(&mut self.last_work.tracks);
        s.usize(&mut self.last_work.measurements);
        s.usize(&mut self.last_work.gates_evaluated);
        let imm = &self.params.imm;
        let blank = || Track {
            id: 0,
            imm: ImmFilter::new(imm.clone(), 0.0, 0.0),
            hits: 0,
            misses: 0,
            age: 0,
            half_extents: Vec3::ZERO,
            class: ObjectClass::Unknown,
            z_height: 0.0,
        };
        s.vec_with(&mut self.tracks, blank, |s, t| {
            s.u64(&mut t.id);
            s.u32(&mut t.hits);
            s.u32(&mut t.misses);
            s.u32(&mut t.age);
            s.leaf(&mut t.half_extents);
            s.leaf(&mut t.class);
            s.f64(&mut t.z_height);
            t.imm.snap(s);
        });
    }

    /// Advances the tracker by one frame.
    ///
    /// `detections` are fused objects in a common (map) frame; `dt` is the
    /// time since the previous frame. Returns confirmed tracks.
    pub fn step(&mut self, detections: &[DetectedObject], dt: f64) -> Vec<TrackedObject> {
        let dt = dt.max(1e-3);
        let measurements: Vec<VecN> =
            detections.iter().map(|d| VecN::from_slice(&[d.position.x, d.position.y])).collect();
        let mut claimed = vec![false; measurements.len()];
        let mut gates_evaluated = 0usize;

        for track in &mut self.tracks {
            track.imm.predict(dt);
            track.age += 1;

            // Gate per model; union of gated indices decides hit/miss.
            let mut per_model: [(VecN, f64, f64); N_MODELS] = [
                (VecN::zeros(2), 0.0, 1e-12),
                (VecN::zeros(2), 0.0, 1e-12),
                (VecN::zeros(2), 0.0, 1e-12),
            ];
            let mut hit_any = false;
            let mut best_idx: Option<usize> = None;
            let mut best_beta = 0.0;
            for (j, filter) in track.imm.filters().iter().enumerate() {
                let (z_pred, s) = filter.predicted_measurement().expect("predict ran above");
                let gated = gate_measurements(z_pred, s, &measurements, &self.params.pda);
                gates_evaluated += measurements.len();
                if !gated.is_empty() {
                    hit_any = true;
                    for g in &gated {
                        claimed[g.index] = true;
                        if g.beta > best_beta {
                            best_beta = g.beta;
                            best_idx = Some(g.index);
                        }
                    }
                }
                let assoc_likelihood = self.params.pda.clutter_density
                    * (1.0 - self.params.pda.detection_prob)
                    + gated.iter().map(|g| g.likelihood).sum::<f64>();
                let (innovation, beta_total) = combine_innovations(&gated);
                per_model[j] = (innovation, beta_total, assoc_likelihood);
            }

            if hit_any {
                track.hits += 1;
                track.misses = 0;
                track.imm.update_pda(&per_model);
                // Refresh extents/class from the strongest associated
                // detection; latch the first semantic class.
                if let Some(idx) = best_idx {
                    let det = &detections[idx];
                    track.half_extents = det.half_extents;
                    track.z_height = det.position.z;
                    if track.class == ObjectClass::Unknown && det.class != ObjectClass::Unknown {
                        track.class = det.class;
                    }
                }
            } else {
                track.misses += 1;
            }
        }

        // Death.
        let max_misses = self.params.max_misses;
        self.tracks.retain(|t| t.misses <= max_misses);

        // Birth from unclaimed detections.
        for (idx, det) in detections.iter().enumerate() {
            if claimed[idx] {
                continue;
            }
            self.tracks.push(Track {
                id: self.next_id,
                imm: ImmFilter::new(self.params.imm.clone(), det.position.x, det.position.y),
                hits: 1,
                misses: 0,
                age: 1,
                half_extents: det.half_extents,
                class: det.class,
                z_height: det.position.z,
            });
            self.next_id += 1;
        }

        self.last_work = TrackerWork {
            tracks: self.tracks.len(),
            measurements: measurements.len(),
            gates_evaluated,
        };

        // Report confirmed tracks.
        self.tracks
            .iter()
            .filter(|t| t.hits >= self.params.confirm_hits)
            .map(|t| {
                let est = t.imm.estimate();
                let (v, yaw, yawd) = (est.state[2], est.state[3], est.state[4]);
                TrackedObject {
                    id: t.id,
                    position: Vec3::new(est.state[0], est.state[1], t.z_height),
                    velocity: Vec3::new(v * yaw.cos(), v * yaw.sin(), 0.0),
                    yaw,
                    yaw_rate: yawd,
                    half_extents: t.half_extents,
                    class: t.class,
                    age: t.age,
                    model_probs: est.model_probs,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detection(x: f64, y: f64) -> DetectedObject {
        DetectedObject::from_cluster(Vec3::new(x, y, 0.0), Vec3::new(2.0, 0.9, 0.75), 40)
    }

    fn classified(x: f64, y: f64, class: ObjectClass) -> DetectedObject {
        DetectedObject { class, ..detection(x, y) }
    }

    #[test]
    fn track_confirms_after_hits() {
        let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
        assert!(tracker.step(&[detection(10.0, 0.0)], 0.1).is_empty());
        assert!(tracker.step(&[detection(10.5, 0.0)], 0.1).is_empty());
        let confirmed = tracker.step(&[detection(11.0, 0.0)], 0.1);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].age, 3);
    }

    #[test]
    fn id_stable_across_frames() {
        let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
        let mut ids = Vec::new();
        for i in 0..10 {
            let tracks = tracker.step(&[detection(10.0 + 0.8 * i as f64, 0.0)], 0.1);
            ids.extend(tracks.iter().map(|t| t.id));
        }
        assert!(!ids.is_empty());
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "identity must persist: {ids:?}");
    }

    #[test]
    fn velocity_estimated_for_moving_target() {
        let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
        let mut last = Vec::new();
        for i in 0..40 {
            last = tracker.step(&[detection(0.8 * i as f64, 5.0)], 0.1);
        }
        assert_eq!(last.len(), 1);
        let speed = last[0].velocity.norm();
        assert!((speed - 8.0).abs() < 1.5, "estimated speed {speed}");
    }

    #[test]
    fn track_dies_after_misses() {
        let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
        for i in 0..5 {
            tracker.step(&[detection(10.0 + 0.1 * i as f64, 0.0)], 0.1);
        }
        assert_eq!(tracker.track_count(), 1);
        for _ in 0..6 {
            tracker.step(&[], 0.1);
        }
        assert_eq!(tracker.track_count(), 0);
    }

    #[test]
    fn coasting_track_survives_brief_occlusion() {
        let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
        let mut id_before = 0;
        for i in 0..10 {
            let t = tracker.step(&[detection(0.8 * i as f64, 0.0)], 0.1);
            if let Some(first) = t.first() {
                id_before = first.id;
            }
        }
        // Two occluded frames.
        tracker.step(&[], 0.1);
        tracker.step(&[], 0.1);
        // Target reappears where the CV model predicts.
        let t = tracker.step(&[detection(0.8 * 12.0, 0.0)], 0.1);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].id, id_before, "track must survive occlusion");
    }

    #[test]
    fn two_targets_two_tracks() {
        let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
        let mut last = Vec::new();
        for i in 0..10 {
            last = tracker.step(
                &[detection(0.5 * i as f64, 0.0), detection(30.0 - 0.5 * i as f64, 20.0)],
                0.1,
            );
        }
        assert_eq!(last.len(), 2);
        assert_ne!(last[0].id, last[1].id);
        // Roughly opposite headings.
        let dot = last[0].velocity.normalized().dot(last[1].velocity.normalized());
        assert!(dot < 0.0, "targets move in opposite directions");
    }

    #[test]
    fn class_latched_from_vision() {
        let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
        tracker.step(&[detection(10.0, 0.0)], 0.1);
        tracker.step(&[classified(10.2, 0.0, ObjectClass::Car)], 0.1);
        let t = tracker.step(&[detection(10.4, 0.0)], 0.1);
        assert_eq!(t[0].class, ObjectClass::Car, "class latches once seen");
    }

    #[test]
    fn clutter_does_not_steal_track() {
        let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
        let mut last = Vec::new();
        for i in 0..30 {
            let x = 0.8 * i as f64;
            // Target plus a clutter detection far away each frame.
            last = tracker.step(&[detection(x, 0.0), detection(50.0, -30.0 + (i % 7) as f64)], 0.1);
        }
        let target = last.iter().find(|t| t.position.y.abs() < 2.0).unwrap();
        assert!((target.velocity.norm() - 8.0).abs() < 2.0);
    }

    #[test]
    fn tracker_state_round_trips_and_continues_identically() {
        let mut a = ImmUkfPdaTracker::new(TrackerParams::default());
        for i in 0..8 {
            a.step(
                &[detection(0.8 * i as f64, 0.0), classified(20.0, 5.0, ObjectClass::Cyclist)],
                0.1,
            );
        }
        let mut s = av_des::Snap::save();
        a.snap(&mut s);
        let bytes = s.into_bytes();

        let mut b = ImmUkfPdaTracker::new(TrackerParams::default());
        b.snap(&mut av_des::Snap::load(&bytes));
        assert_eq!(b.track_count(), a.track_count());
        assert_eq!(b.last_work(), a.last_work());

        // Continuing from the restored state is bit-identical to
        // continuing the original.
        for i in 8..16 {
            let ta = a.step(&[detection(0.8 * i as f64, 0.0)], 0.1);
            let tb = b.step(&[detection(0.8 * i as f64, 0.0)], 0.1);
            assert_eq!(ta, tb);
        }

        // And re-serializing restored state reproduces the bytes.
        let mut c = ImmUkfPdaTracker::new(TrackerParams::default());
        c.snap(&mut av_des::Snap::load(&bytes));
        let mut s2 = av_des::Snap::save();
        c.snap(&mut s2);
        assert_eq!(s2.into_bytes(), bytes);
    }

    #[test]
    fn work_counters_populated() {
        let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
        tracker.step(&[detection(1.0, 0.0), detection(5.0, 5.0)], 0.1);
        tracker.step(&[detection(1.2, 0.0)], 0.1);
        let work = tracker.last_work();
        assert_eq!(work.measurements, 1);
        assert_eq!(work.tracks, 2);
        assert!(work.gates_evaluated > 0);
    }
}
