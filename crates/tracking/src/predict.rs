//! Trajectory extrapolation — the `naive_motion_predict` node.
//!
//! "Autoware considers the objects have constant velocity (both when
//! driving straight as when turning), hence the prediction node name
//! `naive_motion_predict`" (§II-B): each track's state is rolled forward
//! with the CTRV equations at its current speed and yaw rate.

use crate::TrackedObject;
use av_des::{Leaf, SnapError, SnapReader, SnapWriter};
use av_geom::Vec3;

/// Prediction horizon parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictParams {
    /// How far into the future to predict, seconds.
    pub horizon_s: f64,
    /// Spacing between predicted waypoints, seconds.
    pub step_s: f64,
}

impl Default for PredictParams {
    fn default() -> PredictParams {
        PredictParams { horizon_s: 3.0, step_s: 0.5 }
    }
}

/// A track bundled with its predicted future path, as published on
/// `/prediction/motion_predictor/objects`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedObject {
    /// The tracked object.
    pub object: TrackedObject,
    /// Future positions at `step_s` intervals, nearest first.
    pub path: Vec<Vec3>,
}

/// Checkpoint encoding: the object, then the path.
impl Leaf for PredictedObject {
    fn put(&self, w: &mut SnapWriter) {
        self.object.put(w);
        self.path.put(w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<PredictedObject, SnapError> {
        Ok(PredictedObject { object: TrackedObject::get(r)?, path: Vec::get(r)? })
    }
}

/// Rolls a track's constant-velocity/turn state forward.
///
/// # Panics
///
/// Panics if `step_s` is not strictly positive.
///
/// ```
/// use av_geom::Vec3;
/// use av_perception::ObjectClass;
/// use av_tracking::{predict_path, PredictParams, TrackedObject};
///
/// let track = TrackedObject {
///     id: 1,
///     position: Vec3::ZERO,
///     velocity: Vec3::new(10.0, 0.0, 0.0),
///     yaw: 0.0,
///     yaw_rate: 0.0,
///     half_extents: Vec3::splat(1.0),
///     class: ObjectClass::Car,
///     age: 10,
///     model_probs: [0.8, 0.1, 0.1],
/// };
/// let path = predict_path(&track, &PredictParams::default());
/// assert_eq!(path.len(), 6); // 3 s at 0.5 s steps
/// assert!((path[5].x - 30.0).abs() < 1e-9);
/// ```
pub fn predict_path(object: &TrackedObject, params: &PredictParams) -> Vec<Vec3> {
    assert!(params.step_s > 0.0, "prediction step must be positive");
    let steps = (params.horizon_s / params.step_s).floor() as usize;
    let speed = object.velocity.norm_xy();
    let mut path = Vec::with_capacity(steps);
    let (mut x, mut y) = (object.position.x, object.position.y);
    let mut yaw = object.yaw;
    let yawd = object.yaw_rate;
    let dt = params.step_s;
    for _ in 0..steps {
        if yawd.abs() > 1e-4 {
            x += speed / yawd * ((yaw + yawd * dt).sin() - yaw.sin());
            y += speed / yawd * (-(yaw + yawd * dt).cos() + yaw.cos());
            yaw += yawd * dt;
        } else {
            x += speed * yaw.cos() * dt;
            y += speed * yaw.sin() * dt;
        }
        path.push(Vec3::new(x, y, object.position.z));
    }
    path
}

/// Predicts paths for a whole frame of tracks.
pub fn predict_objects(tracks: &[TrackedObject], params: &PredictParams) -> Vec<PredictedObject> {
    tracks
        .iter()
        .map(|t| PredictedObject { object: t.clone(), path: predict_path(t, params) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_perception::ObjectClass;

    fn track(vx: f64, vy: f64, yaw: f64, yaw_rate: f64) -> TrackedObject {
        TrackedObject {
            id: 7,
            position: Vec3::new(5.0, 5.0, 0.0),
            velocity: Vec3::new(vx, vy, 0.0),
            yaw,
            yaw_rate,
            half_extents: Vec3::splat(1.0),
            class: ObjectClass::Car,
            age: 20,
            model_probs: [0.5, 0.4, 0.1],
        }
    }

    #[test]
    fn straight_prediction_is_linear() {
        let path = predict_path(&track(8.0, 0.0, 0.0, 0.0), &PredictParams::default());
        assert_eq!(path.len(), 6);
        for (i, p) in path.iter().enumerate() {
            assert!((p.x - (5.0 + 8.0 * 0.5 * (i + 1) as f64)).abs() < 1e-9);
            assert!((p.y - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn turning_prediction_curves() {
        let path = predict_path(&track(8.0, 0.0, 0.0, 0.5), &PredictParams::default());
        // Path bends left (positive yaw rate).
        assert!(path.last().unwrap().y > 5.5);
        // Arc length ≈ speed × horizon.
        let mut length = 0.0;
        let mut prev = Vec3::new(5.0, 5.0, 0.0);
        for p in &path {
            length += prev.distance(*p);
            prev = *p;
        }
        assert!((length - 24.0).abs() < 0.5, "arc length {length}");
    }

    #[test]
    fn stationary_object_stays_put() {
        let path = predict_path(&track(0.0, 0.0, 1.0, 0.0), &PredictParams::default());
        for p in &path {
            assert!((p.truncate() - av_geom::Vec2::new(5.0, 5.0)).norm() < 1e-9);
        }
    }

    #[test]
    fn horizon_and_step_control_count() {
        let params = PredictParams { horizon_s: 2.0, step_s: 0.25 };
        assert_eq!(predict_path(&track(1.0, 0.0, 0.0, 0.0), &params).len(), 8);
    }

    #[test]
    fn predict_objects_covers_all_tracks() {
        let tracks = vec![track(1.0, 0.0, 0.0, 0.0), track(0.0, 2.0, 1.57, 0.1)];
        let predicted = predict_objects(&tracks, &PredictParams::default());
        assert_eq!(predicted.len(), 2);
        assert_eq!(predicted[0].object.id, 7);
        assert!(!predicted[0].path.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_panics() {
        let _ = predict_path(
            &track(1.0, 0.0, 0.0, 0.0),
            &PredictParams { horizon_s: 1.0, step_s: 0.0 },
        );
    }
}
