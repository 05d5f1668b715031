//! Command smoothing — the `twist_filter` node.
//!
//! "A low-pass filter applied over motion control to smooth the vehicle
//! driving" (Table I), plus rate limiting so commanded accelerations stay
//! physical.

use av_geom::Twist;

/// Twist-filter parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TwistFilterParams {
    /// Exponential smoothing factor in `(0, 1]`; 1 = no smoothing.
    pub alpha: f64,
    /// Maximum linear acceleration, m/s².
    pub max_accel: f64,
    /// Maximum yaw-rate change per second, rad/s².
    pub max_yaw_accel: f64,
    /// Hard cap on commanded yaw rate, rad/s.
    pub max_yaw_rate: f64,
}

impl Default for TwistFilterParams {
    fn default() -> TwistFilterParams {
        TwistFilterParams { alpha: 0.35, max_accel: 2.5, max_yaw_accel: 1.2, max_yaw_rate: 0.6 }
    }
}

/// Stateful low-pass + rate limiter over velocity commands.
///
/// ```
/// use av_geom::Twist;
/// use av_planning::TwistFilter;
///
/// let mut filter = TwistFilter::new(Default::default());
/// let out = filter.apply(Twist::planar(10.0, 0.0), 0.1);
/// assert!(out.speed() < 10.0); // ramping up, not jumping
/// ```
#[derive(Debug, Clone)]
pub struct TwistFilter {
    params: TwistFilterParams,
    state: Twist,
}

impl TwistFilter {
    /// Creates a filter starting from rest.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(params: TwistFilterParams) -> TwistFilter {
        assert!(params.alpha > 0.0 && params.alpha <= 1.0, "alpha must be in (0, 1]");
        TwistFilter { params, state: Twist::ZERO }
    }

    /// The last emitted command.
    pub fn state(&self) -> Twist {
        self.state
    }

    /// Saves or restores the filter's dynamic state (the last emitted
    /// command); parameters are configuration and are not saved.
    pub fn snap(&mut self, s: &mut av_des::Snap<'_>) {
        s.leaf(&mut self.state);
    }

    /// Filters one raw command, `dt` seconds after the previous one.
    pub fn apply(&mut self, raw: Twist, dt: f64) -> Twist {
        let p = &self.params;
        // Low-pass toward the raw command.
        let target_v = self.state.speed() + p.alpha * (raw.speed() - self.state.speed());
        let target_w = self.state.yaw_rate() + p.alpha * (raw.yaw_rate() - self.state.yaw_rate());
        // Rate limits.
        let dv = (target_v - self.state.speed()).clamp(-p.max_accel * dt, p.max_accel * dt);
        let dw =
            (target_w - self.state.yaw_rate()).clamp(-p.max_yaw_accel * dt, p.max_yaw_accel * dt);
        let v = self.state.speed() + dv;
        let w = (self.state.yaw_rate() + dw).clamp(-p.max_yaw_rate, p.max_yaw_rate);
        self.state = Twist::planar(v, w);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_constant_command() {
        let mut f = TwistFilter::new(TwistFilterParams::default());
        let mut out = Twist::ZERO;
        for _ in 0..200 {
            out = f.apply(Twist::planar(8.0, 0.2), 0.1);
        }
        assert!((out.speed() - 8.0).abs() < 0.05);
        assert!((out.yaw_rate() - 0.2).abs() < 0.01);
    }

    #[test]
    fn acceleration_limited() {
        let mut f = TwistFilter::new(TwistFilterParams::default());
        let mut prev = 0.0;
        for _ in 0..50 {
            let out = f.apply(Twist::planar(20.0, 0.0), 0.1);
            let accel = (out.speed() - prev) / 0.1;
            assert!(accel <= 2.5 + 1e-9, "accel {accel} exceeds limit");
            prev = out.speed();
        }
    }

    #[test]
    fn yaw_rate_capped() {
        let mut f = TwistFilter::new(TwistFilterParams::default());
        for _ in 0..100 {
            let out = f.apply(Twist::planar(5.0, 3.0), 0.1);
            assert!(out.yaw_rate() <= 0.6 + 1e-12);
        }
    }

    #[test]
    fn smooths_oscillating_input() {
        let mut f = TwistFilter::new(TwistFilterParams::default());
        let mut outputs = Vec::new();
        for i in 0..100 {
            let w = if i % 2 == 0 { 0.5 } else { -0.5 };
            outputs.push(f.apply(Twist::planar(5.0, w), 0.05).yaw_rate());
        }
        // Output swings must be much smaller than input swings (1.0).
        let max_swing = outputs.windows(2).map(|w| (w[1] - w[0]).abs()).fold(0.0, f64::max);
        assert!(max_swing < 0.2, "filter failed to smooth: swing {max_swing}");
    }

    #[test]
    fn alpha_one_still_rate_limited() {
        let mut f = TwistFilter::new(TwistFilterParams { alpha: 1.0, ..Default::default() });
        let out = f.apply(Twist::planar(10.0, 0.0), 0.1);
        assert!((out.speed() - 0.25).abs() < 1e-9); // 2.5 m/s² × 0.1 s
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = TwistFilter::new(TwistFilterParams { alpha: 0.0, ..Default::default() });
    }
}
