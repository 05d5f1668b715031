//! Angle helpers.

use std::f64::consts::PI;

/// Wraps an angle to the half-open interval `(-π, π]`.
///
/// ```
/// use av_geom::normalize_angle;
/// assert!((normalize_angle(3.0 * std::f64::consts::PI) - std::f64::consts::PI).abs() < 1e-12);
/// ```
pub fn normalize_angle(angle: f64) -> f64 {
    let two_pi = 2.0 * PI;
    // `%` (a libm `fmod` call) returns its operand exactly when
    // |angle| < 2π, so only larger angles, ±∞ and NaN need it.
    let mut a = if angle.abs() < two_pi { angle } else { angle % two_pi };
    if a <= -PI {
        a += two_pi;
    } else if a > PI {
        a -= two_pi;
    }
    a
}

/// Signed smallest difference `a − b`, wrapped into `(-π, π]`.
///
/// The tracker and the pure-pursuit controller both steer on this quantity.
pub fn angle_diff(a: f64, b: f64) -> f64 {
    normalize_angle(a - b)
}

/// Degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * PI / 180.0
}

/// Radians to degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / PI
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::RngStreams;

    /// The formula `normalize_angle` had before it skipped `%` in range.
    fn normalize_by_fmod(angle: f64) -> f64 {
        let two_pi = 2.0 * PI;
        let mut a = angle % two_pi;
        if a <= -PI {
            a += two_pi;
        } else if a > PI {
            a -= two_pi;
        }
        a
    }

    fn check(angle: f64) {
        let (got, want) = (normalize_angle(angle), normalize_by_fmod(angle));
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "normalize_angle({angle:e}) = {got:e}, the fmod formula gives {want:e}"
        );
    }

    #[test]
    fn skipping_fmod_in_range_changes_no_bit() {
        let specials = [
            0.0,
            PI,
            2.0 * PI,
            3.0 * PI,
            PI / 2.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::NAN,
            f64::INFINITY,
            1e300,
            f64::MAX,
        ];
        for angle in specials {
            for a in [angle, -angle] {
                for b in [a, a.next_up(), a.next_down(), a.next_up().next_up()] {
                    check(b);
                }
            }
        }
        let mut rng = RngStreams::new(0xa9).stream("normalize");
        for _ in 0..1_000_000 {
            // Mostly the raycast's range (a difference of two bearings),
            // some well outside it, some arbitrary bit patterns.
            match rng.uniform_usize(4) {
                0 | 1 => check(rng.uniform(-2.0 * PI, 2.0 * PI)),
                2 => check(rng.uniform(-1e4, 1e4)),
                _ => check(f64::from_bits(rng.next_u64())),
            }
        }
    }

    #[test]
    fn normalize_keeps_in_range() {
        for k in -20..20 {
            let a = k as f64 * 0.7;
            let n = normalize_angle(a);
            assert!(n > -PI - 1e-12 && n <= PI + 1e-12, "{a} -> {n}");
            // Same direction.
            assert!((n.sin() - a.sin()).abs() < 1e-9);
            assert!((n.cos() - a.cos()).abs() < 1e-9);
        }
    }

    #[test]
    fn diff_wraps_across_pi() {
        let d = angle_diff(PI - 0.1, -PI + 0.1);
        assert!((d + 0.2).abs() < 1e-12);
    }

    #[test]
    fn degree_radian_roundtrip() {
        assert!((deg_to_rad(180.0) - PI).abs() < 1e-12);
        assert!((rad_to_deg(PI / 2.0) - 90.0).abs() < 1e-12);
        assert!((rad_to_deg(deg_to_rad(37.5)) - 37.5).abs() < 1e-12);
    }
}
