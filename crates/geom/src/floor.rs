//! Grid quantization without a call into libm.

/// `q.floor() as i32`, for every `f64` — NaN, ±∞, ±0 and values outside
/// the `i32` range included (they saturate, NaN gives 0, exactly as the
/// `as` cast does).
///
/// Baseline x86-64 has no rounding instruction, so `f64::floor` compiles
/// to a call into libm. Voxel, NDT-cell, cluster-cell and costmap keys
/// quantize every point of every sweep; this truncating cast plus one
/// compare keeps them inline.
///
/// ```
/// use av_geom::floor_i32;
/// assert_eq!(floor_i32(-0.5), -1);
/// assert_eq!(floor_i32(2.0), 2);
/// assert_eq!(floor_i32(f64::NAN), 0);
/// assert_eq!(floor_i32(-1e300), i32::MIN);
/// ```
#[inline]
pub fn floor_i32(q: f64) -> i32 {
    // `as` truncates toward zero (saturating); only a negative
    // non-integer truncates up, and then the floor is one lower.
    let t = q as i32;
    if (t as f64) > q {
        t.saturating_sub(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::RngStreams;

    fn check(q: f64) {
        assert_eq!(floor_i32(q), q.floor() as i32, "floor_i32({q:e}) [bits {:#x}]", q.to_bits());
        // The identity behind the sites that drop `.floor()` before an
        // `as usize` cast: the cast already floors every value.
        assert_eq!(q.floor() as usize, q as usize, "usize cast of {q:e}");
    }

    #[test]
    fn edge_values_match_the_libm_floor() {
        let two31 = 2_147_483_648.0f64;
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            -f64::EPSILON,
            0.5,
            -0.5,
            1.0,
            -1.0,
            two31 - 0.5,
            two31 + 0.5,
            -two31 - 0.5,
            -two31 + 0.5,
            two31,
            -two31,
            two31 - 1.0,
            -2_147_483_649.0,
            -29.700000000000003 / 0.3,
        ];
        for q in specials {
            check(q);
            check(q.next_up());
            check(q.next_down());
        }
    }

    #[test]
    fn random_values_match_the_libm_floor() {
        let mut rng = RngStreams::new(0xf1).stream("floor");
        for _ in 0..2_000_000 {
            // Any bit pattern: NaN payloads, subnormals, huge magnitudes.
            check(f64::from_bits(rng.next_u64()));
        }
        for _ in 0..2_000_000 {
            // Coordinates over cell sizes, around every scale a key sees.
            let scale = [1e-3, 1.0, 1e3, 1e6, 3e9][rng.uniform_usize(5)];
            check(rng.uniform(-scale, scale) / rng.uniform(0.05, 4.0));
        }
    }
}
