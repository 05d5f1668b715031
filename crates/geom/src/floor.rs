//! Grid quantization without a call into libm.

use crate::Vec3;

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

/// The cell keys of a grid of cubes of side `size`: `floor_i32(x / size)`
/// on each axis, bit for bit.
///
/// When `size` is a normal power of two, `2^-k = 1 / size` is exact
/// (at worst subnormal), and `x * (1 / size)` rounds the same real
/// number `x·2^-k` that `x / size` rounds, once, so the two give the
/// same bits for every `x`. The key then multiplies instead of dividing;
/// any other size keeps the division.
///
/// ```
/// use av_geom::{CellScale, Vec3};
/// let cells = CellScale::new(0.5);
/// assert_eq!(cells.key(Vec3::new(0.7, -0.2, 1.0)), (1, -1, 2));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellScale {
    size: f64,
    /// `1 / size`, when multiplying by it equals dividing by `size`.
    recip: Option<f64>,
}

impl CellScale {
    /// The grid of cubes of side `size`.
    pub fn new(size: f64) -> CellScale {
        let power_of_two = size.is_normal() && size.to_bits() & MANTISSA == 0;
        CellScale { size, recip: power_of_two.then(|| 1.0 / size) }
    }

    /// The cube side.
    #[inline]
    pub fn size(&self) -> f64 {
        self.size
    }

    /// `x / size`, bit for bit.
    #[inline]
    pub fn scaled(&self, x: f64) -> f64 {
        match self.recip {
            Some(recip) => x * recip,
            None => x / self.size,
        }
    }

    /// The integer coordinate of the cube containing `p`.
    #[inline]
    pub fn key(&self, p: Vec3) -> (i32, i32, i32) {
        (floor_i32(self.scaled(p.x)), floor_i32(self.scaled(p.y)), floor_i32(self.scaled(p.z)))
    }
}

/// The fraction bits of an `f64`.
const MANTISSA: u64 = (1 << 52) - 1;

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

    /// Bit-exact `x / size` over the sizes the maps use (0.5, 2.0) and the
    /// extremes of the multiply path, for specials, subnormals and the
    /// neighbours of each.
    #[test]
    fn power_of_two_scaling_equals_division() {
        let sizes = [0.5, 2.0, 1.0, 0.25, 1024.0, f64::MIN_POSITIVE, 2f64.powi(1023)];
        let xs = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::from_bits(2),
            f64::from_bits(3),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE - f64::from_bits(1),
            f64::MIN_POSITIVE * 3.0,
            f64::MAX,
            f64::EPSILON,
            0.1,
            0.3,
            1.0,
            -29.700000000000003,
            1e300,
        ];
        for size in sizes {
            let cells = CellScale::new(size);
            assert!(cells.recip.is_some(), "{size:e} takes the multiply");
            for x in xs.into_iter().flat_map(|x| [x, -x, x.next_up(), x.next_down()]) {
                assert_eq!(
                    cells.scaled(x).to_bits(),
                    (x / size).to_bits(),
                    "{x:e} / {size:e} [bits {:#x}]",
                    x.to_bits()
                );
            }
        }
        let mut rng = RngStreams::new(0xf1).stream("scale");
        for _ in 0..1_000_000 {
            let x = f64::from_bits(rng.next_u64());
            let size = sizes[rng.uniform_usize(sizes.len())];
            let scaled = CellScale::new(size).scaled(x);
            assert_eq!(scaled.to_bits(), (x / size).to_bits(), "{x:e} / {size:e}");
        }
    }

    /// Every other size keeps the division: non-powers of two, a
    /// subnormal power of two (its reciprocal overflows) and the
    /// specials.
    #[test]
    fn other_sizes_divide() {
        let subnormal = f64::MIN_POSITIVE / 4.0;
        for size in [0.3, 3.0, 0.75, 1.5, subnormal, 0.0, f64::INFINITY, f64::NAN] {
            let cells = CellScale::new(size);
            assert!(cells.recip.is_none(), "{size:e}");
            for x in [0.7, -1e-310, 5.0, f64::MAX] {
                assert_eq!(cells.scaled(x).to_bits(), (x / size).to_bits());
            }
        }
        assert_eq!(CellScale::new(3.0).key(Vec3::new(-0.1, 3.0, 8.9)), (-1, 1, 2));
    }
}
