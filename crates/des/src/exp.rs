//! `exp` as glibc computes it on FMA hardware, inlinable.
//!
//! glibc (2.28 and later) implements `exp` with the table-driven method
//! of ARM's optimized-routines: `x = k·ln2/N + r` with `N = 128`, then
//! `exp(x) = 2^(k/N) · exp(r)`, `2^(k/N)` read from a table of `N`
//! `(tail, scale)` pairs and `exp(r) − 1` from a degree-5 polynomial. On
//! x86-64 it picks, at load time, a build compiled with FMA contraction
//! when the CPU has FMA and AVX2; that build fuses exactly the products
//! that [`exp_fma`] fuses below, and the non-FMA build rounds them apart,
//! so the two disagree in the last bit on about one input in 1500.
//!
//! [`exp_fma`] is that FMA build, with its constants and table, for
//! every finite |x| ≥ 2^-54: the fast path and the rescaling slow path
//! of 512 ≤ |x| < 1024 (an NDT score meets |x| ≥ 512 in about one term
//! in eight). It is a call-free loop body, where a libm call clobbers
//! every live register. Its arithmetic is exact IEEE operations in
//! glibc's order, so on the same inputs it returns the same bits; tiny
//! |x|, ±∞ and NaN go to `f64::exp` itself. [`exp_sub_each`] uses it
//! only where it equals the host's `f64::exp`: when the CPU has FMA and
//! AVX2 *and* `f64::exp` returns the inline bits on [`PROBES`], inputs
//! on which the two glibc builds differ. Any other host (no FMA, another
//! libm, glibc told to skip its FMA build) runs the plain `f64::exp`
//! loop, so every host computes what its own `f64::exp` computes.

use std::sync::OnceLock;

/// Table bits: `N = 2^7` entries.
const TABLE_BITS: u32 = 7;
const N: u64 = 1 << TABLE_BITS;

// The constants and the table below are glibc's `__exp_data` (from ARM
// optimized-routines' `exp_data.c`), read out of the `libm.so.6` of
// glibc 2.36 (Debian 2.36-9+deb12u14, x86-64): `N / ln 2`, `−ln 2 / N`
// split high/low, the polynomial's `C2..C5`, and the round-to-integer
// shift `0x1.8p52`.
const INV_LN2_N: f64 = f64::from_bits(0x40671547652b82fe);
const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf762e42fefa0000);
const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0cf79abc9e3b3a);
const C2: f64 = f64::from_bits(0x3fdffffffffffdbd);
const C3: f64 = f64::from_bits(0x3fc555555555543c);
const C4: f64 = f64::from_bits(0x3fa55555cf172b91);
const C5: f64 = f64::from_bits(0x3f81111167a4d017);
const SHIFT: f64 = f64::from_bits(0x4338000000000000);

/// `2^(k/N) ≈ scale · (1 + tail)` for `k` in `0..N`: entry `2k` holds the
/// bits of `tail`, entry `2k + 1` the bits of `scale` minus `k << 45`.
#[rustfmt::skip]
static TABLE: [u64; 2 * N as usize] = [
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

/// `abstop(2^-54)`: the exponent field below which glibc returns `1 + x`.
const TINY_TOP: u32 = 0x3c9;
/// `abstop(512)`: the exponent field from which glibc takes its slow path.
const LARGE_TOP: u32 = 0x408;
/// `abstop(1024)`: from here glibc returns 0 or ∞ without computing.
const HUGE_TOP: u32 = 0x409;
/// `abstop(∞)`: ±∞ and NaN.
const INF_TOP: u32 = 0x7ff;

/// Inputs on which glibc's FMA and non-FMA `exp` builds differ in the
/// last bit (found by running both over seeded arguments; the non-FMA
/// build is one ulp off on each). The last takes the slow path.
const PROBES: [f64; 9] = [
    -15.934824870084533,
    -2.471983242857836,
    -16.431453870577126,
    -4.936195548657487,
    -3.0238288397335555,
    163.03698682513368,
    -497.4548955675325,
    -11.100481065583697,
    584.3136966378671,
];

/// glibc's FMA-build `exp(x)`. The `mul_add`s are the products that
/// build fuses (`kd`, `r`, `tmp` and the result); every other operation
/// rounds on its own, in glibc's order. Correct on any CPU (`mul_add` is an exact fused
/// operation), fast only where it compiles to an FMA instruction, which
/// [`exp_sub_fma`] arranges. |x| < 2^-54, ±∞ and NaN go to `f64::exp`.
#[inline(always)]
fn exp_fma(x: f64) -> f64 {
    let abstop = (x.to_bits() >> 52) as u32 & 0x7ff;
    let large = abstop.wrapping_sub(TINY_TOP) >= LARGE_TOP - TINY_TOP;
    if large {
        if abstop < TINY_TOP || abstop == INF_TOP {
            return x.exp();
        }
        if abstop >= HUGE_TOP {
            // glibc's underflow (2^-767 · 2^-767) or overflow (2^769 · 2^769).
            return if x < 0.0 { 0.0 } else { f64::INFINITY };
        }
    }
    // x = k·ln2/N + r with integer k = round(x·N/ln2), |r| ≤ ln2/2N.
    let kd = x.mul_add(INV_LN2_N, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = kd.mul_add(NEG_LN2_LO_N, kd.mul_add(NEG_LN2_HI_N, x));
    let idx = 2 * (ki % N) as usize;
    let tail = f64::from_bits(TABLE[idx]);
    let sbits = TABLE[idx + 1].wrapping_add(ki << (52 - TABLE_BITS));
    // exp(x) ≈ scale + scale · (tail + exp(r) − 1).
    let r2 = r * r;
    let tmp = (r2 * r2).mul_add(r.mul_add(C5, C4), r.mul_add(C3, C2).mul_add(r2, r + tail));
    if large {
        return exp_fma_large(tmp, sbits, ki);
    }
    let scale = f64::from_bits(sbits);
    scale.mul_add(tmp, scale)
}

/// glibc's `specialcase` for 512 ≤ |x| < 1024, where `scale`'s exponent
/// may have over- or underflowed: rescale it by 2^-1009 or 2^1022 and
/// round a subnormal result once, not twice. For k > 0 the FMA build
/// fuses `scale + scale·tmp`; for k < 0 it computes `scale·tmp` once,
/// for both `y` and `lo`, and fuses neither.
#[inline(always)]
fn exp_fma_large(tmp: f64, sbits: u64, ki: u64) -> f64 {
    if ki & 0x8000_0000 == 0 {
        // k > 0.
        let scale = f64::from_bits(sbits.wrapping_sub(1009 << 52));
        return f64::from_bits(0x7f00_0000_0000_0000) * scale.mul_add(tmp, scale);
    }
    let scale = f64::from_bits(sbits.wrapping_add(1022 << 52));
    let scaled_tmp = scale * tmp;
    let mut y = scale + scaled_tmp;
    if y < 1.0 {
        let lo = scale - y + scaled_tmp;
        let hi = 1.0 + y;
        let lo = 1.0 - hi + y + lo;
        y = (hi + lo) - 1.0;
        if y == 0.0 {
            // Never −0.
            y = 0.0;
        }
    }
    f64::MIN_POSITIVE * y
}

/// The [`exp_sub_each`] loop over [`exp_fma`], compiled for FMA and AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma,avx2")]
fn exp_sub_fma(xs: &mut [f64], mut acc: f64) -> f64 {
    for x in xs {
        let e = exp_fma(*x);
        *x = e;
        acc -= e;
    }
    acc
}

/// The [`exp_sub_each`] loop over `f64::exp`.
fn exp_sub_libm(xs: &mut [f64], mut acc: f64) -> f64 {
    for x in xs {
        let e = x.exp();
        *x = e;
        acc -= e;
    }
    acc
}

/// Whether [`exp_sub_each`] runs its inline `exp` on this host: the CPU
/// has FMA and AVX2, and `f64::exp` returns the inline bits on inputs
/// where glibc's FMA and non-FMA builds differ. Decided once per process.
pub fn inline_exp_selected() -> bool {
    static SELECTED: OnceLock<bool> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2") {
            return PROBES.iter().all(|&x| {
                let mut inline = [x];
                // SAFETY: the CPU has FMA and AVX2, checked just above.
                unsafe { exp_sub_fma(&mut inline, 0.0) };
                inline[0].to_bits() == std::hint::black_box(x).exp().to_bits()
            });
        }
        false
    })
}

/// Replaces every `x` in `xs` by `exp(x)` and returns `acc` with each
/// result subtracted in order (`acc -= e`, the NDT score's sum). Every
/// result has the bits of `f64::exp` on this host.
pub fn exp_sub_each(xs: &mut [f64], acc: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if inline_exp_selected() {
        // SAFETY: selection implies the CPU has FMA and AVX2.
        return unsafe { exp_sub_fma(xs, acc) };
    }
    exp_sub_libm(xs, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngStreams;
    use std::hint::black_box;

    /// Runs `xs` through [`exp_sub_each`] from `acc = 0.5` and checks
    /// every result and the sum against `f64::exp`, bit for bit.
    fn assert_libm_bits(xs: &[f64], what: &str) {
        let mut out = xs.to_vec();
        let acc = exp_sub_each(&mut out, 0.5);
        let mut want_acc = 0.5;
        for (&x, e) in xs.iter().zip(&out) {
            let want = black_box(x).exp();
            assert_eq!(e.to_bits(), want.to_bits(), "{what}: exp({x:e}) [bits {:#x}]", x.to_bits());
            want_acc -= want;
        }
        assert_eq!(acc.to_bits(), want_acc.to_bits(), "{what}: the sum");
    }

    /// 4 M seeded values per band, checked in batches.
    fn assert_band(name: &str, mut draw: impl FnMut() -> f64) {
        let mut batch = vec![0.0; 1 << 16];
        for round in 0..64 {
            batch.iter_mut().for_each(|x| *x = draw());
            assert_libm_bits(&batch, &format!("{name}, batch {round}"));
        }
    }

    /// Where the inline path is selected this checks it; elsewhere the
    /// plain loop, and the sum in either case.
    #[test]
    fn exp_sub_each_returns_libm_bits_on_seeded_bands() {
        let mut rng = RngStreams::new(0xe4).stream("exp");
        assert_band("NDT [-1100, 0]", || -1100.0 * rng.next_f64());
        assert_band("[-40, 0]", || -40.0 * rng.next_f64());
        // |x| from 2^-71 to 2^-31, across glibc's 2^-54 cut.
        assert_band("tiny", || {
            (rng.next_f64() - 0.5) * 2f64.powi(-30 - rng.uniform_usize(40) as i32)
        });
        assert_band("bit patterns", || f64::from_bits(rng.next_u64()));
        // glibc's slow path, 512 ≤ |x| < 1024: subnormal results from
        // about -708 down, overflow from about 709.8.
        assert_band("±[500, 1100]", || {
            let x = rng.uniform(500.0, 1100.0);
            if rng.next_u64() & 1 == 0 {
                x
            } else {
                -x
            }
        });
        assert_band("subnormal results", || rng.uniform(-746.0, -700.0));
    }

    /// Both sides of every rounding boundary of `k = round(x·N/ln2)`, for
    /// every table slot, in and beyond the first period.
    #[test]
    fn every_table_slot_returns_libm_bits() {
        let mut xs = Vec::new();
        for k in -1024i32..1024 {
            for half in [k as f64, k as f64 + 0.5] {
                let x = half / INV_LN2_N;
                xs.extend([x, x.next_up(), x.next_down(), x.next_up().next_up()]);
            }
        }
        assert!(xs.iter().all(|x| x.abs() < 9.0));
        assert_libm_bits(&xs, "table slots");
    }

    #[test]
    fn specials_return_libm_bits() {
        let tiny = 2f64.powi(-54);
        let mut xs = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE,
            512.0,
            -512.0,
            1024.0,
            -1024.0,
            -745.1332191019411,
            -745.1332191019412,
            -708.3964185322641,
            709.782712893384,
            709.7827128933841,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for edge in [tiny, -tiny, 512.0, -512.0, 1024.0, -1024.0] {
            xs.extend([edge.next_up(), edge.next_down()]);
        }
        for &x in &xs {
            assert_libm_bits(&[x], "special");
        }
        assert_libm_bits(&xs, "specials in one pass");
        assert_libm_bits(&[], "no terms");
    }

    /// glibc's non-FMA build of the same fast path: every product and sum
    /// rounded on its own, in glibc's order.
    fn exp_unfused(x: f64) -> f64 {
        let kd = INV_LN2_N * x + SHIFT;
        let ki = kd.to_bits();
        let kd = kd - SHIFT;
        let r = x + kd * NEG_LN2_HI_N + kd * NEG_LN2_LO_N;
        let idx = 2 * (ki % N) as usize;
        let tail = f64::from_bits(TABLE[idx]);
        let scale = f64::from_bits(TABLE[idx + 1].wrapping_add(ki << (52 - TABLE_BITS)));
        let r2 = r * r;
        let tmp = tail + r + r2 * (C2 + r * C3) + r2 * r2 * (C4 + r * C5);
        scale + scale * tmp
    }

    /// Each probe tells the two glibc builds apart, so a libm that does
    /// not fuse where `exp_fma` does fails the probe.
    #[test]
    fn probes_separate_the_fused_and_unfused_builds() {
        for x in PROBES {
            assert_ne!(exp_fma(x).to_bits(), exp_unfused(x).to_bits(), "{x:e}");
        }
    }

    /// glibc hides its FMA build when told to (`GLIBC_TUNABLES=
    /// glibc.cpu.hwcaps=-AVX2,-FMA`); otherwise an x86-64 glibc host with
    /// FMA and AVX2 must pass the probe, so the equality tests above
    /// check the inline path there, not only the plain loop.
    #[test]
    fn inline_path_is_selected_where_libm_fuses() {
        let hidden = std::env::var("GLIBC_TUNABLES")
            .is_ok_and(|t| t.contains("-FMA") || t.contains("-AVX2"));
        #[cfg(target_arch = "x86_64")]
        let cpu = is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let cpu = false;
        let expected = cfg!(target_env = "gnu") && cpu && !hidden;
        assert_eq!(inline_exp_selected(), expected, "hidden {hidden}, cpu {cpu}");
        if hidden {
            for x in PROBES {
                let libm = black_box(x).exp();
                assert_eq!(libm.to_bits(), exp_unfused(x).to_bits(), "{x:e}");
            }
        }
    }
}
