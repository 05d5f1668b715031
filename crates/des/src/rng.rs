//! Named, independently seeded random streams.
//!
//! Every stochastic component of the simulation (sensor noise, detection
//! noise, cost-model jitter) draws from its own named stream derived from a
//! single master seed. Adding a new consumer of randomness therefore never
//! perturbs the draws seen by existing consumers — runs stay comparable
//! across code changes, the virtual-time analogue of replaying one ROSBAG.
//!
//! The generator is an in-house PCG32 (PCG-XSH-RR 64/32, O'Neill 2014):
//! 64-bit LCG state advanced per draw, output permuted by an
//! xorshift-high + random rotate. No external crates — the build stays
//! hermetic and the streams are stable across toolchains forever.
//!
//! Stream-stability note: replacing the previous `rand::SmallRng` wrapper
//! changed every stream's draw sequence exactly once (at the swap). All
//! golden values derived from run outputs were re-baselined then; from now
//! on the sequences are frozen by this file alone.

/// Factory for named random streams.
///
/// ```
/// use av_des::RngStreams;
/// let streams = RngStreams::new(42);
/// let mut a1 = streams.stream("lidar");
/// let mut a2 = RngStreams::new(42).stream("lidar");
/// assert_eq!(a1.next_f64(), a2.next_f64()); // same seed + name => same draws
/// ```
#[derive(Debug, Clone)]
pub struct RngStreams {
    master_seed: u64,
}

/// A deterministic random stream (in-house PCG32).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRng {
    state: u64,
    inc: u64,
    // State for the Box-Muller spare value.
    gauss_spare: Option<f64>,
}

impl RngStreams {
    /// Creates a factory with the given master seed.
    pub fn new(master_seed: u64) -> RngStreams {
        RngStreams { master_seed }
    }

    /// The master seed this factory derives all streams from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Returns the stream for `name`. The same `(master_seed, name)` pair
    /// always yields an identical sequence.
    pub fn stream(&self, name: &str) -> StreamRng {
        // FNV-1a over the name, mixed with the master seed via splitmix64.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let seed = splitmix64(self.master_seed ^ h);
        StreamRng::seed_from_u64(seed)
    }
}

/// The splitmix64 finalizer: a bijective 64-bit mix whose every output
/// bit depends on every input bit.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const PCG_MULT: u64 = 6364136223846793005;

impl StreamRng {
    /// Creates a stream from a 64-bit seed (state and increment both
    /// derived through splitmix64 so correlated seeds decohere).
    pub fn seed_from_u64(seed: u64) -> StreamRng {
        let state_seed = splitmix64(seed);
        // The increment must be odd for the LCG to have full period.
        let inc = splitmix64(seed ^ 0xda3e_39cb_94b9_5bdb) | 1;
        let mut rng = StreamRng { state: 0, inc, gauss_spare: None };
        // Standard PCG init: advance once, add the seed, advance again.
        rng.next_u32();
        rng.state = rng.state.wrapping_add(state_seed);
        rng.next_u32();
        rng
    }

    /// Next raw 32-bit output (PCG-XSH-RR).
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next raw 64-bit output (two PCG32 draws).
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform requires lo < hi");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer draw in `[0, n)` (Lemire's unbiased multiply-shift
    /// rejection method over 64-bit draws).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize requires n > 0");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            // Reject the partial final stripe to stay exactly uniform.
            if lo >= n.wrapping_neg() % n {
                return hi as usize;
            }
        }
    }

    /// Standard normal draw (Box-Muller).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(spare) = self.gauss_spare.take() {
            return spare;
        }
        loop {
            let u = self.next_f64();
            let v = self.next_f64();
            if u > f64::EPSILON {
                let r = (-2.0 * u.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * v;
                self.gauss_spare = Some(r * theta.sin());
                return r * theta.cos();
            }
        }
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Log-normal draw parameterized by the *underlying* normal's mean `mu`
    /// and standard deviation `sigma`.
    ///
    /// Per-frame node latencies in the characterization use log-normal
    /// jitter: strictly positive, right-skewed — matching the violin shapes
    /// in the paper's Fig 5.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Saves or restores the complete generator state (LCG state, stream
    /// increment, Box-Muller spare) for checkpointing. A restored stream
    /// continues the exact draw sequence of the original.
    pub fn snap(&mut self, s: &mut crate::Snap<'_>) {
        s.u64(&mut self.state);
        s.u64(&mut self.inc);
        s.opt(&mut self.gauss_spare, crate::Snap::f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RngStreams::new(7).stream("x");
        let mut b = RngStreams::new(7).stream("x");
        for _ in 0..100 {
            assert_eq!(a.next_f64(), b.next_f64());
        }
    }

    #[test]
    fn different_names_differ() {
        let streams = RngStreams::new(7);
        let mut a = streams.stream("x");
        let mut b = streams.stream("y");
        let same = (0..32).filter(|_| a.next_f64() == b.next_f64()).count();
        assert!(same < 2);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStreams::new(1).stream("x");
        let mut b = RngStreams::new(2).stream("x");
        let same = (0..32).filter(|_| a.next_f64() == b.next_f64()).count();
        assert!(same < 2);
    }

    #[test]
    fn pcg_reference_vector() {
        // PCG-XSH-RR 64/32 with the reference demo parameters:
        // state = 0x185706b82c2e03f8, inc = (54 << 1) | 1 produces the
        // published first outputs of the pcg32 global demo.
        let mut rng = StreamRng { state: 0x185706b82c2e03f8, inc: 109, gauss_spare: None };
        let expected: [u32; 6] =
            [0xa15c02b7, 0x7b47f409, 0xba1d3330, 0x83d2f293, 0xbfa4784b, 0xcbed606e];
        for want in expected {
            assert_eq!(rng.next_u32(), want);
        }
    }

    #[test]
    fn next_f64_stays_in_unit_interval() {
        let mut rng = RngStreams::new(5).stream("unit");
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = RngStreams::new(3).stream("u");
        for _ in 0..1000 {
            let v = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
        }
        for _ in 0..100 {
            assert!(rng.uniform_usize(10) < 10);
        }
    }

    #[test]
    fn uniform_usize_covers_all_values() {
        let mut rng = RngStreams::new(9).stream("cover");
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.uniform_usize(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = RngStreams::new(11).stream("g");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn log_normal_is_positive_and_skewed() {
        let mut rng = RngStreams::new(13).stream("ln");
        let samples: Vec<f64> = (0..5000).map(|_| rng.log_normal(0.0, 0.5)).collect();
        assert!(samples.iter().all(|&s| s > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[samples.len() / 2];
        assert!(mean > median, "log-normal should be right-skewed");
    }

    #[test]
    fn chance_estimates_probability() {
        let mut rng = RngStreams::new(17).stream("c");
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_invalid_range_panics() {
        let _ = RngStreams::new(1).stream("p").uniform(1.0, 1.0);
    }
}
