//! Interacting Multiple Models: mixing CV / CTRV / random-motion UKFs.

use crate::ukf::{MotionModel, NoiseParams, Ukf, STATE_DIM};
use av_geom::{normalize_angle, MatN, VecN};

/// Number of motion models in the bank.
pub const N_MODELS: usize = 3;

/// IMM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ImmParams {
    /// Model transition probability matrix (rows sum to 1): `p[i][j]` is
    /// the probability of switching from model `i` to model `j` between
    /// frames.
    pub transition: [[f64; N_MODELS]; N_MODELS],
    /// Initial model probabilities.
    pub initial_probs: [f64; N_MODELS],
    /// Shared noise intensities.
    pub noise: NoiseParams,
}

impl Default for ImmParams {
    fn default() -> ImmParams {
        ImmParams {
            transition: [[0.90, 0.05, 0.05], [0.05, 0.90, 0.05], [0.10, 0.10, 0.80]],
            initial_probs: [0.4, 0.4, 0.2],
            noise: NoiseParams::default(),
        }
    }
}

/// Combined state estimate across models.
#[derive(Debug, Clone)]
pub struct ImmEstimate {
    /// Combined state `[px, py, v, yaw, yaw_rate]`.
    pub state: VecN,
    /// Combined covariance.
    pub cov: MatN,
    /// Posterior model probabilities `[cv, ctrv, random]`.
    pub model_probs: [f64; N_MODELS],
}

/// The IMM filter bank for one track.
///
/// ```
/// use av_geom::VecN;
/// use av_tracking::{ImmFilter, ImmParams};
///
/// let mut imm = ImmFilter::new(ImmParams::default(), 0.0, 0.0);
/// imm.predict(0.1);
/// imm.update(&VecN::from_slice(&[0.8, 0.0]));
/// let est = imm.estimate();
/// assert_eq!(est.state.len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct ImmFilter {
    params: ImmParams,
    filters: [Ukf; N_MODELS],
    probs: [f64; N_MODELS],
}

const MODELS: [MotionModel; N_MODELS] =
    [MotionModel::ConstantVelocity, MotionModel::ConstantTurnRate, MotionModel::RandomMotion];

/// `acc += (cov + d·dᵀ)·w`, in place, entry by entry: the same roundings
/// as adding the scaled sum of the covariance and the outer product.
fn add_weighted_spread(acc: &mut MatN, cov: &MatN, d: &VecN, w: f64) {
    for r in 0..STATE_DIM {
        for c in 0..STATE_DIM {
            acc[(r, c)] += (cov[(r, c)] + d[r] * d[c]) * w;
        }
    }
}

impl ImmFilter {
    /// Creates a filter bank initialized at a measured position.
    pub fn new(params: ImmParams, px: f64, py: f64) -> ImmFilter {
        let filters = [
            Ukf::new(MODELS[0], params.noise.clone(), px, py),
            Ukf::new(MODELS[1], params.noise.clone(), px, py),
            Ukf::new(MODELS[2], params.noise.clone(), px, py),
        ];
        let probs = params.initial_probs;
        ImmFilter { params, filters, probs }
    }

    /// Current model probabilities.
    pub fn model_probs(&self) -> [f64; N_MODELS] {
        self.probs
    }

    /// The per-model filters (read access, e.g. for gating).
    pub fn filters(&self) -> &[Ukf; N_MODELS] {
        &self.filters
    }

    /// IMM mixing + per-model prediction.
    pub fn predict(&mut self, dt: f64) {
        // Mixing probabilities: μ_{i|j} = p_ij μ_i / c_j.
        let mut c = [0.0f64; N_MODELS];
        for (j, cj) in c.iter_mut().enumerate() {
            for i in 0..N_MODELS {
                *cj += self.params.transition[i][j] * self.probs[i];
            }
        }
        let headings = self.filters.each_ref().map(|f| (f.state()[3].sin(), f.state()[3].cos()));
        let mut mixed: Vec<(VecN, MatN)> = Vec::with_capacity(N_MODELS);
        for (j, &cj) in c.iter().enumerate() {
            let mut mix_state = VecN::zeros(STATE_DIM);
            let mut sin_sum = 0.0;
            let mut cos_sum = 0.0;
            for (i, (sin, cos)) in headings.iter().enumerate() {
                let mu = self.params.transition[i][j] * self.probs[i] / cj.max(1e-12);
                let s = self.filters[i].state();
                for k in [0, 1, 2, 4] {
                    mix_state[k] += mu * s[k];
                }
                sin_sum += mu * sin;
                cos_sum += mu * cos;
            }
            mix_state[3] = sin_sum.atan2(cos_sum);
            let mut mix_cov = MatN::zeros(STATE_DIM, STATE_DIM);
            for i in 0..N_MODELS {
                let mu = self.params.transition[i][j] * self.probs[i] / cj.max(1e-12);
                let mut d = self.filters[i].state() - &mix_state;
                d[3] = normalize_angle(d[3]);
                add_weighted_spread(&mut mix_cov, self.filters[i].covariance(), &d, mu);
            }
            mix_cov.symmetrize();
            mixed.push((mix_state, mix_cov));
        }
        for (j, (state, cov)) in mixed.into_iter().enumerate() {
            self.filters[j].set_state(state, cov);
            self.filters[j].predict(dt);
        }
        self.probs = c;
        let total: f64 = self.probs.iter().sum();
        for p in &mut self.probs {
            *p /= total.max(1e-12);
        }
    }

    /// Ordinary (single-measurement) update of every model; model
    /// probabilities re-weight by likelihood.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ImmFilter::predict`].
    pub fn update(&mut self, z: &VecN) {
        let mut likelihoods = [0.0f64; N_MODELS];
        for (j, f) in self.filters.iter_mut().enumerate() {
            likelihoods[j] = f.update(z).likelihood.max(1e-12);
        }
        self.reweight(&likelihoods);
    }

    /// PDA update: each model receives its own combined innovation and
    /// total association weight; the per-model association likelihoods
    /// re-weight the model probabilities.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ImmFilter::predict`].
    pub fn update_pda(&mut self, per_model: &[(VecN, f64, f64); N_MODELS]) {
        let mut likelihoods = [0.0f64; N_MODELS];
        for ((lk, (innovation, beta_total, likelihood)), j) in
            likelihoods.iter_mut().zip(per_model.iter()).zip(0..N_MODELS)
        {
            *lk = likelihood.max(1e-12);
            if *beta_total > 0.0 {
                let s = self.filters[j]
                    .predicted_measurement()
                    .expect("update requires predict")
                    .1
                    .clone();
                self.filters[j].update_with_innovation(innovation, &s, *beta_total);
            }
        }
        self.reweight(&likelihoods);
    }

    fn reweight(&mut self, likelihoods: &[f64; N_MODELS]) {
        let mut total = 0.0;
        for (p, lk) in self.probs.iter_mut().zip(likelihoods) {
            *p *= lk.max(1e-12);
            total += *p;
        }
        for p in &mut self.probs {
            *p /= total.max(1e-300);
        }
    }

    /// Saves or restores the bank's dynamic state (per-model filters and
    /// model probabilities); parameters are configuration, so a loading
    /// bank must have been built with the same ones.
    pub fn snap(&mut self, s: &mut av_des::Snap<'_>) {
        for f in &mut self.filters {
            f.snap(s);
        }
        s.leaf(&mut self.probs);
    }

    /// The probability-weighted combined estimate.
    pub fn estimate(&self) -> ImmEstimate {
        let mut state = VecN::zeros(STATE_DIM);
        let mut sin_sum = 0.0;
        let mut cos_sum = 0.0;
        for (j, f) in self.filters.iter().enumerate() {
            let s = f.state();
            for k in [0, 1, 2, 4] {
                state[k] += self.probs[j] * s[k];
            }
            sin_sum += self.probs[j] * s[3].sin();
            cos_sum += self.probs[j] * s[3].cos();
        }
        state[3] = sin_sum.atan2(cos_sum);
        let mut cov = MatN::zeros(STATE_DIM, STATE_DIM);
        for (j, f) in self.filters.iter().enumerate() {
            let mut d = f.state() - &state;
            d[3] = normalize_angle(d[3]);
            add_weighted_spread(&mut cov, f.covariance(), &d, self.probs[j]);
        }
        cov.symmetrize();
        ImmEstimate { state, cov, model_probs: self.probs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(imm: &mut ImmFilter, positions: &[(f64, f64)], dt: f64) {
        for &(x, y) in positions {
            imm.predict(dt);
            imm.update(&VecN::from_slice(&[x, y]));
        }
    }

    #[test]
    fn straight_motion_favors_cv_or_ctrv() {
        let mut imm = ImmFilter::new(ImmParams::default(), 0.0, 0.0);
        let track: Vec<(f64, f64)> = (1..50).map(|i| (0.8 * i as f64, 0.0)).collect();
        feed(&mut imm, &track, 0.1);
        let probs = imm.model_probs();
        assert!(
            probs[0] + probs[1] > 0.7,
            "moving target must not look like random motion: {probs:?}"
        );
        let est = imm.estimate();
        assert!((est.state[2] - 8.0).abs() < 1.5, "combined speed {}", est.state[2]);
    }

    #[test]
    fn turning_motion_favors_ctrv_over_cv() {
        // Tight circle: radius 10 m, yaw rate 0.8 rad/s, speed 8 m/s.
        let dt = 0.1;
        let track: Vec<(f64, f64)> = (1..80)
            .map(|i| {
                let theta = 0.8 * dt * i as f64;
                (10.0 * theta.cos() + 10.0, 10.0 * theta.sin())
            })
            .collect();
        let mut imm2 = ImmFilter::new(ImmParams::default(), track[0].0, track[0].1);
        feed(&mut imm2, &track, dt);
        let probs = imm2.model_probs();
        assert!(probs[1] > probs[0], "CTRV should dominate on a turn: {probs:?}");
    }

    #[test]
    fn stationary_clutter_favors_random_motion() {
        let mut imm = ImmFilter::new(ImmParams::default(), 5.0, 5.0);
        // Jitter around a fixed point.
        let track: Vec<(f64, f64)> = (0..40)
            .map(|i| (5.0 + 0.05 * ((i % 3) as f64 - 1.0), 5.0 - 0.05 * ((i % 2) as f64)))
            .collect();
        feed(&mut imm, &track, 0.1);
        let est = imm.estimate();
        assert!(est.state[2].abs() < 1.0, "stationary target speed {}", est.state[2]);
    }

    #[test]
    fn model_probs_always_normalized() {
        let mut imm = ImmFilter::new(ImmParams::default(), 0.0, 0.0);
        let track: Vec<(f64, f64)> = (1..30).map(|i| (i as f64, (i as f64 * 0.3).sin())).collect();
        for &(x, y) in &track {
            imm.predict(0.1);
            imm.update(&VecN::from_slice(&[x, y]));
            let sum: f64 = imm.model_probs().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "probabilities drifted: {sum}");
        }
    }

    #[test]
    fn estimate_covariance_psd() {
        let mut imm = ImmFilter::new(ImmParams::default(), 0.0, 0.0);
        feed(&mut imm, &[(1.0, 0.1), (2.0, 0.2), (3.1, 0.2), (3.9, 0.3)], 0.1);
        let est = imm.estimate();
        assert!(est.cov.is_symmetric(1e-9));
        assert!(est.cov.cholesky().is_some());
    }

    #[test]
    fn combined_position_tracks_input() {
        let mut imm = ImmFilter::new(ImmParams::default(), 0.0, 0.0);
        let track: Vec<(f64, f64)> = (1..40).map(|i| (0.5 * i as f64, 2.0)).collect();
        feed(&mut imm, &track, 0.1);
        let est = imm.estimate();
        assert!((est.state[0] - 19.5).abs() < 0.5);
        assert!((est.state[1] - 2.0).abs() < 0.3);
    }
}
