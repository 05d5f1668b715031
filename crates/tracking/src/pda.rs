//! Probabilistic Data Association: gating and association weights.

use av_geom::{MatN, VecN};

/// PDA parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PdaParams {
    /// Gate threshold on the Mahalanobis distance² (χ², 2 DOF; 9.21 ≈ 99%).
    pub gate: f64,
    /// Probability that the target is detected at all.
    pub detection_prob: f64,
    /// Clutter (false measurement) spatial density, measurements / m².
    pub clutter_density: f64,
}

impl Default for PdaParams {
    fn default() -> PdaParams {
        PdaParams { gate: 9.21, detection_prob: 0.9, clutter_density: 1e-3 }
    }
}

/// A gated measurement with its association weight.
#[derive(Debug, Clone, PartialEq)]
pub struct GatedMeasurement {
    /// Index into the input measurement list.
    pub index: usize,
    /// Innovation (z − ẑ).
    pub innovation: VecN,
    /// Association weight β (sums over gated measurements to ≤ 1; the
    /// remainder is the "no detection" hypothesis).
    pub beta: f64,
    /// Gaussian likelihood of the measurement.
    pub likelihood: f64,
}

/// Gates measurements against a predicted measurement distribution and
/// computes PDA association weights.
///
/// Returns the gated set (possibly empty). The β weights follow the
/// standard parametric PDA with Poisson clutter:
///
/// ```text
/// β_i = L_i / (λ(1 − P_D) + Σ L_j),   L_i = P_D · N(ν_i; 0, S)
/// ```
///
/// Measurements are 2-D positions: each Mahalanobis distance `νᵀ S⁻¹ ν`
/// is computed on scalars, in the order `MatN::mul_vec` and `VecN::dot`
/// sum them, and only a gated measurement gets its innovation `VecN`.
///
/// # Panics
///
/// Panics unless `z_pred` and every measurement have 2 components and
/// `s` is 2×2.
///
/// ```
/// use av_geom::{MatN, VecN};
/// use av_tracking::{gate_measurements, PdaParams};
///
/// let z_pred = VecN::from_slice(&[0.0, 0.0]);
/// let s = MatN::from_diagonal(&[0.25, 0.25]);
/// let measurements = vec![
///     VecN::from_slice(&[0.1, 0.1]),   // inside the gate
///     VecN::from_slice(&[50.0, 50.0]), // far outside
/// ];
/// let gated = gate_measurements(&z_pred, &s, &measurements, &PdaParams::default());
/// assert_eq!(gated.len(), 1);
/// assert_eq!(gated[0].index, 0);
/// ```
pub fn gate_measurements(
    z_pred: &VecN,
    s: &MatN,
    measurements: &[VecN],
    params: &PdaParams,
) -> Vec<GatedMeasurement> {
    assert_eq!((z_pred.len(), s.rows(), s.cols()), (2, 2, 2), "2-D measurements");
    let Some(s_inv) = s.inverse() else { return Vec::new() };
    let det = s.det().max(1e-12);
    let norm = 1.0 / (2.0 * std::f64::consts::PI * det.sqrt());
    let (a, b, c, d) = (s_inv[(0, 0)], s_inv[(0, 1)], s_inv[(1, 0)], s_inv[(1, 1)]);

    let mut gated: Vec<GatedMeasurement> = measurements
        .iter()
        .enumerate()
        .filter_map(|(index, z)| {
            assert_eq!(z.len(), 2, "2-D measurements");
            let (i0, i1) = (z[0] - z_pred[0], z[1] - z_pred[1]);
            // `mul_vec` sums from +0, `dot` (an `f64` `Sum`) from −0.
            let (m0, m1) = (0.0 + a * i0 + b * i1, 0.0 + c * i0 + d * i1);
            let d2 = -0.0 + i0 * m0 + i1 * m1;
            if d2 > params.gate {
                return None;
            }
            let likelihood = params.detection_prob * norm * (-0.5 * d2).exp();
            let innovation = VecN::from_slice(&[i0, i1]);
            Some(GatedMeasurement { index, innovation, beta: 0.0, likelihood })
        })
        .collect();

    let miss_mass = params.clutter_density * (1.0 - params.detection_prob);
    let total: f64 = miss_mass + gated.iter().map(|g| g.likelihood).sum::<f64>();
    for g in &mut gated {
        g.beta = g.likelihood / total.max(1e-300);
    }
    gated
}

/// Combines gated measurements into the PDA effective innovation
/// `ν = Σ β_i ν_i` and the total association weight `Σ β_i`.
pub fn combine_innovations(gated: &[GatedMeasurement]) -> (VecN, f64) {
    if gated.is_empty() {
        return (VecN::zeros(2), 0.0);
    }
    let mut combined = VecN::zeros(gated[0].innovation.len());
    let mut beta_total = 0.0;
    for g in gated {
        combined = &combined + &g.innovation.scaled(g.beta);
        beta_total += g.beta;
    }
    (combined, beta_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VecN, MatN) {
        (VecN::from_slice(&[10.0, 5.0]), MatN::from_diagonal(&[0.5, 0.5]))
    }

    #[test]
    fn gate_excludes_distant_measurements() {
        let (z, s) = setup();
        let ms = vec![
            VecN::from_slice(&[10.2, 5.1]),
            VecN::from_slice(&[13.0, 5.0]), // d² = 9/0.5 = 18 > 9.21
            VecN::from_slice(&[10.0, 4.5]),
        ];
        let gated = gate_measurements(&z, &s, &ms, &PdaParams::default());
        let indices: Vec<usize> = gated.iter().map(|g| g.index).collect();
        assert_eq!(indices, vec![0, 2]);
    }

    #[test]
    fn betas_sum_below_one() {
        let (z, s) = setup();
        let ms = vec![
            VecN::from_slice(&[10.1, 5.0]),
            VecN::from_slice(&[9.9, 5.1]),
            VecN::from_slice(&[10.0, 4.9]),
        ];
        let gated = gate_measurements(&z, &s, &ms, &PdaParams::default());
        let beta_sum: f64 = gated.iter().map(|g| g.beta).sum();
        assert!(beta_sum > 0.5 && beta_sum <= 1.0, "beta sum {beta_sum}");
    }

    #[test]
    fn closest_measurement_gets_highest_beta() {
        let (z, s) = setup();
        let ms = vec![VecN::from_slice(&[11.0, 5.0]), VecN::from_slice(&[10.1, 5.0])];
        let gated = gate_measurements(&z, &s, &ms, &PdaParams::default());
        assert_eq!(gated.len(), 2);
        let near = gated.iter().find(|g| g.index == 1).unwrap();
        let far = gated.iter().find(|g| g.index == 0).unwrap();
        assert!(near.beta > far.beta);
    }

    #[test]
    fn empty_gate_returns_empty() {
        let (z, s) = setup();
        let ms = vec![VecN::from_slice(&[100.0, 100.0])];
        let gated = gate_measurements(&z, &s, &ms, &PdaParams::default());
        assert!(gated.is_empty());
        let (combined, beta) = combine_innovations(&gated);
        assert_eq!(beta, 0.0);
        assert_eq!(combined.len(), 2);
    }

    #[test]
    fn combined_innovation_weighted() {
        let (z, s) = setup();
        let ms = vec![VecN::from_slice(&[10.4, 5.0]), VecN::from_slice(&[9.6, 5.0])];
        let gated = gate_measurements(&z, &s, &ms, &PdaParams::default());
        let (combined, beta_total) = combine_innovations(&gated);
        // Symmetric measurements: innovations cancel.
        assert!(combined[0].abs() < 1e-9);
        assert!(beta_total > 0.0);
    }

    /// The gating expression before scalars: `VecN` innovations through
    /// `mul_vec` and `dot`.
    fn gate_reference(
        z_pred: &VecN,
        s: &MatN,
        measurements: &[VecN],
        params: &PdaParams,
    ) -> Vec<GatedMeasurement> {
        let Some(s_inv) = s.inverse() else { return Vec::new() };
        let det = s.det().max(1e-12);
        let norm = 1.0 / (2.0 * std::f64::consts::PI * det.sqrt());
        let mut gated: Vec<GatedMeasurement> = measurements
            .iter()
            .enumerate()
            .filter_map(|(index, z)| {
                let innovation = z - z_pred;
                let d2 = innovation.dot(&s_inv.mul_vec(&innovation));
                if d2 > params.gate {
                    return None;
                }
                let likelihood = params.detection_prob * norm * (-0.5 * d2).exp();
                Some(GatedMeasurement { index, innovation, beta: 0.0, likelihood })
            })
            .collect();
        let miss_mass = params.clutter_density * (1.0 - params.detection_prob);
        let total: f64 = miss_mass + gated.iter().map(|g| g.likelihood).sum::<f64>();
        for g in &mut gated {
            g.beta = g.likelihood / total.max(1e-300);
        }
        gated
    }

    fn bits(gated: &[GatedMeasurement]) -> Vec<(usize, Vec<u64>, u64, u64)> {
        gated
            .iter()
            .map(|g| {
                let innovation = g.innovation.as_slice().iter().map(|v| v.to_bits()).collect();
                (g.index, innovation, g.beta.to_bits(), g.likelihood.to_bits())
            })
            .collect()
    }

    /// Seeded predictions and measurements, near and far, with exactly
    /// zero and negative-zero innovations among them, and covariances
    /// both symmetric and not.
    #[test]
    fn scalar_gate_matches_the_vecn_expression() {
        let mut rng = av_des::RngStreams::new(0x9a7e).stream("gate");
        let params = PdaParams::default();
        for round in 0..2000 {
            let z_pred = VecN::from_slice(&[rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)]);
            let (sxx, syy) = (rng.uniform(0.01, 4.0), rng.uniform(0.01, 4.0));
            let sxy = rng.uniform(-0.9, 0.9) * (sxx * syy).sqrt();
            let syx = if round % 3 == 0 { sxy + rng.uniform(-0.01, 0.01) } else { sxy };
            let mut s = MatN::from_diagonal(&[sxx, syy]);
            (s[(0, 1)], s[(1, 0)]) = (sxy, syx);
            let measurements: Vec<VecN> = (0..rng.uniform_usize(12))
                .map(|_| match rng.uniform_usize(5) {
                    0 => z_pred.clone(),
                    1 => VecN::from_slice(&[z_pred[0], z_pred[1] + rng.uniform(-1.0, 1.0)]),
                    2 => VecN::from_slice(&[rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)]),
                    _ => VecN::from_slice(&[
                        z_pred[0] + rng.normal(0.0, sxx.sqrt()),
                        z_pred[1] + rng.normal(0.0, syy.sqrt()),
                    ]),
                })
                .collect();
            let want = gate_reference(&z_pred, &s, &measurements, &params);
            let got = gate_measurements(&z_pred, &s, &measurements, &params);
            assert_eq!(bits(&got), bits(&want), "round {round}");
        }
        // Negative-zero predictions against positive-zero measurements.
        let z_pred = VecN::from_slice(&[-0.0, -0.0]);
        let s = MatN::from_diagonal(&[0.5, 0.5]);
        let measurements = vec![VecN::from_slice(&[0.0, -0.0]), VecN::from_slice(&[-0.0, 0.0])];
        assert_eq!(
            bits(&gate_measurements(&z_pred, &s, &measurements, &params)),
            bits(&gate_reference(&z_pred, &s, &measurements, &params))
        );
    }

    #[test]
    fn singular_s_returns_empty() {
        let z = VecN::from_slice(&[0.0, 0.0]);
        let s = MatN::zeros(2, 2);
        let ms = vec![VecN::from_slice(&[0.0, 0.0])];
        assert!(gate_measurements(&z, &s, &ms, &PdaParams::default()).is_empty());
    }
}
