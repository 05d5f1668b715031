//! NDT scan matching — the `ndt_matching` node.
//!
//! Matches a (voxel-filtered) LiDAR sweep against the HD map's NDT grid by
//! maximizing the sum of per-point Gaussian likelihoods with damped Newton
//! iterations, following Magnusson's P2D-NDT formulation that PCL (and
//! therefore Autoware) implements. The pose is optimized over the planar
//! parameters `(x, y, yaw)` — the drive is planar, and the vertical DOF
//! would be unconstrained by it; the substitution is documented in
//! DESIGN.md.
//!
//! Alignments work in an [`NdtWorkspace`]: the DIRECT7 cells of every
//! key the scans meet, packed into one arena, and per scan point the key
//! and arena span it landed in. The `ndt_matching` node keeps one across
//! scans; [`NdtMatcher::align`] starts a fresh one. Trial poses are
//! scored on the objective alone, in two passes: the first records each
//! point-cell term's exponent, the second replaces every exponent by its
//! `exp` and sums them (a loop with no other work, where `exp` can run
//! inline, see `av_des::exp_sub_each`). Only at poses the loop goes on
//! from does `derivatives` walk the points again through the memo for
//! the gradient and Hessian. Both paths use the arithmetic of the
//! retained one-pass `evaluate_reference`, in its order, and equal it
//! bit for bit.

use av_geom::{Mat3, Pose, Vec3};
use av_pointcloud::{CellMap, NdtGrid, PointCloud};
use std::sync::Arc;

/// NDT optimization parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NdtParams {
    /// Maximum Newton iterations per match.
    pub max_iterations: u32,
    /// Convergence threshold on the translation step, meters.
    pub translation_eps: f64,
    /// Convergence threshold on the rotation step, radians.
    pub rotation_eps: f64,
    /// Initial Levenberg damping added to the Hessian diagonal.
    pub initial_damping: f64,
}

impl Default for NdtParams {
    fn default() -> NdtParams {
        NdtParams {
            max_iterations: 30,
            translation_eps: 1e-3,
            rotation_eps: 1e-4,
            initial_damping: 1e-3,
        }
    }
}

/// Outcome of one scan match.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// The aligned pose (body → map).
    pub pose: Pose,
    /// Mean summed neighbourhood likelihood per matched point (higher is
    /// better; can exceed 1 since up to 7 cells contribute per point).
    pub fitness: f64,
    /// Newton iterations executed — the dominant term of the node's
    /// latency, which is why the cost model consumes it.
    pub iterations: u32,
    /// Whether the step sizes fell below the convergence thresholds.
    pub converged: bool,
    /// Scan points that landed in populated NDT cells (at the final pose).
    pub matched_points: usize,
}

/// The NDT scan matcher. Holds the map grid (shared: the map is
/// read-only, so every matcher over one map can hold the same grid);
/// [`NdtMatcher::align`] is called per sweep with the previous pose as
/// the initial guess.
///
/// See `tests` for an end-to-end alignment example.
#[derive(Debug, Clone)]
pub struct NdtMatcher {
    grid: Arc<NdtGrid>,
    params: NdtParams,
}

/// The full objective at one pose, as the reference oracle computes it in
/// one pass. Outside tests only `f` and `matched` are read (by
/// [`NdtMatcher::score_at`]); the tests check `g` and `h`.
#[cfg_attr(not(test), allow(dead_code))]
struct Objective {
    /// Negative sum of Gaussian scores (we minimize).
    f: f64,
    g: Vec3,
    h: Mat3,
    matched: usize,
}

/// The objective value at one pose, without derivatives.
struct Score {
    /// Negative sum of Gaussian scores (we minimize).
    f: f64,
    matched: usize,
}

/// One map cell as the Newton loop reads it: an
/// [`NdtCell`](av_pointcloud::NdtCell)'s mean and inverse covariance, 96
/// contiguous bytes.
#[derive(Clone, Copy)]
struct PackedCell {
    mean: Vec3,
    inv_cov: Mat3,
}

/// Where a key's DIRECT7 neighbourhood sits in [`NdtWorkspace::arena`].
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A scan point's cell key at one pose and its key's arena span.
#[derive(Clone, Copy)]
struct Memo {
    key: (i32, i32, i32),
    span: Span,
}

/// Packed cells an [`NdtWorkspace`] keeps between alignments: about 1.5
/// MB of arena. Past it, the next alignment starts from an empty cache.
const CACHED_CELLS_CAP: usize = 16 * 1024;

/// Keys an [`NdtWorkspace`] keeps between alignments (keys with no cell
/// around them take no arena).
const CACHED_KEYS_CAP: usize = 16 * 1024;

/// The working memory of [`NdtMatcher::align_with`], a cache of map
/// cells that one matcher may keep across alignments.
///
/// Newton iterations move the pose by millimeters while the grid cells
/// are meters wide, and consecutive sweeps cover almost the same ground,
/// so successive scores meet the same keys again and again. Each key's
/// DIRECT7 neighbourhood is copied once into `arena`, packed, in DIRECT7
/// offset order, so a scored point reads its cells from one contiguous
/// run and accumulates them in exactly the uncached order
/// (bit-identical). Every scan point memoizes its key and span; a point
/// still in its cell skips the hash probe. A key's span depends on the
/// key alone, so a memo left by another scan is as good as a probe.
///
/// Each term `score` meets records only its Gaussian `e`. The memo and
/// the terms come in two buffers: `score` fills the trial ones, and
/// [`accept`](NdtWorkspace::accept) swaps them in, so a rejected trial
/// leaves the accepted pose's memo and terms for [`derivatives`].
///
/// The workspace only caches: results never depend on what it holds, so
/// it is not part of any checkpoint.
#[derive(Default)]
pub struct NdtWorkspace {
    /// The DIRECT7 cells of every key met so far.
    arena: Vec<PackedCell>,
    /// Each met key's span of `arena`.
    spans: CellMap<Span>,
    /// Per scan point, at the accepted pose.
    memo: Vec<Memo>,
    /// `e` of every point-cell term at the accepted pose, in score order.
    terms: Vec<f64>,
    /// Per scan point, at the pose scored last.
    trial_memo: Vec<Memo>,
    /// The terms of the pose scored last: each term's exponent after
    /// `score`'s first pass, its `e` after the second.
    trial_terms: Vec<f64>,
}

impl NdtWorkspace {
    /// Packed map cells held, the cache's size.
    pub fn cached_cells(&self) -> usize {
        self.arena.len()
    }

    /// Empties the cache once it outgrew its caps. Spans index the
    /// arena, so the memos go with it.
    fn trim(&mut self) {
        if self.arena.len() > CACHED_CELLS_CAP || self.spans.len() > CACHED_KEYS_CAP {
            self.arena.clear();
            self.spans.clear();
            self.memo.clear();
            self.trial_memo.clear();
        }
    }

    /// The span of `key`'s DIRECT7 cells, packing them on first use.
    fn span(&mut self, grid: &NdtGrid, key: (i32, i32, i32)) -> Span {
        let arena = &mut self.arena;
        *self.spans.entry(key).or_insert_with(|| {
            let start = arena.len();
            arena.extend(
                grid.cells_around_key(key).map(|c| PackedCell { mean: c.mean, inv_cov: c.inv_cov }),
            );
            Span { start: start as u32, len: (arena.len() - start) as u32 }
        })
    }

    /// Makes the pose scored last the accepted one.
    fn accept(&mut self) {
        std::mem::swap(&mut self.memo, &mut self.trial_memo);
        std::mem::swap(&mut self.terms, &mut self.trial_terms);
    }
}

/// Gradient and Hessian of the objective at the accepted pose `(x, y,
/// yaw)` of `ws`. The scan points are transformed again and each term's
/// `B·d` recomputed from the memoized cells, with the expressions
/// [`NdtMatcher::score`] used, so they are the very values it saw; `e`
/// comes from its record. Terms are visited in recording order, which is
/// the reference's accumulation order, and each entry is the reference's
/// expression with the unit Jacobian columns `j_x = X` and `j_y = Y`
/// substituted: `v·X = v.x` exactly for finite `v`, and dropping the `0·z`
/// summands can at most flip the sign of an exact zero, which the
/// accumulators (starting at `+0`, so never `−0`) absorb. The Jacobian of
/// the transformed point has no z component, so only the XY parts of
/// `B·d` and the XY block of `B` enter. The result therefore equals
/// [`NdtMatcher::evaluate_reference`]'s bit for bit.
fn derivatives(scan: &PointCloud, x: f64, y: f64, yaw: f64, ws: &NdtWorkspace) -> (Vec3, Mat3) {
    let (sin_t, cos_t) = yaw.sin_cos();
    let mut g = Vec3::ZERO;
    let mut h = Mat3::ZERO;
    let mut terms = ws.terms.iter();
    for (p, memo) in scan.positions().zip(&ws.memo) {
        let rx = cos_t * p.x - sin_t * p.y;
        let ry = sin_t * p.x + cos_t * p.y;
        let q = Vec3::new(rx + x, ry + y, p.z);
        for cell in &ws.arena[memo.span.range()] {
            let e = *terms.next().expect("a recorded term per memoized cell");
            let bd = cell.inv_cov * (q - cell.mean);
            let (bdx, bdy) = (bd.x, bd.y);
            let [[b00, b01, _], [b10, b11, _], _] = cell.inv_cov.m;
            // d·B·Jρ for ρ = x, y, yaw; the yaw column is j_t = (−ry, rx, 0).
            let dbj = [bdx, bdy, bdx * -ry + bdy * rx];
            g += Vec3::new(dbj[0], dbj[1], dbj[2]) * e;
            // Jc·B·Jr: B·j_t's XY part, then the 3×3 table of dot products.
            let bt = [b00 * -ry + b01 * rx, b10 * -ry + b11 * rx];
            let jbj = [
                [b00, b10, -ry * b00 + rx * b10],
                [b01, b11, -ry * b01 + rx * b11],
                [bt[0], bt[1], -ry * bt[0] + rx * bt[1]],
            ];
            for r in 0..3 {
                for c in 0..3 {
                    let mut term = jbj[r][c] - dbj[r] * dbj[c];
                    if r == 2 && c == 2 {
                        // d·B·∂²q with ∂²q/∂yaw² = −R·p.
                        term += bdx * -rx + bdy * -ry;
                    }
                    h.m[r][c] += e * term;
                }
            }
        }
    }
    (g, h)
}

impl NdtMatcher {
    /// Creates a matcher over a map grid, owned or shared.
    pub fn new(grid: impl Into<Arc<NdtGrid>>, params: NdtParams) -> NdtMatcher {
        NdtMatcher { grid: grid.into(), params }
    }

    /// The map grid.
    pub fn grid(&self) -> &NdtGrid {
        &self.grid
    }

    /// Matcher parameters.
    pub fn params(&self) -> &NdtParams {
        &self.params
    }

    /// The objective at `(x, y, yaw)`, filling `ws`'s trial memo and
    /// terms for a later [`NdtWorkspace::accept`] and [`derivatives`].
    /// Most Newton trial steps are rejected on `f` alone, so they never
    /// pay for derivatives. The first pass records each term's exponent,
    /// the second takes their `exp`s and sums `f -= e` in the same order.
    fn score(&self, scan: &PointCloud, x: f64, y: f64, yaw: f64, ws: &mut NdtWorkspace) -> Score {
        let (sin_t, cos_t) = yaw.sin_cos();
        let mut matched = 0usize;
        ws.trial_memo.clear();
        ws.trial_terms.clear();
        for (i, p) in scan.positions().enumerate() {
            let rx = cos_t * p.x - sin_t * p.y;
            let ry = sin_t * p.x + cos_t * p.y;
            let q = Vec3::new(rx + x, ry + y, p.z);
            let key = self.grid.key_of(q);
            let span = match ws.memo.get(i) {
                Some(memo) if memo.key == key => memo.span,
                _ => ws.span(&self.grid, key),
            };
            ws.trial_memo.push(Memo { key, span });
            for cell in &ws.arena[span.range()] {
                let d = q - cell.mean;
                ws.trial_terms.push(-0.5 * d.dot(cell.inv_cov * d));
            }
            if span.len > 0 {
                matched += 1;
            }
        }
        let f = av_des::exp_sub_each(&mut ws.trial_terms, 0.0);
        Score { f, matched }
    }

    /// Uncached one-pass reference evaluation: the objective, gradient and
    /// Hessian, computed with a fresh DIRECT7 grid probe per point and the
    /// full Jacobian products. Retained as the oracle the split
    /// [`score`](NdtMatcher::score) + [`derivatives`] path is checked
    /// against (the property test compares them bit for bit), and as the
    /// implementation that path must keep matching through future
    /// refactors. Accumulation order is the same — `cells_around` order —
    /// so agreement is exact, not approximate.
    fn evaluate_reference(
        &self,
        scan: &PointCloud,
        x: f64,
        y: f64,
        yaw: f64,
        with_derivs: bool,
    ) -> Objective {
        let (sin_t, cos_t) = yaw.sin_cos();
        let mut f = 0.0;
        let mut g = Vec3::ZERO;
        let mut h = Mat3::ZERO;
        let mut matched = 0usize;
        for p in scan.positions() {
            let rx = cos_t * p.x - sin_t * p.y;
            let ry = sin_t * p.x + cos_t * p.y;
            let q = Vec3::new(rx + x, ry + y, p.z);
            let j_t = Vec3::new(-ry, rx, 0.0);
            let d2 = Vec3::new(-rx, -ry, 0.0);
            let mut any_cell = false;
            for cell in self.grid.cells_around(q) {
                any_cell = true;
                let d = q - cell.mean;
                let bd = cell.inv_cov * d;
                let md = d.dot(bd);
                let e = (-0.5 * md).exp();
                f -= e;
                if !with_derivs {
                    continue;
                }
                let j_x = Vec3::X;
                let j_y = Vec3::Y;
                let dbj = Vec3::new(bd.dot(j_x), bd.dot(j_y), bd.dot(j_t));
                g += dbj * e;
                let js = [j_x, j_y, j_t];
                for r in 0..3 {
                    let bjr = cell.inv_cov * js[r];
                    for c in 0..3 {
                        let mut term = js[c].dot(bjr) - dbj[r] * dbj[c];
                        if r == 2 && c == 2 {
                            term += bd.dot(d2);
                        }
                        h.m[r][c] += e * term;
                    }
                }
            }
            if any_cell {
                matched += 1;
            }
        }
        Objective { f, g, h, matched }
    }

    /// The objective value (negative summed Gaussian score) and matched
    /// point count of `scan` at `pose`, without running any optimization —
    /// computed by the uncached reference path. Useful for scoring
    /// candidate poses externally.
    pub fn score_at(&self, scan: &PointCloud, pose: &Pose) -> (f64, usize) {
        let obj = self.evaluate_reference(
            scan,
            pose.translation.x,
            pose.translation.y,
            pose.yaw(),
            false,
        );
        (obj.f, obj.matched)
    }

    /// Aligns `scan` (body frame) to the map starting from `initial_guess`.
    ///
    /// Sweeps that match no populated cell at all return the initial guess
    /// with `fitness = 0` and `converged = false`.
    pub fn align(&self, scan: &PointCloud, initial_guess: &Pose) -> MatchResult {
        self.align_with(scan, initial_guess, &mut NdtWorkspace::default())
    }

    /// [`align`](NdtMatcher::align) through a workspace kept across
    /// alignments (over this matcher's grid only): the result is the
    /// same, bit for bit, but map cells packed for earlier scans are
    /// reused.
    pub fn align_with(
        &self,
        scan: &PointCloud,
        initial_guess: &Pose,
        ws: &mut NdtWorkspace,
    ) -> MatchResult {
        let mut x = initial_guess.translation.x;
        let mut y = initial_guess.translation.y;
        let mut yaw = initial_guess.yaw();
        let mut damping = self.params.initial_damping;

        ws.trim();
        let mut current = self.score(scan, x, y, yaw, ws);
        ws.accept();
        let mut iterations = 0u32;
        let mut converged = false;

        while iterations < self.params.max_iterations {
            iterations += 1;
            if current.matched == 0 {
                break;
            }
            // Derivatives only at poses the loop goes on from: the start
            // and accepted steps, never rejected trials.
            let (g, h) = derivatives(scan, x, y, yaw, ws);
            // Solve (H + λI) Δ = −g, inflating λ until the step descends.
            // The gradient is exact, so a large enough λ always yields a
            // descent direction; 16 doublings-of-magnitude cover Hessians
            // dominated by razor-thin wall/ground Gaussians (σ ≈ 2 cm).
            let mut stepped = false;
            for _ in 0..16 {
                let mut damped = h;
                for i in 0..3 {
                    damped.m[i][i] += damping;
                }
                let Some(inv) = damped.inverse() else {
                    damping *= 10.0;
                    continue;
                };
                let step = inv * (-g);
                let (nx, ny, nyaw) = (x + step.x, y + step.y, yaw + step.z);
                let next = self.score(scan, nx, ny, nyaw, ws);
                if next.f < current.f {
                    x = nx;
                    y = ny;
                    yaw = nyaw;
                    current = next;
                    ws.accept();
                    damping = (damping / 3.0).max(1e-9);
                    stepped = true;
                    if step.truncate().norm() < self.params.translation_eps
                        && step.z.abs() < self.params.rotation_eps
                    {
                        converged = true;
                    }
                    break;
                }
                damping *= 10.0;
            }
            if !stepped || converged {
                converged = converged || !stepped && g.norm() < 1e-6;
                break;
            }
        }

        // `current` was scored at the final pose already.
        let fitness = if current.matched == 0 { 0.0 } else { -current.f / current.matched as f64 };
        MatchResult {
            pose: Pose::planar(x, y, yaw),
            fitness,
            iterations,
            converged,
            matched_points: current.matched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::RngStreams;
    use av_pointcloud::NdtGrid;

    /// A structured scene: ground patch plus two perpendicular walls —
    /// enough geometry to pin down (x, y, yaw).
    fn scene_points(rng_name: &str, n_per_surface: usize) -> PointCloud {
        let mut rng = RngStreams::new(42).stream(rng_name);
        let mut cloud = PointCloud::new();
        for _ in 0..n_per_surface {
            // Ground z≈0 over [0,20]×[0,20].
            cloud.push(av_pointcloud::Point::new(
                rng.uniform(0.0, 20.0),
                rng.uniform(0.0, 20.0),
                rng.normal(0.0, 0.02),
            ));
            // Wall x≈20.
            cloud.push(av_pointcloud::Point::new(
                20.0 + rng.normal(0.0, 0.02),
                rng.uniform(0.0, 20.0),
                rng.uniform(0.0, 4.0),
            ));
            // Wall y≈20.
            cloud.push(av_pointcloud::Point::new(
                rng.uniform(0.0, 20.0),
                20.0 + rng.normal(0.0, 0.02),
                rng.uniform(0.0, 4.0),
            ));
        }
        cloud
    }

    fn matcher() -> NdtMatcher {
        let map = scene_points("map", 800);
        let grid = NdtGrid::build(&map, 2.0, 6);
        NdtMatcher::new(grid, NdtParams::default())
    }

    /// Takes map-frame points, moves them into the body frame of `pose`.
    fn to_body(cloud: &PointCloud, pose: &Pose) -> PointCloud {
        cloud.transformed(&pose.inverse())
    }

    #[test]
    fn recovers_known_offset() {
        let m = matcher();
        let true_pose = Pose::planar(0.4, -0.3, 0.05);
        let scan = to_body(&scene_points("scan", 150), &true_pose);
        let result = m.align(&scan, &Pose::planar(0.0, 0.0, 0.0));
        let err = result.pose.translation.distance(true_pose.translation);
        assert!(err < 0.05, "translation error {err}, pose {:?}", result.pose);
        assert!((result.pose.yaw() - 0.05).abs() < 0.01);
        assert!(result.matched_points > 100);
        assert!(result.fitness > 0.3, "fitness {}", result.fitness);
    }

    #[test]
    fn perfect_guess_converges_quickly() {
        let m = matcher();
        let true_pose = Pose::planar(1.0, 2.0, -0.1);
        let scan = to_body(&scene_points("scan2", 150), &true_pose);
        let from_truth = m.align(&scan, &true_pose);
        let from_far = m.align(&scan, &Pose::planar(0.2, 1.2, 0.0));
        assert!(from_truth.iterations <= from_far.iterations);
        assert!(from_truth.converged);
    }

    #[test]
    fn iterations_bounded_by_max() {
        let params = NdtParams { max_iterations: 3, ..NdtParams::default() };
        let map = scene_points("map", 400);
        let m = NdtMatcher::new(NdtGrid::build(&map, 2.0, 6), params);
        let scan = to_body(&scene_points("scan3", 100), &Pose::planar(0.8, 0.8, 0.1));
        let result = m.align(&scan, &Pose::IDENTITY);
        assert!(result.iterations <= 3);
    }

    #[test]
    fn unmatched_scan_returns_guess() {
        let m = matcher();
        // A scan entirely outside the map.
        let scan =
            PointCloud::from_positions((0..50).map(|i| Vec3::new(500.0 + i as f64, 500.0, 0.0)));
        let guess = Pose::planar(1.0, 1.0, 0.2);
        let result = m.align(&scan, &guess);
        assert_eq!(result.pose.translation, guess.translation);
        assert_eq!(result.fitness, 0.0);
        assert!(!result.converged);
        assert_eq!(result.matched_points, 0);
    }

    #[test]
    fn fitness_degrades_with_misalignment() {
        let m = matcher();
        let scan = to_body(&scene_points("scan4", 150), &Pose::IDENTITY);
        let aligned = m.align(&scan, &Pose::IDENTITY);
        // Evaluate fitness at a deliberately wrong pose: restrict to zero
        // iterations so it cannot correct.
        let params = NdtParams { max_iterations: 0, ..NdtParams::default() };
        let frozen = NdtMatcher::new(m.grid().clone(), params);
        let wrong = frozen.align(&scan, &Pose::planar(1.5, 1.5, 0.2));
        assert!(aligned.fitness > wrong.fitness);
    }

    fn vec_bits(v: Vec3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    fn mat_bits(m: Mat3) -> [[u64; 3]; 3] {
        m.m.map(|row| row.map(f64::to_bits))
    }

    /// A workspace reused across many evaluations at drifting poses
    /// returns bit-identical objectives to a fresh one *and* to the
    /// retained one-pass reference — packed neighbourhoods never go stale
    /// (they depend only on the integer cell key), and `score` +
    /// `derivatives` accumulate in exactly the reference order, with the
    /// unit Jacobian columns substituted exactly. Every pose is accepted,
    /// as `align` accepts a descending step; before every other one a
    /// trial a cell or more away is scored and rejected, moving points
    /// across cell boundaries, and the accepted pose's memo and terms
    /// must come through it untouched.
    #[test]
    fn cached_direct7_matches_fresh_lookups() {
        let m = matcher();
        let scan = to_body(&scene_points("cachepin", 150), &Pose::planar(0.3, -0.2, 0.04));
        let pose = |step: usize| (0.05 * step as f64, -0.03 * step as f64, 0.004 * step as f64);
        let check_derivatives = |ws: &NdtWorkspace, (x, y, yaw): (f64, f64, f64), what: &str| {
            let r = m.evaluate_reference(&scan, x, y, yaw, true);
            let (g, h) = derivatives(&scan, x, y, yaw, ws);
            assert_eq!(vec_bits(g), vec_bits(r.g), "reference gradient, {what}");
            assert_eq!(mat_bits(h), mat_bits(r.h), "reference Hessian, {what}");
            (g, h)
        };
        let mut persistent = NdtWorkspace::default();
        for step in 0..12 {
            if step % 2 == 1 {
                let (x, y, yaw) = pose(step);
                let accepted: Vec<_> = persistent.memo.iter().map(|memo| memo.key).collect();
                m.score(&scan, x + 2.7, y - 1.9, yaw + 0.2, &mut persistent);
                let moved = (persistent.trial_memo.iter().zip(&accepted))
                    .filter(|(trial, &key)| trial.key != key)
                    .count();
                assert!(moved > 100, "step {step}: {moved} points changed cells");
                check_derivatives(&persistent, pose(step - 1), &format!("rejected {step}"));
            }
            let (x, y, yaw) = pose(step);
            let a = m.score(&scan, x, y, yaw, &mut persistent);
            persistent.accept();
            let mut fresh = NdtWorkspace::default();
            let b = m.score(&scan, x, y, yaw, &mut fresh);
            fresh.accept();
            let r = m.evaluate_reference(&scan, x, y, yaw, true);
            assert_eq!(a.f.to_bits(), b.f.to_bits(), "step {step}");
            assert_eq!(a.matched, b.matched);
            assert_eq!(a.f.to_bits(), r.f.to_bits(), "reference f, step {step}");
            assert_eq!(a.matched, r.matched, "reference match count, step {step}");
            let (g, h) = check_derivatives(&persistent, pose(step), &format!("step {step}"));
            let (g_fresh, h_fresh) = derivatives(&scan, x, y, yaw, &fresh);
            assert_eq!(vec_bits(g), vec_bits(g_fresh), "fresh gradient, step {step}");
            assert_eq!(mat_bits(h), mat_bits(h_fresh), "fresh Hessian, step {step}");
            // The score-only public wrapper agrees too.
            let (f_only, matched_only) = m.score_at(&scan, &Pose::planar(x, y, yaw));
            assert_eq!(f_only.to_bits(), a.f.to_bits(), "score_at f, step {step}");
            assert_eq!(matched_only, a.matched, "score_at matched, step {step}");
        }
    }

    /// `align` reports the fitness of the pose it returns without a final
    /// re-evaluation: it must equal the reference score there.
    #[test]
    fn fitness_is_the_reference_score_at_the_final_pose() {
        let m = matcher();
        for (name, truth, guess) in [
            ("fit1", Pose::planar(0.4, -0.3, 0.05), Pose::IDENTITY),
            ("fit2", Pose::planar(1.0, 2.0, -0.1), Pose::planar(0.8, 1.7, -0.08)),
            ("fit3", Pose::IDENTITY, Pose::planar(0.2, 0.1, 0.02)),
        ] {
            let scan = to_body(&scene_points(name, 150), &truth);
            let result = m.align(&scan, &guess);
            let (f, matched) = m.score_at(&scan, &result.pose);
            assert_eq!(result.matched_points, matched, "{name}");
            assert_eq!(result.fitness.to_bits(), (-f / matched as f64).to_bits(), "{name}");
        }
    }

    #[test]
    fn sequential_tracking_follows_motion() {
        // Simulate localization across consecutive sweeps: each uses the
        // previous result as its guess.
        let m = matcher();
        let mut guess = Pose::planar(0.0, 0.0, 0.0);
        for step in 1..=5 {
            let true_pose = Pose::planar(0.15 * step as f64, 0.1 * step as f64, 0.01 * step as f64);
            let scan = to_body(&scene_points("track", 120), &true_pose);
            let result = m.align(&scan, &guess);
            let err = result.pose.translation.distance(true_pose.translation);
            assert!(err < 0.08, "step {step}: error {err}");
            guess = result.pose;
        }
    }
}
