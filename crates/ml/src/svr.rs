//! ε-insensitive support-vector regression solved with SMO.
//!
//! Implements the standard dual formulation (Smola & Schölkopf) in the
//! LibSVM 2n-variable layout: variables `a = [α; α*]` with constraint signs
//! `s = [+1…; −1…]`, box `0 ≤ a ≤ C`, equality `Σ s_p a_p = 0`, objective
//! `½ aᵀQa + pᵀa` where `Q_pq = s_p s_q K(x_p, x_q)` and
//! `p = [ε − y; ε + y]`. The solver uses maximal-violating-pair working-set
//! selection and the two-variable analytic update, i.e. classic SMO.
//!
//! The paper's grid search selected `kernel = rbf, C = 10, ε = 0.1, γ = 1`
//! ([`SvrParams::default`]). SVR assumes comparable feature scales; the
//! `vup-core` pipeline standardizes features before fitting.

use serde::{Deserialize, Serialize};
use vup_linalg::Matrix;

use crate::kernel::Kernel;
use crate::{Dataset, MlError, Regressor, Result};

/// Guard against a non-positive curvature denominator in the two-variable
/// update (LibSVM's `TAU`).
const TAU: f64 = 1e-12;

/// Hyperparameters for [`Svr`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    /// Box constraint `C` (> 0); the paper uses `10`.
    pub c: f64,
    /// Width of the ε-insensitive tube (≥ 0); the paper uses `0.1`.
    pub epsilon: f64,
    /// Kernel; the paper uses RBF with `γ = 1`.
    pub kernel: Kernel,
    /// KKT-violation stopping tolerance (LibSVM default `1e-3`).
    pub tol: f64,
    /// Hard cap on SMO iterations.
    pub max_iter: usize,
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            c: 10.0,
            epsilon: 0.1,
            kernel: Kernel::paper(),
            tol: 1e-3,
            max_iter: 100_000,
        }
    }
}

impl SvrParams {
    /// The paper's hyperparameters with the RBF bandwidth rescaled to the
    /// feature dimensionality: `γ = 1/p`.
    ///
    /// The paper's grid search selected `γ = 1` *for its own feature
    /// space*; with `p` standardized features the expected squared
    /// distance between two points is `≈ 2p`, so a fixed `γ = 1` drives
    /// every off-diagonal kernel entry to ~0 once `p` grows past a
    /// handful, leaving SVR able to predict only its bias. `γ = 1/p`
    /// (scikit-learn's `gamma="scale"` on unit-variance features) keeps
    /// the kernel informative at any dimensionality — this mirrors
    /// re-running the paper's §4.2 grid search on our feature space.
    pub fn paper_scaled(n_features: usize) -> SvrParams {
        SvrParams {
            kernel: Kernel::Rbf {
                gamma: 1.0 / n_features.max(1) as f64,
            },
            ..SvrParams::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.c > 0.0 && self.c.is_finite()) {
            return Err(MlError::InvalidParameter {
                name: "c",
                reason: format!("must be positive and finite, got {}", self.c),
            });
        }
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(MlError::InvalidParameter {
                name: "epsilon",
                reason: format!("must be non-negative and finite, got {}", self.epsilon),
            });
        }
        if let Kernel::Rbf { gamma } = self.kernel {
            if !(gamma > 0.0 && gamma.is_finite()) {
                return Err(MlError::InvalidParameter {
                    name: "gamma",
                    reason: format!("must be positive and finite, got {gamma}"),
                });
            }
        }
        if self.tol.is_nan() || self.tol <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "tol",
                reason: "must be positive".into(),
            });
        }
        if self.max_iter == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_iter",
                reason: "must be positive".into(),
            });
        }
        Ok(())
    }
}

/// ε-support-vector regression (the paper's "SVR").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Svr {
    params: SvrParams,
    fitted: Option<FittedSvr>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct FittedSvr {
    /// Support rows (training samples with non-zero dual coefficient).
    support: Matrix,
    /// Dual coefficients `β_i = α_i − α*_i` aligned with `support` rows.
    beta: Vec<f64>,
    bias: f64,
    n_features: usize,
    iterations: usize,
    converged: bool,
}

impl Svr {
    /// Creates an unfitted model with the given hyperparameters.
    pub fn new(params: SvrParams) -> Self {
        Svr {
            params,
            fitted: None,
        }
    }

    /// Creates the paper's configuration (`rbf, C = 10, ε = 0.1, γ = 1`).
    pub fn paper() -> Self {
        Svr::new(SvrParams::default())
    }

    /// Number of support vectors, or `None` before fitting.
    pub fn n_support(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.beta.len())
    }

    /// SMO iterations performed by the last fit.
    pub fn iterations(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.iterations)
    }

    /// Whether the last fit reached the KKT tolerance before the iteration
    /// cap.
    pub fn converged(&self) -> Option<bool> {
        self.fitted.as_ref().map(|f| f.converged)
    }

    /// Fitted bias term `b`, or `None` before fitting.
    pub fn bias(&self) -> Option<f64> {
        self.fitted.as_ref().map(|f| f.bias)
    }
}

struct SmoState {
    /// Kernel matrix; exactly symmetric, so row `i` is also column `i`.
    k: Matrix,
    /// 2n dual variables: `a[p]` for p < n is α, for p ≥ n is α*.
    a: Vec<f64>,
    /// Gradient of the dual objective.
    g: Vec<f64>,
    n: usize,
    c: f64,
}

impl SmoState {
    /// The solver at `a = 0`, where the gradient is just the linear term
    /// `p = [ε − y; ε + y]`.
    fn new(k: Matrix, y: &[f64], params: &SvrParams) -> SmoState {
        let n = y.len();
        let mut g = Vec::with_capacity(2 * n);
        g.extend(y.iter().map(|&t| params.epsilon - t));
        g.extend(y.iter().map(|&t| params.epsilon + t));
        SmoState {
            k,
            a: vec![0.0; 2 * n],
            g,
            n,
            c: params.c,
        }
    }

    /// Runs SMO until no pair violates the KKT conditions by `tol` or
    /// `max_iter` iterations have run, with the given pair selection and
    /// gradient update. Returns the iteration count and whether it
    /// converged.
    fn solve(
        &mut self,
        params: &SvrParams,
        select_pair: impl Fn(&SmoState, f64) -> Option<(usize, usize)>,
        update_gradient: impl Fn(&mut SmoState, usize, usize, f64, f64),
    ) -> (usize, bool) {
        let mut iterations = 0usize;
        while iterations < params.max_iter {
            let Some((i, j)) = select_pair(self, params.tol) else {
                return (iterations, true);
            };
            let (di, dj) = self.update_pair(i, j);
            if di != 0.0 || dj != 0.0 {
                update_gradient(self, i, j, di, dj);
            }
            iterations += 1;
        }
        (iterations, false)
    }

    /// Constraint sign of variable `p`.
    #[inline]
    fn sign(&self, p: usize) -> f64 {
        if p < self.n {
            1.0
        } else {
            -1.0
        }
    }

    /// `Q_pq = s_p s_q K(x_p, x_q)`.
    #[inline]
    fn q(&self, p: usize, q: usize) -> f64 {
        self.sign(p) * self.sign(q) * self.k[(p % self.n, q % self.n)]
    }

    /// Maximal-violating-pair selection. Returns `None` at optimality.
    ///
    /// Scans the α half (`s_p = +1`, value `−G_p`), then the α* half
    /// (`s_p = −1`, value `G_p`): the order of one pass over `p`, so a
    /// tie still goes to the lowest index. A variable outside `I_up`
    /// (`I_low`) is masked to `−∞` (`+∞`) rather than branched on; a
    /// masked value never beats the running maximum (minimum), so the
    /// pair is the one the membership tests pick.
    fn select_pair(&self, tol: f64) -> Option<(usize, usize)> {
        let (n, c) = (self.n, self.c);
        let mut i = usize::MAX;
        let mut m_up = f64::NEG_INFINITY;
        let mut j = usize::MAX;
        let mut m_low = f64::INFINITY;
        let (a_alpha, a_star) = self.a.split_at(n);
        let (g_alpha, g_star) = self.g.split_at(n);
        for (p, (&a, &g)) in a_alpha.iter().zip(g_alpha).enumerate() {
            let up = if a < c { -g } else { f64::NEG_INFINITY };
            let low = if a > 0.0 { -g } else { f64::INFINITY };
            if up > m_up {
                m_up = up;
                i = p;
            }
            if low < m_low {
                m_low = low;
                j = p;
            }
        }
        for (p, (&a, &g)) in a_star.iter().zip(g_star).enumerate() {
            let up = if a > 0.0 { g } else { f64::NEG_INFINITY };
            let low = if a < c { g } else { f64::INFINITY };
            if up > m_up {
                m_up = up;
                i = n + p;
            }
            if low < m_low {
                m_low = low;
                j = n + p;
            }
        }
        if i == usize::MAX || j == usize::MAX || m_up - m_low < tol {
            None
        } else {
            Some((i, j))
        }
    }

    /// Analytic two-variable update (LibSVM `Solver::solve` inner step).
    /// Returns the changes `(Δa_i, Δa_j)`.
    fn update_pair(&mut self, i: usize, j: usize) -> (f64, f64) {
        let c = self.c;
        let (old_i, old_j) = (self.a[i], self.a[j]);
        if self.sign(i) != self.sign(j) {
            let quad = (self.q(i, i) + self.q(j, j) + 2.0 * self.q(i, j)).max(TAU);
            let delta = (-self.g[i] - self.g[j]) / quad;
            let diff = old_i - old_j;
            self.a[i] += delta;
            self.a[j] += delta;
            if diff > 0.0 {
                if self.a[j] < 0.0 {
                    self.a[j] = 0.0;
                    self.a[i] = diff;
                }
            } else if self.a[i] < 0.0 {
                self.a[i] = 0.0;
                self.a[j] = -diff;
            }
            if diff > 0.0 {
                if self.a[i] > c {
                    self.a[i] = c;
                    self.a[j] = c - diff;
                }
            } else if self.a[j] > c {
                self.a[j] = c;
                self.a[i] = c + diff;
            }
        } else {
            let quad = (self.q(i, i) + self.q(j, j) - 2.0 * self.q(i, j)).max(TAU);
            let delta = (self.g[i] - self.g[j]) / quad;
            let sum = old_i + old_j;
            self.a[i] -= delta;
            self.a[j] += delta;
            if sum > c {
                if self.a[i] > c {
                    self.a[i] = c;
                    self.a[j] = sum - c;
                }
            } else if self.a[j] < 0.0 {
                self.a[j] = 0.0;
                self.a[i] = sum;
            }
            if sum > c {
                if self.a[j] > c {
                    self.a[j] = c;
                    self.a[i] = sum - c;
                }
            } else if self.a[i] < 0.0 {
                self.a[i] = 0.0;
                self.a[j] = sum;
            }
        }
        (self.a[i] - old_i, self.a[j] - old_j)
    }

    /// Rank-two gradient update `G_p += Q_pi·Δa_i + Q_pj·Δa_j` for all
    /// `2n` variables in one pass over the kernel rows `i mod n` and
    /// `j mod n`.
    ///
    /// With `c_i = s_i·Δa_i`, the α half adds `K_pi·c_i + K_pj·c_j` and
    /// the α* half adds `(−K_pi·c_i) + (−K_pj·c_j)`. Multiplying by ±1 and
    /// negating are exact and rounding is symmetric under negation, so
    /// each term is bit for bit the `(s_p·s_i·K_pi)·Δa_i` it replaces,
    /// signed zeros included. The α* half keeps its own sum of negated
    /// terms: `G_p − (K_pi·c_i + K_pj·c_j)` differs from it when `G_p` is
    /// `−0.0` and the sum is zero, which `ε = −0.0` can reach.
    fn update_gradient(&mut self, i: usize, j: usize, di: f64, dj: f64) {
        let n = self.n;
        let (ci, cj) = (self.sign(i) * di, self.sign(j) * dj);
        let (ki, kj) = (self.k.row(i % n), self.k.row(j % n));
        let (g_alpha, g_star) = self.g.split_at_mut(n);
        for (((ga, gs), &kpi), &kpj) in g_alpha.iter_mut().zip(g_star).zip(ki).zip(kj) {
            let (ti, tj) = (kpi * ci, kpj * cj);
            *ga += ti + tj;
            *gs += -ti + -tj;
        }
    }

    /// LibSVM-style bias recovery: average `s_p G_p` over free variables,
    /// falling back to the midpoint of the KKT interval.
    fn compute_bias(&self) -> f64 {
        let mut ub = f64::INFINITY;
        let mut lb = f64::NEG_INFINITY;
        let mut sum_free = 0.0;
        let mut n_free = 0usize;
        for p in 0..2 * self.n {
            let s = self.sign(p);
            let yg = s * self.g[p];
            if self.a[p] >= self.c {
                if s < 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else if self.a[p] <= 0.0 {
                if s > 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else {
                n_free += 1;
                sum_free += yg;
            }
        }
        let rho = if n_free > 0 {
            sum_free / n_free as f64
        } else {
            (ub + lb) / 2.0
        };
        -rho
    }

    /// The fitted model: the bias and the rows with `β_i = α_i − α*_i ≠ 0`.
    fn into_fitted(self, x: &Matrix, iterations: usize, converged: bool) -> Result<FittedSvr> {
        let n = self.n;
        let bias = self.compute_bias();
        let mut support_rows: Vec<&[f64]> = Vec::new();
        let mut beta = Vec::new();
        for i in 0..n {
            let b = self.a[i] - self.a[n + i];
            if b != 0.0 {
                support_rows.push(x.row(i));
                beta.push(b);
            }
        }
        let support = if support_rows.is_empty() {
            Matrix::zeros(0, x.cols())
        } else {
            Matrix::from_rows(&support_rows)?
        };
        Ok(FittedSvr {
            support,
            beta,
            bias,
            n_features: x.cols(),
            iterations,
            converged,
        })
    }
}

impl Regressor for Svr {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        self.params.validate()?;
        let n = data.len();
        if n < 2 {
            return Err(MlError::NotEnoughSamples {
                required: 2,
                actual: n,
            });
        }
        let x = data.x();
        let mut state = SmoState::new(self.params.kernel.matrix(x), data.y(), &self.params);
        let (iterations, converged) = state.solve(
            &self.params,
            SmoState::select_pair,
            SmoState::update_gradient,
        );
        self.fitted = Some(state.into_fitted(x, iterations, converged)?);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if row.len() != f.n_features {
            return Err(MlError::FeatureMismatch {
                expected: f.n_features,
                actual: row.len(),
            });
        }
        let mut acc = f.bias;
        for (sv, &b) in f.support.iter_rows().zip(&f.beta) {
            acc += b * self.params.kernel.eval(sv, row);
        }
        Ok(acc)
    }

    fn name(&self) -> &'static str {
        "SVR"
    }

    fn clone_box(&self) -> Box<dyn Regressor + Send + Sync> {
        Box::new(self.clone())
    }

    fn save(&self) -> crate::SavedModel {
        crate::SavedModel::Svr(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The pair selection `select_pair` replaced, one signed pass over
    /// all `2n` variables: the oracle it must match.
    fn select_pair_by_sign(state: &SmoState, tol: f64) -> Option<(usize, usize)> {
        let mut i = usize::MAX;
        let mut m_up = f64::NEG_INFINITY;
        let mut j = usize::MAX;
        let mut m_low = f64::INFINITY;
        for p in 0..2 * state.n {
            let s = state.sign(p);
            let v = -s * state.g[p];
            let in_up = (s > 0.0 && state.a[p] < state.c) || (s < 0.0 && state.a[p] > 0.0);
            let in_low = (s < 0.0 && state.a[p] < state.c) || (s > 0.0 && state.a[p] > 0.0);
            if in_up && v > m_up {
                m_up = v;
                i = p;
            }
            if in_low && v < m_low {
                m_low = v;
                j = p;
            }
        }
        if i == usize::MAX || j == usize::MAX || m_up - m_low < tol {
            None
        } else {
            Some((i, j))
        }
    }

    /// The gradient update `update_gradient` replaced, `Q_pq` element
    /// by element: the oracle it must match.
    fn update_gradient_by_q(state: &mut SmoState, i: usize, j: usize, di: f64, dj: f64) {
        for p in 0..2 * state.n {
            state.g[p] += state.q(p, i) * di + state.q(p, j) * dj;
        }
    }

    /// A fit through the oracle loops.
    fn fit_by_oracle(params: &SvrParams, data: &Dataset) -> FittedSvr {
        let x = data.x();
        let mut state = SmoState::new(params.kernel.matrix(x), data.y(), params);
        let (iterations, converged) =
            state.solve(params, select_pair_by_sign, update_gradient_by_q);
        state.into_fitted(x, iterations, converged).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A seeded `n x p` problem: standardized-looking features with some
    /// exact zeros, a nonlinear target with noise, and with `shape` 1
    /// duplicated rows (ties in pair selection) or with `shape` 2 a
    /// constant target.
    fn problem(n: usize, p: usize, seed: u64, shape: u32) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * p);
        for _ in 0..n * p {
            data.push(if rng.random_bool(0.1) {
                0.0
            } else {
                rng.random_range(-2.5..2.5)
            });
        }
        if shape == 1 {
            for r in 1..n {
                if rng.random_bool(0.4) {
                    let src = rng.random_range(0..r);
                    data.copy_within(src * p..(src + 1) * p, r * p);
                }
            }
        }
        let y = (0..n)
            .map(|r| match shape {
                2 => 4.0,
                _ => {
                    let row: &[f64] = &data[r * p..(r + 1) * p];
                    (row[0] * 1.7).sin() + 0.4 * row[p - 1] + rng.random_range(-0.3..0.3)
                }
            })
            .collect();
        Dataset::new(Matrix::from_vec(n, p, data).unwrap(), y).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fit matches the oracle loops bit for bit: bias, dual
        /// coefficients, support rows, iteration count and convergence,
        /// at every `p mod 4`, for the paper's and the rescaled `γ`, a
        /// small `C`, and the linear kernel.
        #[test]
        fn prop_fit_bit_identical_to_oracle_loops(
            n in 2..=150_usize,
            p in 1..=35_usize,
            setting in 0..4_u32,
            shape in 0..3_u32,
            seed in any::<u64>(),
        ) {
            let params = match setting {
                0 => SvrParams::default(),
                1 => SvrParams::paper_scaled(p),
                2 => SvrParams { c: 0.05, ..SvrParams::paper_scaled(p) },
                _ => SvrParams { kernel: Kernel::Linear, max_iter: 3_000, ..SvrParams::default() },
            };
            let data = problem(n, p, seed, shape);
            let mut svr = Svr::new(params.clone());
            svr.fit(&data).unwrap();
            let got = svr.fitted.as_ref().unwrap();
            let want = fit_by_oracle(&params, &data);
            prop_assert_eq!(got.bias.to_bits(), want.bias.to_bits());
            prop_assert_eq!(bits(&got.beta), bits(&want.beta));
            prop_assert_eq!(got.support.shape(), want.support.shape());
            prop_assert_eq!(bits(got.support.as_slice()), bits(want.support.as_slice()));
            prop_assert_eq!(got.iterations, want.iterations);
            prop_assert_eq!(got.converged, want.converged);
        }
    }

    fn dataset_1d(xs: &[f64], y: &[f64]) -> Dataset {
        let rows: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs).unwrap(), y.to_vec()).unwrap()
    }

    #[test]
    fn fits_linear_function_within_epsilon_band() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 / 29.0).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 2.0 * x - 0.5).collect();
        let mut svr = Svr::paper();
        svr.fit(&dataset_1d(&xs, &y)).unwrap();
        assert_eq!(svr.converged(), Some(true));
        for (&x, &t) in xs.iter().zip(&y) {
            let p = svr.predict_row(&[x]).unwrap();
            // Training-point error bounded by the ε-tube plus slack.
            assert!((p - t).abs() < 0.15, "x={x}: pred {p} vs {t}");
        }
    }

    #[test]
    fn fits_nonlinear_function_better_than_linear_model() {
        use crate::linear::LinearRegression;
        let xs: Vec<f64> = (0..60).map(|i| -2.0 + 4.0 * i as f64 / 59.0).collect();
        let y: Vec<f64> = xs.iter().map(|&x| (2.0 * x).sin() + 0.5 * x).collect();
        let data = dataset_1d(&xs, &y);

        let mut svr = Svr::paper();
        svr.fit(&data).unwrap();
        let mut lr = LinearRegression::new();
        lr.fit(&data).unwrap();

        let svr_pred: Vec<f64> = xs.iter().map(|&x| svr.predict_row(&[x]).unwrap()).collect();
        let lr_pred: Vec<f64> = xs.iter().map(|&x| lr.predict_row(&[x]).unwrap()).collect();
        let svr_err = crate::metrics::rmse(&svr_pred, &y).unwrap();
        let lr_err = crate::metrics::rmse(&lr_pred, &y).unwrap();
        assert!(
            svr_err < lr_err / 2.0,
            "svr {svr_err} should beat lr {lr_err}"
        );
    }

    #[test]
    fn constant_targets_inside_tube_need_no_support_vectors() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y = vec![3.0; 10];
        let mut svr = Svr::paper();
        svr.fit(&dataset_1d(&xs, &y)).unwrap();
        // A constant fits entirely inside the ε-tube via the bias alone.
        assert_eq!(svr.n_support(), Some(0));
        let p = svr.predict_row(&[100.0]).unwrap();
        assert!((p - 3.0).abs() <= 0.1 + 1e-9);
    }

    #[test]
    fn dual_feasibility_holds() {
        let xs: Vec<f64> = (0..25).map(|i| i as f64 / 5.0).collect();
        let y: Vec<f64> = xs.iter().map(|&x| x * x * 0.3 - x).collect();
        let params = SvrParams::default();
        let mut svr = Svr::new(params.clone());
        svr.fit(&dataset_1d(&xs, &y)).unwrap();
        let f = svr.fitted.as_ref().unwrap();
        // |β_i| ≤ C and Σ β_i = 0 (equality constraint).
        for &b in &f.beta {
            assert!(b.abs() <= params.c + 1e-9);
        }
        let total: f64 = f.beta.iter().sum();
        assert!(total.abs() < 1e-6, "sum beta = {total}");
    }

    #[test]
    fn linear_kernel_recovers_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 / 4.0).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 1.5 * x + 2.0).collect();
        let mut svr = Svr::new(SvrParams {
            kernel: Kernel::Linear,
            ..SvrParams::default()
        });
        svr.fit(&dataset_1d(&xs, &y)).unwrap();
        let p = svr.predict_row(&[2.0]).unwrap();
        assert!((p - 5.0).abs() < 0.2, "pred {p}");
    }

    #[test]
    fn parameter_validation() {
        let data = dataset_1d(&[0.0, 1.0], &[0.0, 1.0]);
        for bad in [
            SvrParams {
                c: 0.0,
                ..SvrParams::default()
            },
            SvrParams {
                c: -1.0,
                ..SvrParams::default()
            },
            SvrParams {
                epsilon: -0.1,
                ..SvrParams::default()
            },
            SvrParams {
                kernel: Kernel::Rbf { gamma: 0.0 },
                ..SvrParams::default()
            },
            SvrParams {
                tol: 0.0,
                ..SvrParams::default()
            },
            SvrParams {
                max_iter: 0,
                ..SvrParams::default()
            },
        ] {
            assert!(Svr::new(bad).fit(&data).is_err());
        }
    }

    #[test]
    fn unfitted_and_mismatched_predictions_error() {
        let svr = Svr::paper();
        assert!(matches!(svr.predict_row(&[1.0]), Err(MlError::NotFitted)));
        let mut fitted = Svr::paper();
        fitted
            .fit(&dataset_1d(&[0.0, 1.0, 2.0], &[0.0, 1.0, 2.0]))
            .unwrap();
        assert!(matches!(
            fitted.predict_row(&[1.0, 2.0]),
            Err(MlError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn needs_two_samples() {
        let mut svr = Svr::paper();
        assert!(matches!(
            svr.fit(&dataset_1d(&[1.0], &[1.0])),
            Err(MlError::NotEnoughSamples { .. })
        ));
    }
}
