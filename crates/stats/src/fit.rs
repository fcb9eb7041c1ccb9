//! Non-linear least squares by Levenberg–Marquardt.
//!
//! This plays the role of scipy's `curve_fit` in the paper: given samples
//! `(aᵢ, pᵢ)` of benchmark performance under increasing injected cost, fit the
//! sensitivity model `p(a) = 1/((1-k) + k·a)` and report both the estimate and
//! its variance. The solver is generic over the model function; the Jacobian
//! is computed by central finite differences.

use crate::linalg::{invert, solve, Matrix};

/// Options controlling the Levenberg–Marquardt iteration.
#[derive(Debug, Clone, Copy)]
pub struct FitOptions {
    /// Maximum number of LM iterations.
    pub max_iter: usize,
    /// Convergence threshold on the relative reduction of the sum of squares.
    pub tol: f64,
    /// Initial damping parameter λ.
    pub lambda0: f64,
    /// Relative step used for finite-difference Jacobians.
    pub fd_step: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            max_iter: 200,
            tol: 1e-12,
            lambda0: 1e-3,
            fd_step: 1e-6,
        }
    }
}

/// Result of a successful fit.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// Estimated parameters.
    pub params: Vec<f64>,
    /// Estimated standard error of each parameter (square root of the
    /// diagonal of the covariance matrix, scaled by the residual variance).
    pub std_errors: Vec<f64>,
    /// Final sum of squared residuals.
    pub ssr: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Coefficient of determination, `1 - SSR/SST`.
    pub r_squared: f64,
}

/// Errors from `curve_fit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer data points than parameters.
    TooFewPoints,
    /// The normal equations were singular at every damping level tried.
    Singular,
    /// The model produced a non-finite value during fitting.
    NonFinite,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints => write!(f, "fewer data points than parameters"),
            FitError::Singular => write!(f, "singular normal equations"),
            FitError::NonFinite => write!(f, "model produced a non-finite value"),
        }
    }
}

impl std::error::Error for FitError {}

fn residuals<F>(model: &F, xs: &[f64], ys: &[f64], params: &[f64]) -> Result<Vec<f64>, FitError>
where
    F: Fn(f64, &[f64]) -> f64,
{
    let mut out = Vec::with_capacity(xs.len());
    for (&x, &y) in xs.iter().zip(ys) {
        let v = y - model(x, params);
        if !v.is_finite() {
            return Err(FitError::NonFinite);
        }
        out.push(v);
    }
    Ok(out)
}

fn jacobian<F>(model: &F, xs: &[f64], params: &[f64], fd_step: f64) -> Result<Matrix, FitError>
where
    F: Fn(f64, &[f64]) -> f64,
{
    let n = xs.len();
    let p = params.len();
    let mut j = Matrix::zeros(n, p);
    let mut lo = params.to_vec();
    let mut hi = params.to_vec();
    for c in 0..p {
        let h = fd_step * (1.0 + params[c].abs());
        lo[c] = params[c] - h;
        hi[c] = params[c] + h;
        for (r, &x) in xs.iter().enumerate() {
            let d = (model(x, &hi) - model(x, &lo)) / (2.0 * h);
            if !d.is_finite() {
                return Err(FitError::NonFinite);
            }
            // Residual is y - f, so ∂r/∂θ = -∂f/∂θ; we keep J = ∂f/∂θ and
            // account for the sign when forming the step.
            j[(r, c)] = d;
        }
        lo[c] = params[c];
        hi[c] = params[c];
    }
    Ok(j)
}

fn ssr_of(r: &[f64]) -> f64 {
    r.iter().map(|v| v * v).sum()
}

/// Fit `model(x, params)` to the data `(xs, ys)` starting from `p0`.
///
/// Returns parameter estimates, standard errors (from the residual variance
/// and `(JᵀJ)⁻¹`, exactly as scipy's `curve_fit` reports `pcov`), the final
/// SSR and an R².
pub fn curve_fit<F>(
    model: F,
    xs: &[f64],
    ys: &[f64],
    p0: &[f64],
    opts: FitOptions,
) -> Result<FitResult, FitError>
where
    F: Fn(f64, &[f64]) -> f64,
{
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let n = xs.len();
    let np = p0.len();
    if n < np {
        return Err(FitError::TooFewPoints);
    }

    let mut params = p0.to_vec();
    let mut r = residuals(&model, xs, ys, &params)?;
    let mut ssr = ssr_of(&r);
    let mut lambda = opts.lambda0;
    let mut iterations = 0;

    for it in 0..opts.max_iter {
        iterations = it + 1;
        let j = jacobian(&model, xs, &params, opts.fd_step)?;
        let jtj = j.gram();
        let jtr = j.tr_mul_vec(&r);

        // Try increasing damping until a step reduces the SSR.
        let mut stepped = false;
        for _ in 0..40 {
            let mut a = jtj.clone();
            for d in 0..np {
                a[(d, d)] += lambda * (1.0 + jtj[(d, d)]);
            }
            let Some(step) = solve(&a, &jtr) else {
                lambda *= 10.0;
                continue;
            };
            let cand: Vec<f64> = params.iter().zip(&step).map(|(p, s)| p + s).collect();
            let Ok(cr) = residuals(&model, xs, ys, &cand) else {
                lambda *= 10.0;
                continue;
            };
            let cssr = ssr_of(&cr);
            if cssr < ssr {
                let rel = (ssr - cssr) / ssr.max(1e-300);
                params = cand;
                r = cr;
                ssr = cssr;
                lambda = (lambda / 10.0).max(1e-12);
                stepped = true;
                if rel < opts.tol {
                    // Converged.
                    return finish(model, xs, ys, params, ssr, iterations, opts);
                }
                break;
            }
            lambda *= 10.0;
        }
        if !stepped {
            // No improving step found: either converged or singular.
            return finish(model, xs, ys, params, ssr, iterations, opts);
        }
    }
    finish(model, xs, ys, params, ssr, iterations, opts)
}

fn finish<F>(
    model: F,
    xs: &[f64],
    ys: &[f64],
    params: Vec<f64>,
    ssr: f64,
    iterations: usize,
    opts: FitOptions,
) -> Result<FitResult, FitError>
where
    F: Fn(f64, &[f64]) -> f64,
{
    let n = xs.len();
    let np = params.len();
    let j = jacobian(&model, xs, &params, opts.fd_step)?;
    let jtj = j.gram();
    // Residual variance: SSR / (n - p); guard the saturated case.
    let dof = if n > np { (n - np) as f64 } else { 1.0 };
    let sigma2 = ssr / dof;
    let std_errors = match invert(&jtj) {
        Some(cov) => (0..np)
            .map(|i| (sigma2 * cov[(i, i)]).max(0.0).sqrt())
            .collect(),
        None => vec![f64::INFINITY; np],
    };
    let mean_y = ys.iter().sum::<f64>() / n as f64;
    let sst: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
    let r_squared = if sst > 0.0 { 1.0 - ssr / sst } else { 1.0 };
    Ok(FitResult {
        params,
        std_errors,
        ssr,
        iterations,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's sensitivity model, used here only as a test target;
    /// the canonical implementation lives in `wmmbench::model`.
    fn sensitivity(a: f64, p: &[f64]) -> f64 {
        let k = p[0];
        1.0 / ((1.0 - k) + k * a)
    }

    #[test]
    fn fits_linear_model_exactly() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        let fit = curve_fit(
            |x, p| p[0] * x + p[1],
            &xs,
            &ys,
            &[1.0, 0.0],
            FitOptions::default(),
        )
        .unwrap();
        assert!((fit.params[0] - 3.0).abs() < 1e-8);
        assert!((fit.params[1] - 2.0).abs() < 1e-8);
        assert!(fit.ssr < 1e-12);
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn fits_sensitivity_model_noiseless() {
        let k = 0.00277; // Fig. 1's example value.
        let xs: Vec<f64> = (0..15).map(|e| (1u64 << e) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&a| sensitivity(a, &[k])).collect();
        let fit = curve_fit(sensitivity, &xs, &ys, &[1e-4], FitOptions::default()).unwrap();
        assert!(
            (fit.params[0] - k).abs() < 1e-8,
            "recovered {} want {k}",
            fit.params[0]
        );
    }

    #[test]
    fn fits_sensitivity_model_with_noise() {
        // Deterministic pseudo-noise; the estimate should stay within ~5%.
        let k = 0.0088;
        let xs: Vec<f64> = (0..12).map(|e| (1u64 << e) as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let jitter = 1.0 + 0.004 * ((i as f64 * 2.399).sin());
                sensitivity(a, &[k]) * jitter
            })
            .collect();
        let fit = curve_fit(sensitivity, &xs, &ys, &[1e-4], FitOptions::default()).unwrap();
        let rel = (fit.params[0] - k).abs() / k;
        assert!(rel < 0.05, "relative error {rel}");
        assert!(fit.std_errors[0].is_finite());
    }

    #[test]
    fn too_few_points_rejected() {
        let err = curve_fit(
            |x, p| p[0] * x + p[1] + p[2],
            &[1.0, 2.0],
            &[1.0, 2.0],
            &[0.0, 0.0, 0.0],
            FitOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, FitError::TooFewPoints);
    }

    #[test]
    fn reports_reasonable_std_error() {
        // With visible noise the standard error must be non-zero and smaller
        // than the estimate for a well-conditioned problem.
        let k = 0.01;
        let xs: Vec<f64> = (0..10).map(|e| (1u64 << e) as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &a)| sensitivity(a, &[k]) * (1.0 + 0.01 * ((i % 3) as f64 - 1.0)))
            .collect();
        let fit = curve_fit(sensitivity, &xs, &ys, &[1e-3], FitOptions::default()).unwrap();
        assert!(fit.std_errors[0] > 0.0);
        assert!(fit.std_errors[0] / fit.params[0].abs() < 0.5);
    }
}
