//! Core model traits.

use chemcost_linalg::Matrix;

/// Error produced when a model cannot be fitted.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Training data was empty.
    EmptyTrainingSet,
    /// Feature matrix and target length disagree.
    ShapeMismatch {
        /// Rows in the feature matrix.
        rows: usize,
        /// Entries in the target vector.
        targets: usize,
    },
    /// The training data contained NaN or infinite values.
    NonFiniteData,
    /// A linear system could not be solved even with jitter.
    Numerical(String),
    /// A hyper-parameter value is outside its valid range.
    InvalidHyperParameter(String),
    /// The model is a compiled, read-only artifact (e.g. a flattened
    /// ensemble) — fit the source model and re-compile instead.
    NotTrainable(&'static str),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::EmptyTrainingSet => write!(f, "empty training set"),
            FitError::ShapeMismatch { rows, targets } => {
                write!(f, "feature rows ({rows}) != target length ({targets})")
            }
            FitError::NonFiniteData => write!(f, "training data contains NaN/inf"),
            FitError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            FitError::InvalidHyperParameter(msg) => write!(f, "invalid hyper-parameter: {msg}"),
            FitError::NotTrainable(kind) => {
                write!(f, "{kind} is a compiled read-only model; fit its source ensemble instead")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Validate the common preconditions shared by every `fit` implementation.
pub(crate) fn validate_fit_inputs(x: &Matrix, y: &[f64]) -> Result<(), FitError> {
    if x.nrows() == 0 {
        return Err(FitError::EmptyTrainingSet);
    }
    if x.nrows() != y.len() {
        return Err(FitError::ShapeMismatch { rows: x.nrows(), targets: y.len() });
    }
    if !x.is_finite() || !y.iter().all(|v| v.is_finite()) {
        return Err(FitError::NonFiniteData);
    }
    Ok(())
}

/// Assert the [`Regressor::predict_grid`] column contract: two distinct
/// columns inside a `width`-wide row.
pub(crate) fn check_grid_columns(width: usize, col_a: usize, col_b: usize) {
    assert!(
        col_a != col_b && col_a < width && col_b < width,
        "predict_grid: axis columns {col_a} and {col_b} must be distinct and below {width}"
    );
}

/// A trainable regression model.
///
/// `fit` may be called repeatedly; each call discards previous state.
/// `predict` panics if called before a successful `fit` (programmer error,
/// like sklearn's `NotFittedError`).
///
/// # Example
///
/// ```
/// use chemcost_linalg::Matrix;
/// use chemcost_ml::tree::DecisionTree;
/// use chemcost_ml::Regressor;
///
/// // A step function a shallow tree captures exactly.
/// let x = Matrix::from_fn(20, 1, |i, _| i as f64);
/// let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
///
/// let mut model = DecisionTree::new(3);
/// model.fit(&x, &y).unwrap();
/// assert_eq!(model.predict(&x), y);
/// assert_eq!(model.predict_one(&[3.0]), 1.0);
/// assert_eq!(model.name(), "DT");
/// ```
pub trait Regressor: Send + Sync {
    /// Train on feature matrix `x` (one sample per row) and targets `y`.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), FitError>;

    /// Predict targets for each row of `x`.
    fn predict(&self, x: &Matrix) -> Vec<f64>;

    /// Predict a single sample.
    fn predict_one(&self, row: &[f64]) -> f64 {
        let m = Matrix::from_rows(&[row]);
        self.predict(&m)[0]
    }

    /// Predict every row of a two-axis grid: `base` with column `col_a`
    /// set to each `a[i]` and column `col_b` to each `b[j]`, returned
    /// row-major (`out[i * b.len() + j]`, `a` outer). `base`'s own
    /// entries at `col_a` and `col_b` are ignored.
    ///
    /// The default writes the grid out as a matrix and calls
    /// [`Regressor::predict`]; models that can share work across the
    /// grid override it with the same results.
    ///
    /// # Panics
    /// Panics if `col_a == col_b` or either is out of `base`'s range.
    fn predict_grid(
        &self,
        base: &[f64],
        (col_a, a): (usize, &[f64]),
        (col_b, b): (usize, &[f64]),
    ) -> Vec<f64> {
        check_grid_columns(base.len(), col_a, col_b);
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let x = Matrix::from_fn(a.len() * b.len(), base.len(), |r, c| match c {
            _ if c == col_a => a[r / b.len()],
            _ if c == col_b => b[r % b.len()],
            _ => base[c],
        });
        self.predict(&x)
    }

    /// [`Regressor::predict_grid`] on the calling thread alone, with the
    /// same results: for a caller whose siblings already keep every core
    /// busy, such as a server worker with other requests in flight. The
    /// default is `predict_grid` itself; a model whose grid method
    /// splits over the cores overrides both.
    ///
    /// # Panics
    /// As [`Regressor::predict_grid`].
    fn predict_grid_serial(
        &self,
        base: &[f64],
        a: (usize, &[f64]),
        b: (usize, &[f64]),
    ) -> Vec<f64> {
        self.predict_grid(base, a, b)
    }

    /// A short human-readable name ("GB", "KR", …) used in reports.
    fn name(&self) -> &'static str;
}

/// A regressor that also produces per-sample predictive standard
/// deviations — required by uncertainty-sampling active learning.
pub trait UncertaintyRegressor: Regressor {
    /// Predict `(mean, std)` for each row of `x`.
    fn predict_with_std(&self, x: &Matrix) -> (Vec<f64>, Vec<f64>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_empty() {
        let x = Matrix::zeros(0, 3);
        assert_eq!(validate_fit_inputs(&x, &[]), Err(FitError::EmptyTrainingSet));
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let x = Matrix::zeros(3, 2);
        assert_eq!(
            validate_fit_inputs(&x, &[1.0]),
            Err(FitError::ShapeMismatch { rows: 3, targets: 1 })
        );
    }

    #[test]
    fn validate_rejects_nan() {
        let x = Matrix::from_rows(&[&[1.0, f64::NAN]]);
        assert_eq!(validate_fit_inputs(&x, &[1.0]), Err(FitError::NonFiniteData));
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(validate_fit_inputs(&x, &[f64::INFINITY]), Err(FitError::NonFiniteData));
    }

    #[test]
    fn validate_accepts_good_input() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(validate_fit_inputs(&x, &[1.0, 2.0]).is_ok());
    }

    #[test]
    fn fit_error_display() {
        let e = FitError::Numerical("singular".into());
        assert!(e.to_string().contains("singular"));
    }
}
