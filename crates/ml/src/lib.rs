//! From-scratch regression model suite for runtime prediction.
//!
//! This crate implements every model family evaluated in the paper
//! (§3.1) plus the surrounding machinery:
//!
//! * **Models** — polynomial regression ([`polynomial`]), kernel ridge
//!   ([`kernel_ridge`]), decision trees ([`tree`]), random forests
//!   ([`forest`]), gradient boosting ([`gradient_boosting`]), AdaBoost.R2
//!   ([`adaboost`]), Gaussian processes ([`gaussian_process`]), Bayesian
//!   ridge ([`bayesian_ridge`]) and ε-support-vector regression ([`svr`]),
//!   all built on ordinary/ridge least squares ([`linear`]).
//! * **Fast inference** — fitted tree ensembles compile into a contiguous
//!   flat layout ([`flat`]) with two entry points: a quantized default
//!   within `flat::QUANT_REL_TOL` of the recursive path, and `*_exact`
//!   variants that stay bit-for-bit; this is what the advisor sweep and
//!   the serving daemon query.
//! * **Metrics** — R², MAE, MAPE (§3.2) and friends in [`metrics`].
//! * **Model selection** — K-fold cross-validation plus grid, random and
//!   Bayesian hyper-parameter search in [`model_selection`].
//! * **The zoo** — a uniform, string-keyed construction layer
//!   ([`zoo`]) so experiment harnesses can sweep heterogeneous model
//!   families with one loop.
//!
//! Models implement [`Regressor`]; models that can quantify predictive
//! uncertainty (Gaussian processes, committees) also implement
//! [`UncertaintyRegressor`], which the active-learning crate requires.
//!
//! # Example
//!
//! ```
//! use chemcost_linalg::Matrix;
//! use chemcost_ml::{Regressor, gradient_boosting::GradientBoosting};
//!
//! // y = x0 + 2·x1 with a little structure a GB model can pick up.
//! let x = Matrix::from_fn(80, 2, |i, j| ((i * (j + 1)) % 13) as f64);
//! let y: Vec<f64> = (0..80).map(|i| x[(i, 0)] + 2.0 * x[(i, 1)]).collect();
//! let mut model = GradientBoosting::new(100, 3, 0.1);
//! model.fit(&x, &y).unwrap();
//! let pred = model.predict(&x);
//! assert!(chemcost_ml::metrics::r2_score(&y, &pred) > 0.95);
//! ```

#![deny(missing_docs)]

pub mod adaboost;
pub mod bayesian_ridge;
pub mod dataset;
pub mod elastic_net;
pub mod ensemble;
pub mod flat;
pub mod forest;
pub mod gaussian_process;
pub mod gradient_boosting;
pub mod importance;
pub mod kernel;
pub mod kernel_ridge;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod model_selection;
pub mod monitor;
pub mod partial_dependence;
pub mod persist;
pub mod polynomial;
pub mod preprocessing;
pub mod rand_util;
pub mod svr;
pub mod traits;
pub mod transfer;
pub mod tree;
pub mod zoo;

pub use dataset::Dataset;
pub use flat::FlatGbt;
pub use traits::{FitError, Regressor, UncertaintyRegressor};
