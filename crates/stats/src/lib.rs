//! # wmm-stats
//!
//! Statistics and numerical fitting support for the `wmmbench` reproduction
//! of *Benchmarking Weak Memory Models* (Ritson & Owens, PPoPP 2016).
//!
//! The paper's methodology needs exactly four numerical tools, all provided
//! here with no external dependencies:
//!
//! * **Summary statistics** ([`summary`]) — arithmetic and geometric means,
//!   sample variance, minima/maxima. The paper reports geometric means of six
//!   or more samples per configuration.
//! * **Student-t confidence intervals** ([`tdist`]) — all error bars in the
//!   paper are 95% intervals from the t-distribution, appropriate for small
//!   sample counts.
//! * **Non-linear least squares** ([`fit`]) — a Levenberg–Marquardt
//!   implementation playing the role of scipy's `curve_fit`, used to estimate
//!   the sensitivity `k` of a benchmark to a code path, together with the
//!   estimated parameter variance the paper quotes (e.g. `k = 0.00277 ± 2.5%`).
//! * **Comparative ratios with compounded errors** ([`compare`]) — the paper
//!   compares a test case against a base case by dividing distributions, with
//!   the conservative rule "comparative minimum is test minimum divided by
//!   base maximum".
//!
//! Everything is deterministic and `f64`-based.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod compare;
pub mod fit;
pub mod linalg;
pub mod special;
pub mod summary;
pub mod tdist;

pub use compare::Comparison;
pub use fit::{curve_fit, FitOptions};
pub use summary::Summary;
pub use tdist::{confidence_interval, t_quantile};
