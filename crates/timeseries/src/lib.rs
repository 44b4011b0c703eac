//! # sofia-timeseries
//!
//! Time-series forecasting substrate for the SOFIA reproduction
//! (Sections III-C and III-D of Lee & Shin, ICDE 2021).
//!
//! * [`holt_winters`] — the additive Holt-Winters model: level/trend/season
//!   smoothing recursions (Eq. (5)) and h-step-ahead forecasts (Eq. (6));
//! * [`robust`] — robust statistics: the Huber Ψ-function, the biweight
//!   ρ-function (Eq. (9)), and Gelper et al.'s robust Holt-Winters with
//!   observation pre-cleaning (Eq. (7)) and error-scale tracking (Eq. (8));
//! * [`init`] — conventional initialization of level/trend/seasonal
//!   components from the first seasons of a series;
//! * [`fit`] — SSE objective and a bounded Nelder-Mead optimizer used to
//!   estimate the smoothing parameters `(α, β, γ) ∈ [0,1]³` (the paper uses
//!   L-BFGS-B; see DESIGN.md for the substitution argument);
//! * [`ets`] — simple and double exponential smoothing, used by baseline
//!   methods;
//! * [`codec`] — the byte-level hex-float and mask-bit text codec every
//!   bit-exact payload of the workspace (checkpoints, wire frames) uses;
//! * [`snapshot`] — bit-exact text snapshots of the Holt-Winters family
//!   (additive, multiplicative, damped), the serialization substrate the
//!   serving layer's checkpoint envelope wraps.
//!
//! ## Quick example
//!
//! ```
//! use sofia_timeseries::fit::fit_holt_winters;
//!
//! // A seasonal series: period 4, rising trend.
//! let y: Vec<f64> = (0..32)
//!     .map(|t| 0.5 * t as f64 + [0.0, 2.0, -1.0, 1.0][t % 4])
//!     .collect();
//! let fitted = fit_holt_winters(&y, 4).expect("fit");
//! // One-step-ahead forecast tracks the series closely.
//! let f = fitted.model.forecast(1);
//! assert!((f - (0.5 * 32.0)).abs() < 1.0);
//! ```

pub mod codec;
pub mod ets;
pub mod fit;
pub mod holt_winters;
pub mod init;
pub mod intervals;
pub mod robust;
pub mod snapshot;
pub mod variants;

pub use fit::{fit_holt_winters, FittedHoltWinters};
pub use holt_winters::{HoltWinters, HwParams, HwState};
pub use robust::{biweight_rho, huber_psi, RobustHoltWinters, RobustScale};
