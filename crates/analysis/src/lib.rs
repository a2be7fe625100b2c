//! # anton-analysis
//!
//! Offline analyses for the Anton 2 unified network:
//!
//! * [`load`] — exact expected channel loads under a traffic pattern
//!   (Section 3.1), the basis for arbiter weights and saturation
//!   normalization;
//! * [`weights`] — inverse arbiter weight derivation (Section 3.3);
//! * [`worstcase`] — the direction-order routing search over worst-case
//!   switching demands (Section 2.4, Figure 4, equation (1));
//! * [`fit`] — least-squares fitting and fairness statistics used by the
//!   measurement reproductions.
//!
//! The Section 2.5 dependency graph is `anton-verify`'s: its route
//! enumerator and its symbolic certifier write one graph type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fit;
pub mod load;
pub mod weights;
pub mod worstcase;

pub use fit::{jain_fairness, least_squares, linear_fit};
pub use load::LoadAnalysis;
pub use weights::ArbiterWeightSet;
