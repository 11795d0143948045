//! The analytic performance model of Salem & Garcia-Molina's
//! checkpointing study, and generators for every table and figure in the
//! paper's evaluation (§4).
//!
//! * [`AnalyticModel`] evaluates one algorithm at one parameter setting,
//!   producing the paper's two metrics (processor overhead per
//!   transaction and recovery time) plus the intermediate quantities
//!   (minimum checkpoint duration, restart probability, expected COU
//!   copies).
//! * [`figures`] sweeps the model to regenerate Figures 4a–4e and renders
//!   Tables 2a–2d.
//! * [`render`] holds the text table/plot machinery.
//!
//! The model's cost terms mirror the executable engine operation for
//! operation, which is what lets `mmdb-sim` cross-validate it: the same
//! charges accrue in both, one analytically and one by running the real
//! algorithms.

#![warn(missing_docs)]

pub mod derivation;
pub mod figures;
mod model;
pub mod render;

pub use model::{AnalyticModel, CouGranularity, ModelPoint};
