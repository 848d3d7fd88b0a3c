//! Nanoscale memristor crossbar model for flow-based in-memory computing.
//!
//! A [`Crossbar`] is a grid of memristor junctions between wordlines (rows)
//! and bitlines (columns). Each junction carries a [`DeviceAssignment`]:
//! permanently off, permanently on (logic `1`), or a literal of a Boolean
//! input. Evaluating an input assignment programs each literal device to a
//! low- or high-resistance state and checks for a conducting *sneak path*
//! from the input wordline to each output wordline:
//!
//! - [`Crossbar::evaluate`] does this as graph reachability (the idealised
//!   flow model the paper's mapping correctness rests on) over the stored
//!   programmed junctions, 64 assignments at a time through one
//!   [`Evaluator`], and
//! - [`circuit::ElectricalModel`] does it as DC nodal analysis of the full
//!   resistive network with realistic on/off resistances and a sensing
//!   resistor — our stand-in for the paper's SPICE validation.
//!
//! [`metrics::CrossbarMetrics`] reports the paper's cost model:
//! semiperimeter, maximum dimension, area, power (number of programmed
//! literal devices) and delay (`rows + 1` time steps).
//!
//! [`fault`] models manufacturing defects (stuck-off/stuck-on junctions,
//! open wordlines/bitlines) with a typed [`fault::DefectMap`], a seedable
//! injection engine, and benign/functional classification against a
//! reference network — the substrate of the defect-aware repair pass in
//! `flowc-compact`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod fault;
pub mod metrics;
mod model;
pub mod rng;
pub mod svg;
pub mod variation;
pub mod verify;

pub use model::{Crossbar, DeviceAssignment, Evaluator, Port, XbarError};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, XbarError>;
