//! Gate-level logic networks, BLIF/PLA/Verilog I/O, simulation, and
//! benchmark circuit generators.
//!
//! This crate is the logic-synthesis substrate of the COMPACT reproduction.
//! The original paper consumes circuits in Verilog/BLIF/PLA form and converts
//! them to BDDs with ABC/CUDD; here, [`Network`] plays the role of the parsed
//! circuit, [`blif`] and [`pla`] provide the file formats, and [`bench_suite`]
//! regenerates the ISCAS85-like and EPFL-control-like benchmark population the
//! paper evaluates on.
//!
//! # Quick example
//!
//! ```
//! use flowc_logic::{Network, GateKind};
//!
//! // f = (a AND b) OR c  — the running example of the paper (Fig. 2).
//! let mut n = Network::new("fig2");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let c = n.add_input("c");
//! let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
//! let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
//! n.mark_output(f);
//!
//! assert_eq!(n.simulate(&[true, true, false]).unwrap(), vec![true]);
//! assert_eq!(n.simulate(&[false, true, false]).unwrap(), vec![false]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod netlist;
mod sim;

pub mod bench_suite;
pub mod blif;
pub mod cube;
pub mod pla;
pub mod verilog;
pub mod xform;

pub use error::LogicError;
pub use netlist::{Gate, GateKind, Net, NetId, Network};
pub use pla::MAX_TRUTH_VARS;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LogicError>;
