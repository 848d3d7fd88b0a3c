//! The correctness gate. Every distinct design is proven equivalent to the
//! generator's netlist with `verify_symbolic` and simulated against it with
//! `flowc_logic::sim` on 256 seeded vectors. The reference is the netlist
//! the BLIF text was written from, never anything the compiler produced.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use flowc_compact::verify_symbolic;
use flowc_conform::Rng;
use flowc_logic::Network;
use flowc_xbar::Crossbar;

/// The size figures a later pass must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Wordlines.
    pub rows: usize,
    /// Bitlines.
    pub cols: usize,
    /// Semiperimeter `rows + cols`.
    pub s: usize,
    /// Maximum dimension.
    pub d: usize,
}

/// Remembers the first shape of every design key.
#[derive(Default)]
pub struct Gate {
    first: HashMap<String, Shape>,
}

impl Gate {
    /// Checks the design `key` (a circuit plus its configuration). A key
    /// seen before with the same shape passes without work; a new key, or a
    /// known key whose shape changed, is proven and simulated again.
    /// Returns the proof's milliseconds when one ran.
    ///
    /// # Errors
    ///
    /// A description of the disagreement.
    pub fn check(
        &mut self,
        key: &str,
        shape: Shape,
        crossbar: &Crossbar,
        reference: &Network,
        seed: u64,
    ) -> Result<Option<f64>, String> {
        if self.first.get(key) == Some(&shape) {
            return Ok(None);
        }
        let prove_ms = prove(crossbar, reference).map_err(|e| format!("{key}: {e}"))?;
        simulate(crossbar, reference, seed).map_err(|e| format!("{key}: {e}"))?;
        self.first.entry(key.to_string()).or_insert(shape);
        Ok(Some(prove_ms))
    }
}

/// Proves `crossbar` equivalent to `reference` for every assignment;
/// returns the proof's wall time in milliseconds.
pub fn prove(crossbar: &Crossbar, reference: &Network) -> Result<f64, String> {
    if crossbar.num_inputs() != reference.num_inputs() {
        return Err(format!(
            "design has {} inputs, netlist {}",
            crossbar.num_inputs(),
            reference.num_inputs()
        ));
    }
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| verify_symbolic(crossbar, reference)))
        .map_err(|_| "verify_symbolic panicked".to_string())?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if !report.equivalent {
        return Err(format!(
            "not equivalent (counterexample {:?})",
            report.first_counterexample()
        ));
    }
    Ok(ms)
}

/// Compares the design with the netlist on 256 seeded input vectors.
fn simulate(crossbar: &Crossbar, reference: &Network, seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    for _ in 0..4 {
        let words: Vec<u64> = (0..reference.num_inputs()).map(|_| rng.next()).collect();
        let want = reference
            .simulate64(&words)
            .map_err(|e| format!("netlist simulation: {e}"))?;
        let got = crossbar
            .evaluate64(&words)
            .map_err(|e| format!("design evaluation: {e}"))?;
        if want != got {
            return Err("design disagrees with the netlist on a simulated vector".into());
        }
    }
    Ok(())
}
