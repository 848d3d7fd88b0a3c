//! Row/column-constrained synthesis (the paper's Section III note): fit a
//! function into progressively tighter crossbar bounding boxes until the
//! tool proves the request infeasible.
//!
//! Run with: `cargo run --release --example constrained_fit`

use std::time::Duration;

use flowc::budget::Budget;
use flowc::compact::{synthesize, synthesize_constrained, Config, ConstraintError, SizeLimits};
use flowc::logic::bench_suite;
use flowc::xbar::verify::verify_functional;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = bench_suite::by_name("int2float").expect("registered");
    let network = bench.network()?;
    let free = synthesize(&network, &Config::default())?;
    println!(
        "unconstrained design: {} × {} (S = {})\n",
        free.stats.rows, free.stats.cols, free.stats.semiperimeter
    );

    // Sweep a family of boxes: squares shrinking toward the lower bound.
    println!("{:>12} {:>14} {:>20}", "box", "result", "note");
    for side in [200usize, 140, 132, 120, 100, 60] {
        let limits = SizeLimits {
            max_rows: side,
            max_cols: side,
        };
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(10));
        match synthesize_constrained(&network, limits, &budget) {
            Ok(design) => {
                let report = verify_functional(&design.crossbar, &network, 256)?;
                println!(
                    "{:>9}²    {:>6} × {:<6} {:>20}",
                    side,
                    design.stats.rows,
                    design.stats.cols,
                    if report.is_valid() {
                        "fits, verified"
                    } else {
                        "INVALID"
                    }
                );
            }
            Err(ConstraintError::Infeasible {
                semiperimeter_lower_bound,
                ..
            }) => {
                println!(
                    "{:>9}²    {:>14} {:>20}",
                    side,
                    "—",
                    format!("infeasible (S ≥ {semiperimeter_lower_bound})")
                );
            }
            Err(ConstraintError::NotFound {
                best_rows,
                best_cols,
            }) => {
                println!(
                    "{:>9}²    {:>14} {:>20}",
                    side,
                    "—",
                    format!("not found (best {best_rows}×{best_cols})")
                );
            }
            Err(other) => return Err(other.into()),
        }
    }
    println!(
        "\nthe tool either delivers a fitting, verified design or explains the \
         failure — proven infeasibility (below the semiperimeter lower bound) \
         versus search-budget exhaustion."
    );
    Ok(())
}
