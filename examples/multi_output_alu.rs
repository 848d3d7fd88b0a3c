//! Multi-output synthesis: map an 8-bit ALU (the c880-like benchmark) to a
//! single crossbar through a *shared* BDD, and compare against the
//! per-output ROBDD flow — Section VII / Table III of the paper, on a real
//! datapath workload.
//!
//! Run with: `cargo run --release --example multi_output_alu`

use flowc::baselines::robdd_diagonal::compact_per_output;
use flowc::budget::Budget;
use flowc::compact::{synthesize, Config};
use flowc::logic::bench_suite;
use flowc::xbar::metrics::CrossbarMetrics;
use flowc::xbar::verify::verify_functional;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = bench_suite::by_name("c880").expect("c880 is registered");
    let network = bench.network()?;
    println!(
        "c880-like ALU: {} inputs, {} outputs",
        network.num_inputs(),
        network.num_outputs()
    );

    // Shared-BDD flow (COMPACT's multi-output mode).
    let shared = synthesize(&network, &Config::default())?;
    println!(
        "\nSBDD flow   : {:>6} nodes -> {:>5} × {:<5} (S = {}, delay = {} steps)",
        shared.graph_nodes,
        shared.stats.rows,
        shared.stats.cols,
        shared.stats.semiperimeter,
        shared.metrics.delay_steps,
    );

    // Per-output ROBDD flow (the prior multi-output approach).
    let separate = compact_per_output(&network, &Config::default(), &Budget::unlimited())?;
    let sm = CrossbarMetrics::of(&separate.crossbar);
    println!(
        "ROBDD flow  : {:>6} nodes -> {:>5} × {:<5} (S = {}, delay = {} steps)",
        separate.merged_nodes, sm.rows, sm.cols, sm.semiperimeter, sm.delay_steps,
    );
    println!(
        "\nsharing saves {:.1}% of the nodes and {:.1}% of the semiperimeter",
        100.0 * (1.0 - shared.graph_nodes as f64 / separate.merged_nodes as f64),
        100.0 * (1.0 - shared.stats.semiperimeter as f64 / sm.semiperimeter as f64),
    );

    // Exercise the design: a few arithmetic spot checks through the fabric.
    // Inputs: a/b interleaved (16), op (3), cin, c/d interleaved (16).
    let run_alu = |av: u8, bv: u8, op: u8, cin: bool| -> Result<u8, Box<dyn std::error::Error>> {
        let mut assignment = Vec::new();
        for i in 0..8 {
            assignment.push(av >> i & 1 == 1);
            assignment.push(bv >> i & 1 == 1);
        }
        for i in 0..3 {
            assignment.push(op >> i & 1 == 1);
        }
        assignment.push(cin);
        assignment.extend(std::iter::repeat_n(false, 16));
        let outs = shared.crossbar.evaluate(&assignment)?;
        Ok((0..8).map(|i| (outs[i] as u8) << i).sum())
    };
    println!("\nALU spot checks through the crossbar:");
    println!("  100 + 55      = {}", run_alu(100, 55, 0b000, false)?);
    println!("  200 - 100     = {}", run_alu(200, 100, 0b001, false)?);
    println!(
        "  0xF0 & 0x3C   = {:#04x}",
        run_alu(0xF0, 0x3C, 0b010, false)?
    );
    println!(
        "  0xF0 ^ 0x3C   = {:#04x}",
        run_alu(0xF0, 0x3C, 0b100, false)?
    );

    // And a randomized validation sweep.
    let report = verify_functional(&shared.crossbar, &network, 500)?;
    println!(
        "\nrandomized validation: {} assignments, {}",
        report.checked,
        if report.is_valid() {
            "all match"
        } else {
            "MISMATCHES FOUND"
        }
    );
    Ok(())
}
