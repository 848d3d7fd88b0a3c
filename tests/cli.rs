//! The `flowc` binary's argument handling, driven as a user runs it.

use std::process::{Command, Output};

fn flowc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flowc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("flowc runs")
}

fn synth_with_time_limit(secs: &str) -> Output {
    flowc(&["synth", "testdata/adder4.blif", "--time-limit", secs])
}

/// `--time-limit` takes seconds as `--deadline` does: fractions are
/// accepted (a sweep point's 0.5 s budget), negative values are not, and
/// a value past what the clock represents means no limit.
#[test]
fn time_limit_accepts_fractional_seconds_and_rejects_negative_ones() {
    for secs in ["0.5", "0", "18446744073709551615"] {
        let out = synth_with_time_limit(secs);
        assert_eq!(out.status.code(), Some(0), "--time-limit {secs}: {out:?}");
    }
    let out = synth_with_time_limit("-1");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--time-limit must be a non-negative number of seconds"),
        "{stderr}"
    );
}
