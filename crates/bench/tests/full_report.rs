//! `redeval full-report`'s markdown is pinned byte for byte against the
//! committed copy next to this file: the paper's five designs under
//! monthly critical patching, with the Equation-(3)/(4) regions. The
//! golden corpus under `tests/golden/` holds registry JSON only, so the
//! copy lives here.

use std::process::Command;

#[test]
fn full_report_matches_its_committed_copy() {
    let out = Command::new(env!("CARGO_BIN_EXE_redeval"))
        .arg("full-report")
        .output()
        .expect("redeval runs");
    assert_eq!(out.status.code(), Some(0), "full-report exit status");
    let got = String::from_utf8(out.stdout).expect("the report is UTF-8");
    assert_eq!(
        got,
        include_str!("full_report.md"),
        "full-report output changed; if intentional, regenerate with \
         `cargo run -p redeval-bench --bin redeval -- full-report --out crates/bench/tests`"
    );
}
