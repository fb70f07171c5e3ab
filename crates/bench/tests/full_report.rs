//! The `full_report` binary's markdown is pinned byte for byte against
//! the committed copy next to this file: the paper's five designs under
//! monthly critical patching, with the Equation-(3)/(4) regions. The
//! golden corpus under `tests/golden/` holds registry JSON only, so the
//! copy lives here.

use std::process::Command;

#[test]
fn full_report_matches_its_committed_copy() {
    let out = Command::new(env!("CARGO_BIN_EXE_full_report"))
        .output()
        .expect("full_report runs");
    assert_eq!(out.status.code(), Some(0), "full_report exit status");
    let got = String::from_utf8(out.stdout).expect("the report is UTF-8");
    assert_eq!(
        got,
        include_str!("full_report.md"),
        "full_report output changed; if intentional, regenerate with \
         `cargo run -p redeval-bench --bin full_report > crates/bench/tests/full_report.md`"
    );
}
