//! The `design_space` binary's bound argument takes the range of the
//! `redeval --max-redundancy` flag: a malformed or out-of-range bound is
//! a usage error (exit 2, nothing on stdout), never a silent default.

use std::process::{Command, Output};

fn design_space(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_design_space"))
        .args(args)
        .output()
        .expect("design_space runs")
}

#[test]
fn malformed_or_out_of_range_bounds_are_usage_errors() {
    for arg in ["0", "9", "x"] {
        let out = design_space(&[arg]);
        assert_eq!(out.status.code(), Some(2), "design_space {arg}");
        assert!(out.stdout.is_empty(), "design_space {arg} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("max_redundancy") && stderr.contains(&format!("`{arg}`")),
            "design_space {arg}: {stderr}"
        );
    }
}

#[test]
fn the_default_and_an_in_range_bound_report_their_space() {
    for (args, bound, designs) in [(&[][..], "3", "81"), (&["2"][..], "2", "16")] {
        let out = design_space(args);
        assert_eq!(out.status.code(), Some(0), "design_space {args:?}");
        let text = String::from_utf8(out.stdout).expect("the report is UTF-8");
        let has =
            |key: &str, value: &str| text.lines().any(|l| l.split_whitespace().eq([key, value]));
        assert!(
            has("max_redundancy", bound),
            "design_space {args:?}: {text}"
        );
        assert!(has("designs", designs), "design_space {args:?}: {text}");
    }
}
