//! The `exp` binary's command line: a missing or unknown experiment name is
//! a usage error (exit 2), never a silent no-op.

use std::process::Command;

fn exp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("run exp")
}

#[test]
fn unknown_or_missing_experiment_prints_usage_and_exits_2() {
    for args in [&["no_such_experiment", "--quick"][..], &[]] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: exp <name|all>"), "{stderr}");
        assert!(
            stderr.contains("schedule_all"),
            "usage lists the names: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing ran for {args:?}");
    }
}
