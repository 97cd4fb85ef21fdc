//! Command-line contracts of the two harness binaries: `fm-experiments`
//! applies `--full` as the base whatever the flag order, and `fm-probe`
//! refuses bad input with a message instead of a default or a panic.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

#[test]
fn full_is_a_base_that_later_and_earlier_knobs_override() {
    let cases: [(&[&str], &[&str]); 3] = [
        (
            &["--seed", "7", "--full", "--figure", "fig3"],
            &["seed=7", "rows(US)=370000,", "repeats=50"],
        ),
        (
            &["--figure", "fig3", "--full", "--seed", "7"],
            &["seed=7", "rows(US)=370000,", "repeats=50"],
        ),
        (
            &["--rows", "1000", "--full", "--figure", "fig3"],
            &["seed=42", "rows(US)=1000,", "repeats=50"],
        ),
    ];
    for (args, expected) in cases {
        let out = run(env!("CARGO_BIN_EXE_fm-experiments"), args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let header = stdout.lines().next().expect("header line");
        for field in expected {
            assert!(header.contains(field), "{args:?}: {header}");
        }
    }
}

#[test]
fn probe_refuses_bad_values_without_panicking() {
    for args in [
        &["--rows", "abc"][..],
        &["--dim", "6"],
        &["--task", "ridge"],
        &["--country", "fr"],
        &["--epsilon", "-1"],
        &["--rows", "3"],
        &["--repeats", "0"],
        &["--rows"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_fm-probe"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
