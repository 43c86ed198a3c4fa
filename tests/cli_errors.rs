//! `manasim`'s contract for bad input: exit code 2 with one `error:` line
//! or the usage text on stderr, never a panic and never a silent run of
//! the defaults. One valid run must still exit 0, so a parser that
//! refuses everything fails here too.

use std::process::{Command, Output};

fn manasim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_manasim"))
        .args(args)
        .output()
        .expect("spawn manasim")
}

#[test]
fn bad_input_exits_2_with_an_error_line() {
    let cases: &[&[&str]] = &[
        &["run", "--rank", "4"],
        &["run", "--ckpt-at-frac", "1.5"],
        &["run", "--ckpt-at-frac", "-1"],
        &["run", "--steps", "0", "--ckpt-at-frac", "0.5"],
        &["migrate", "--steps", "0"],
        &["chaos", "--ranks", "0"],
        &["chaos", "--replicas", "0"],
        &["chaos", "--nodes", "0"],
        &["chaos", "--steps", "0"],
        &["chaos", "--ranks", "64"],
        &["verify", "--ranks", "0"],
        &["reproduce", "--fig", "99"],
        &["reproduce", "--fig", "x"],
        &["reproduce", "--figure", "2"],
        &["fleet"],
    ];
    for args in cases {
        let out = manasim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error:") || stderr.contains("usage:"),
            "{args:?} named no error: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}

#[test]
fn a_valid_verify_exits_0() {
    let out = manasim(&["verify", "--ranks", "2", "--colls", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
