//! The committed reproduction card is what `manasim reproduce` prints.
//!
//! Every value on the card is simulated under a fixed seed, so any change
//! that moves a simulated cost, an image size or a protocol decision the
//! paper's figures read shows here as a changed line. A change that means
//! to move the card re-records it and so shows the new values in its
//! diff.

use std::process::Command;

const RERECORD: &str = "cargo run --release --bin manasim -- reproduce > REPRODUCTION.md";

#[test]
fn the_quick_card_is_reproduced_byte_for_byte() {
    let out = Command::new(env!("CARGO_BIN_EXE_manasim"))
        .arg("reproduce")
        .output()
        .expect("spawn manasim");
    assert!(
        out.status.success(),
        "manasim reproduce failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let card = String::from_utf8(out.stdout).expect("the card is UTF-8");
    let committed = include_str!("../REPRODUCTION.md");
    if card == committed {
        return;
    }
    let (old, new) = (committed.lines(), card.lines());
    let diff: Vec<String> = old
        .zip(new)
        .enumerate()
        .filter(|(_, (o, n))| o != n)
        .map(|(i, (o, n))| format!("line {}:\n- {o}\n+ {n}\n", i + 1))
        .collect();
    let (o, n) = (committed.lines().count(), card.lines().count());
    let diff = diff.concat() + &format!("({o} committed lines, {n} printed)\n");
    panic!(
        "REPRODUCTION.md differs from `manasim reproduce`:\n{diff}\nre-record it with: {RERECORD}"
    );
}
