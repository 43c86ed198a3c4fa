//! §2.6: model-checking the two-phase protocol (the paper used
//! TLA+/PlusCal; this reproduction uses the explicit-state checker in
//! `mana-model-check`). Also demonstrates the checker catching the
//! weakened coordinator rule — evidence the verification has teeth.

use mana_bench::{banner, Table};
use mana_model_check::{check, check_under, Spec};

fn main() {
    banner(
        "§2.6",
        "protocol verification (explicit-state model checking)",
        "PlusCal reported no deadlocks or broken invariants",
    );
    let mut table = Table::new(&["configuration", "states", "transitions", "verdict"]);
    let configs: Vec<(String, Spec)> = vec![
        ("2 ranks, 1 collective".into(), Spec::uniform_world(2, 1)),
        ("2 ranks, 3 collectives".into(), Spec::uniform_world(2, 3)),
        ("3 ranks, 2 collectives".into(), Spec::uniform_world(3, 2)),
        ("4 ranks, 1 collective".into(), Spec::uniform_world(4, 1)),
        (
            "3 ranks, overlapping comms (Challenge III)".into(),
            Spec::overlapping_comms(),
        ),
    ];
    for (name, spec) in configs {
        let out = check(&spec);
        table.row(vec![
            name,
            out.states.to_string(),
            out.transitions.to_string(),
            if out.ok() {
                "no deadlocks, no broken invariants".to_string()
            } else {
                format!("VIOLATION: {:?}", out.violation)
            },
        ]);
    }
    // Negative control: drop the slip-prevention term of the do-ckpt rule.
    let out = check_under(&Spec::uniform_world(2, 1), |agg| agg.exit_phase2 == 0);
    table.row(vec![
        "2 ranks, 1 collective, WEAKENED rule (negative control)".into(),
        out.states.to_string(),
        out.transitions.to_string(),
        format!("{:?} (expected!)", out.violation.expect("must be caught")),
    ]);
    table.print();
    println!("\nThe weakened-rule violation is the stale in-phase-1 race (Challenge I);");
    println!("the implemented coordinator carries per-comm progress in replies to exclude it.");
}
