//! Counterexample path tracer (debug tooling).
use mana_core::coordinator::checkpoint_safe;
use mana_model_check::explore::successors;
use mana_model_check::spec::Spec;
use mana_model_check::state::State;
use std::collections::{HashMap, VecDeque};

fn main() {
    let spec = Spec::uniform_world(2, 1);
    let init = State::init(&spec);
    let mut seen: HashMap<State, Option<State>> = HashMap::new();
    let mut queue = VecDeque::new();
    seen.insert(init.clone(), None);
    queue.push_back(init);
    while let Some(s) = queue.pop_front() {
        match successors(&spec, &s, checkpoint_safe) {
            Err(v) => {
                println!("VIOLATION: {v:?}");
                let mut path = vec![s.clone()];
                let mut cur = s.clone();
                while let Some(Some(p)) = seen.get(&cur).cloned() {
                    path.push(p.clone());
                    cur = p;
                }
                path.reverse();
                for (i, st) in path.iter().enumerate() {
                    println!("--- step {i}");
                    for (r, rk) in st.ranks.iter().enumerate() {
                        println!(
                            "  rank{r}: pc={} {:?} intent={} dc={} owed={}",
                            rk.pc, rk.phase, rk.intent, rk.do_ckpt, rk.reply_owed
                        );
                    }
                    println!(
                        "  coord={:?} replies={:?} to_rank={:?} to_coord={:?}",
                        st.coord, st.replies, st.to_rank, st.to_coord
                    );
                }
                return;
            }
            Ok(succs) => {
                for t in succs {
                    if !seen.contains_key(&t) {
                        seen.insert(t.clone(), Some(s.clone()));
                        queue.push_back(t.clone());
                    }
                }
            }
        }
    }
    println!("no violation");
}
