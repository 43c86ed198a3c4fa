//! Model configuration: rank programs and communicators.

/// A model instance.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Communicator membership: `comms[c]` lists member ranks.
    pub comms: Vec<Vec<usize>>,
    /// Per-rank program: the sequence of communicator ids on which the
    /// rank performs (wrapped) collectives. Compute steps are implicit
    /// between entries.
    pub programs: Vec<Vec<usize>>,
    /// The tree's nodes, each listing its ranks ascending, one
    /// sub-coordinator each; empty for the flat star.
    pub nodes: Vec<Vec<usize>>,
}

impl Spec {
    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.programs.len()
    }

    /// All ranks doing `k` collectives on one world communicator.
    pub fn uniform_world(nranks: usize, k: usize) -> Spec {
        Spec {
            comms: vec![(0..nranks).collect()],
            programs: vec![vec![0; k]; nranks],
            nodes: vec![],
        }
    }

    /// The same ranks under the tree coordinator, on `nodes`.
    pub fn on_nodes(self, nodes: Vec<Vec<usize>>) -> Spec {
        Spec { nodes, ..self }
    }

    /// Challenge III shape: two overlapping sub-communicators with
    /// interleaved collectives (rank sets {0,1} and {1,2} for 3 ranks).
    pub fn overlapping_comms() -> Spec {
        Spec {
            comms: vec![vec![0, 1, 2], vec![0, 1], vec![1, 2]],
            programs: vec![
                vec![1, 0],    // rank 0: comm {0,1}, then world
                vec![1, 2, 0], // rank 1: both subcomms, then world
                vec![2, 0],    // rank 2: comm {1,2}, then world
            ],
            nodes: vec![],
        }
    }

    /// Instance id of rank `r`'s `pc`-th collective: (comm, per-comm seq).
    pub fn instance_of(&self, r: usize, pc: usize) -> (usize, usize) {
        let comm = self.programs[r][pc];
        (comm, self.done_on(r, pc, comm))
    }

    /// Collectives on `comm` among rank `r`'s first `pc` program entries.
    pub fn done_on(&self, r: usize, pc: usize, comm: usize) -> usize {
        self.programs[r][..pc]
            .iter()
            .filter(|c| **c == comm)
            .count()
    }

    /// The coordinator endpoint `e` (a rank, then the sub-coordinators)
    /// talks to: the root (0), or the sub-coordinator of a rank's node.
    pub(crate) fn parent(&self, e: usize) -> usize {
        let node = self.nodes.iter().position(|ranks| ranks.contains(&e));
        node.map_or(0, |j| j + 1)
    }

    /// The endpoint of coordinator `k`'s `c`-th child.
    pub(crate) fn child(&self, k: usize, c: usize) -> usize {
        match (k, self.nodes.is_empty()) {
            (0, true) => c,
            (0, false) => self.nranks() + c,
            _ => self.nodes[k - 1][c],
        }
    }

    /// Validate well-formedness: every member of a comm performs the same
    /// number of collectives on it (required for instance alignment), and
    /// a tree's nodes hold every rank once.
    pub fn validate(&self) {
        let mut placed: Vec<usize> = self.nodes.concat();
        placed.sort_unstable();
        assert!(
            self.nodes.is_empty() || placed == (0..self.nranks()).collect::<Vec<_>>(),
            "nodes {:?} do not place every rank once",
            self.nodes
        );
        for (c, members) in self.comms.iter().enumerate() {
            let counts: Vec<usize> = members
                .iter()
                .map(|r| self.programs[*r].iter().filter(|x| **x == c).count())
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "comm {c} has mismatched collective counts {counts:?}"
            );
            for (r, prog) in self.programs.iter().enumerate() {
                if prog.contains(&c) {
                    assert!(
                        members.contains(&r),
                        "rank {r} uses comm {c} but is not a member"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_numbering() {
        let s = Spec::overlapping_comms();
        s.validate();
        assert_eq!(s.instance_of(1, 0), (1, 0));
        assert_eq!(s.instance_of(1, 1), (2, 0));
        assert_eq!(s.instance_of(1, 2), (0, 0));
        assert_eq!(s.instance_of(0, 1), (0, 0));
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn validation_catches_bad_programs() {
        let s = Spec {
            comms: vec![vec![0, 1]],
            programs: vec![vec![0, 0], vec![0]],
            nodes: vec![],
        };
        s.validate();
    }
}
