//! Communicator registry: context ids, membership, Cartesian topologies.
//!
//! A communicator's *contents* (context id + member list + optional
//! topology) are job-global state; each rank refers to them through its own
//! opaque handle. Derived communicators (dup/split/create/cart) are keyed
//! by `(parent context, collective sequence number, discriminator)` so that
//! every member rank — which by MPI rules issues the creation call at the
//! same point in its collective order — resolves to the same new context.

use crate::types::Rank;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Context id of `MPI_COMM_WORLD`.
pub const WORLD_CTX: u64 = 1;

/// Cartesian topology attached to a communicator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CartTopo {
    /// Grid extent per dimension.
    pub dims: Vec<u32>,
    /// Periodicity per dimension.
    pub periodic: Vec<bool>,
}

impl CartTopo {
    /// Coordinates of comm-local `rank` (row-major).
    pub fn coords(&self, rank: u32) -> Vec<u32> {
        let mut rem = rank;
        let mut coords = vec![0u32; self.dims.len()];
        for (i, d) in self.dims.iter().enumerate().rev() {
            coords[i] = rem % d;
            rem /= d;
        }
        coords
    }

    /// Comm-local rank at `coords` (row-major).
    pub fn rank(&self, coords: &[u32]) -> u32 {
        assert_eq!(coords.len(), self.dims.len());
        let mut r = 0u32;
        for (c, d) in coords.iter().zip(&self.dims) {
            assert!(c < d, "coordinate {c} out of range {d}");
            r = r * d + c;
        }
        r
    }

    /// `MPI_Cart_shift`: (source, destination) neighbors of `rank` along
    /// `dim` displaced by `disp`; `None` marks `MPI_PROC_NULL` at a
    /// non-periodic edge.
    pub fn shift(&self, rank: u32, dim: usize, disp: i32) -> (Option<u32>, Option<u32>) {
        let coords = self.coords(rank);
        let d = i64::from(self.dims[dim]);
        let step = |delta: i64| -> Option<u32> {
            let raw = i64::from(coords[dim]) + delta;
            let wrapped = if self.periodic[dim] {
                raw.rem_euclid(d)
            } else if (0..d).contains(&raw) {
                raw
            } else {
                return None;
            };
            let mut c = coords.clone();
            c[dim] = wrapped as u32;
            Some(self.rank(&c))
        };
        (step(-i64::from(disp)), step(i64::from(disp)))
    }
}

/// Shared contents of one communicator.
#[derive(Clone, Debug)]
pub struct CommInfo {
    /// Context id (the wire-level communicator identity).
    pub ctx: u64,
    /// Members as global job ranks, in comm-rank order.
    pub members: Vec<Rank>,
    /// Attached Cartesian topology, if any.
    pub cart: Option<CartTopo>,
}

impl CommInfo {
    /// Comm-local rank of global `rank`, if a member.
    pub fn local_rank(&self, rank: Rank) -> Option<u32> {
        self.members
            .iter()
            .position(|m| *m == rank)
            .map(|i| i as u32)
    }

    /// Size of the communicator.
    pub fn size(&self) -> u32 {
        self.members.len() as u32
    }
}

/// Key identifying a derived-communicator creation site.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum DeriveKey {
    /// `MPI_Comm_dup`.
    Dup {
        /// Parent context.
        parent: u64,
        /// Collective sequence number of the dup call.
        seq: u64,
    },
    /// `MPI_Comm_split`; one context per color.
    Split {
        /// Parent context.
        parent: u64,
        /// Collective sequence number.
        seq: u64,
        /// Split color.
        color: i32,
    },
    /// `MPI_Cart_create`.
    Cart {
        /// Parent context.
        parent: u64,
        /// Collective sequence number.
        seq: u64,
    },
}

struct Reg {
    infos: HashMap<u64, Arc<CommInfo>>,
    derived: HashMap<DeriveKey, u64>,
    next_ctx: u64,
}

/// Job-global communicator registry.
pub struct CommRegistry {
    inner: Mutex<Reg>,
}

impl CommRegistry {
    /// New registry with `MPI_COMM_WORLD` of `nranks` members.
    pub fn new(nranks: u32) -> CommRegistry {
        let world = Arc::new(CommInfo {
            ctx: WORLD_CTX,
            members: (0..nranks).collect(),
            cart: None,
        });
        let mut infos = HashMap::new();
        infos.insert(WORLD_CTX, world);
        CommRegistry {
            inner: Mutex::new(Reg {
                infos,
                derived: HashMap::new(),
                next_ctx: WORLD_CTX + 1,
            }),
        }
    }

    /// The world communicator contents.
    pub fn world(&self) -> Arc<CommInfo> {
        self.get(WORLD_CTX)
    }

    /// Contents of context `ctx`.
    pub fn get(&self, ctx: u64) -> Arc<CommInfo> {
        self.inner
            .lock()
            .infos
            .get(&ctx)
            .cloned()
            .unwrap_or_else(|| panic!("unknown communicator context {ctx}"))
    }

    /// Resolve (creating if first) the derived communicator at `key` with
    /// the given members/topology. Idempotent across member ranks.
    pub fn derive(
        &self,
        key: DeriveKey,
        members: Vec<Rank>,
        cart: Option<CartTopo>,
    ) -> Arc<CommInfo> {
        let mut reg = self.inner.lock();
        if let Some(ctx) = reg.derived.get(&key) {
            return reg.infos[ctx].clone();
        }
        let ctx = reg.next_ctx;
        reg.next_ctx += 1;
        let info = Arc::new(CommInfo { ctx, members, cart });
        reg.infos.insert(ctx, info.clone());
        reg.derived.insert(key, ctx);
        info
    }

    /// Number of registered communicators.
    pub fn len(&self) -> usize {
        self.inner.lock().infos.len()
    }

    /// Never empty (world always present).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// `MPI_Dims_create`: factor `nranks` into `ndims` balanced dimensions.
pub fn dims_create(nranks: u32, ndims: u32) -> Vec<u32> {
    assert!(ndims >= 1);
    let mut dims = vec![1u32; ndims as usize];
    let mut rem = nranks;
    // Greedy: repeatedly pull the largest prime factor into the smallest
    // dimension.
    let mut factors = Vec::new();
    let mut n = rem;
    let mut f = 2;
    while f * f <= n {
        while n.is_multiple_of(f) {
            factors.push(f);
            n /= f;
        }
        f += 1;
    }
    if n > 1 {
        factors.push(n);
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let i = (0..dims.len()).min_by_key(|i| dims[*i]).unwrap();
        dims[i] *= f;
        rem /= f;
    }
    debug_assert_eq!(dims.iter().product::<u32>(), nranks);
    let _ = rem;
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_membership() {
        let reg = CommRegistry::new(4);
        let w = reg.world();
        assert_eq!(w.ctx, WORLD_CTX);
        assert_eq!(w.members, vec![0, 1, 2, 3]);
        assert_eq!(w.local_rank(2), Some(2));
        assert_eq!(w.size(), 4);
    }

    #[test]
    fn derive_is_idempotent() {
        let reg = CommRegistry::new(4);
        let key = DeriveKey::Dup { parent: 1, seq: 3 };
        let a = reg.derive(key.clone(), vec![0, 1, 2, 3], None);
        let b = reg.derive(key, vec![0, 1, 2, 3], None);
        assert_eq!(a.ctx, b.ctx);
        assert_eq!(reg.len(), 2);
        let c = reg.derive(DeriveKey::Dup { parent: 1, seq: 4 }, vec![0, 1, 2, 3], None);
        assert_ne!(a.ctx, c.ctx);
    }

    #[test]
    fn split_colors_get_distinct_contexts() {
        let reg = CommRegistry::new(4);
        let a = reg.derive(
            DeriveKey::Split {
                parent: 1,
                seq: 0,
                color: 0,
            },
            vec![0, 1],
            None,
        );
        let b = reg.derive(
            DeriveKey::Split {
                parent: 1,
                seq: 0,
                color: 1,
            },
            vec![2, 3],
            None,
        );
        assert_ne!(a.ctx, b.ctx);
        assert_eq!(a.members, vec![0, 1]);
        assert_eq!(b.members, vec![2, 3]);
    }

    #[test]
    fn cart_coords_roundtrip() {
        let topo = CartTopo {
            dims: vec![2, 3, 4],
            periodic: vec![false, true, false],
        };
        for r in 0..24 {
            let c = topo.coords(r);
            assert_eq!(topo.rank(&c), r);
        }
        assert_eq!(topo.coords(0), vec![0, 0, 0]);
        assert_eq!(topo.coords(23), vec![1, 2, 3]);
    }

    #[test]
    fn cart_shift_periodic_and_edges() {
        let topo = CartTopo {
            dims: vec![3],
            periodic: vec![false],
        };
        // rank 0, +1 shift: source None (left edge), dest rank 1.
        assert_eq!(topo.shift(0, 0, 1), (None, Some(1)));
        assert_eq!(topo.shift(2, 0, 1), (Some(1), None));
        let ring = CartTopo {
            dims: vec![3],
            periodic: vec![true],
        };
        assert_eq!(ring.shift(0, 0, 1), (Some(2), Some(1)));
        assert_eq!(ring.shift(2, 0, 1), (Some(1), Some(0)));
    }

    #[test]
    fn dims_create_balanced() {
        assert_eq!(dims_create(8, 3), vec![2, 2, 2]);
        assert_eq!(dims_create(12, 2), vec![4, 3]);
        assert_eq!(dims_create(7, 2), vec![7, 1]);
        assert_eq!(dims_create(1, 3), vec![1, 1, 1]);
        let d = dims_create(2048, 3);
        assert_eq!(d.iter().product::<u32>(), 2048);
        assert!(d[0] <= 16);
    }
}
