//! A layer that writes only what `CheckpointStore` requires — `put`,
//! `get` — plus `below`, and takes every other method as provided, must
//! behave exactly like the store it wraps. Passing the shared conformance
//! suite proves the provided pass-through is complete.

use mana_core::error::StoreError;
use mana_core::image::ImageBytes;
use mana_core::{CheckpointStore, InMemStore};
use mana_sim::fs::IoShape;
use mana_sim::time::SimDuration;
use mana_store::{exercise_store, StoreChecks};

struct Bare(InMemStore);

impl CheckpointStore for Bare {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        self.0.put(path, data, logical_len, rank, shape)
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        self.0.get(path, rank, shape)
    }

    fn below(&self) -> Option<&dyn CheckpointStore> {
        Some(&self.0)
    }
}

#[test]
fn a_layer_writing_only_put_get_and_below_conforms() {
    exercise_store(&Bare(InMemStore::new()), StoreChecks::untimed());
}
