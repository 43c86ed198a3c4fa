//! `store_put_32m` and `store_get_32m` — the checkpoint data path without a
//! simulator: one address space of 16 dense regions × 2 MiB (32 MiB, 16× the
//! reference box's 2 MiB per-core L2; its shared L3 is far larger, so no
//! bandwidth figure is claimed) written to, and read back from, two store
//! stacks:
//!
//! * stack A — the README's production stack
//!   `Journaled(Compressing(Delta(Fs)))`;
//! * stack B — `Cas(InMem)`.
//!
//! The put workload writes five generations per rep into fresh stacks: a
//! priming full image, then epochs with 1 %, 10 %, 50 % and 100 % of the
//! pages dirtied in a seeded stride — `snapshot_half_tracked → encode_shared
//! → put → clear_dirty`. `sim.memory`, `core.image` and each `mana-store`
//! wrapper do the work *as writers*, with dense data and mixed dirtiness: the
//! workload on which "O(dirty)" through a composed stack either shows or
//! does not. The get workload builds the same five generations once and
//! reads every one of them back per rep — `get → decode_shared →
//! restore_region` — so delta-chain replay, CAS reassembly and journal
//! validation are measured as readers. A put-side gain bought by deferring
//! work to read time shows there as a loss.
//!
//! No simulated thread runs, so these two workloads are not pinned.

use super::{by_rep, median_over_reps, seeded, Rep, Trace, Workload};
use crate::schema;
use crate::span::{self, Span, SpanStore};
use mana_core::buffer::PairCounters;
use mana_core::image::{CheckpointImage, DecodeStats};
use mana_core::{CheckpointStore, FsStore, InMemStore};
use mana_sim::fs::{FsConfig, IoShape};
use mana_sim::memory::{AddressSpace, Backing, DenseBuf, Half, HalfSnapshot, RegionKind, PAGE};
use mana_sim::rng::splitmix64;
use mana_sim::scatter::{reset_shared_flatten_bytes, shared_flatten_bytes};
use mana_store::{
    CasConfig, CasStore, CompressingStore, CompressionConfig, DeltaConfig, DeltaStore,
    JournaledStore,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const REGIONS: u64 = 16;
const PAGES_PER_REGION: u64 = 512;
const TOTAL_PAGES: u64 = REGIONS * PAGES_PER_REGION;
/// Dirty percentage of each timed epoch, in order; also the span tag.
const DIRTY_PCT: [u32; 4] = [1, 10, 50, 100];
/// Generations per stack: the priming full image plus one per epoch.
const GENERATIONS: u64 = 1 + DIRTY_PCT.len() as u64;
const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};
/// Layers of stack A, outermost first.
const STACK_A: [&str; 4] = ["store.journal", "store.compress", "store.delta", "store.fs"];

fn image_path(generation: u64) -> String {
    format!("ledger/ckpt_{generation}/rank_0.mana")
}

fn image_around(generation: u64, snap: HalfSnapshot) -> CheckpointImage {
    CheckpointImage {
        rank: 0,
        nranks: 1,
        ckpt_id: generation,
        app_name: "ledger".into(),
        seed: 1,
        regions: snap.regions,
        upper_cursor: 0x7f00_0000_0000,
        comms: Vec::new(),
        groups: Vec::new(),
        dtypes: Vec::new(),
        log: Vec::new(),
        counters: PairCounters::default(),
        buffered: Vec::new(),
        pending: Vec::new(),
        ops_done: generation,
        allocs: Vec::new(),
        slots: Vec::new(),
        slot_seq: 0,
        slot_seq_at_step: 0,
        world_virt: 0,
        rebind: Vec::new(),
        step_created: Vec::new(),
        dirty: snap.dirty,
    }
}

/// The live address space and its seeded page-touch pattern.
struct Space {
    seed: u64,
    mem: AddressSpace,
    region_starts: Vec<u64>,
    epochs_touched: u64,
}

impl Space {
    fn build(seed: u64) -> Space {
        let mem = AddressSpace::new();
        mem.set_lineage(splitmix64(seed ^ 0x1ed6e7));
        let region_starts = (0..REGIONS)
            .map(|i| {
                let mut buf = DenseBuf::zeroed((PAGES_PER_REGION * PAGE) as usize);
                for (k, word) in buf.as_bytes_mut().chunks_exact_mut(8).enumerate() {
                    word.copy_from_slice(&splitmix64(seed ^ (i << 40) ^ k as u64).to_le_bytes());
                }
                mem.map(
                    Half::Upper,
                    RegionKind::Mmap,
                    &format!("state{i}"),
                    PAGES_PER_REGION * PAGE,
                    Backing::Dense(buf),
                )
                .expect("map a dense region")
            })
            .collect();
        Space {
            seed,
            mem,
            region_starts,
            epochs_touched: 0,
        }
    }

    /// Write one word into `pct` % of the pages: a fixed stride across all
    /// regions (the worst case for region-granular schemes) from a seeded
    /// starting page, at a seeded offset inside each page.
    fn touch(&mut self, pct: u32) {
        self.epochs_touched += 1;
        let salt = 0x70c4 + self.epochs_touched;
        let target = (TOTAL_PAGES * u64::from(pct) / 100).max(1);
        let stride = TOTAL_PAGES / target;
        let first = seeded(self.seed, salt, stride);
        let _s = span::open("sim.memory", "touch");
        for k in 0..target {
            let page = (first + k * stride) % TOTAL_PAGES;
            let addr = self.region_starts[(page / PAGES_PER_REGION) as usize]
                + (page % PAGES_PER_REGION) * PAGE
                + seeded(self.seed, salt ^ k, PAGE / 8) * 8;
            self.mem
                .write_bytes(
                    addr,
                    &splitmix64(self.seed ^ salt ^ (k << 20)).to_le_bytes(),
                )
                .expect("touch a mapped page");
        }
    }

    fn checksum(&self) -> u64 {
        self.mem.checksum_half(Half::Upper)
    }
}

/// `store` behind a [`SpanStore`] in the traced pass, bare otherwise.
fn layer<S: CheckpointStore + 'static>(name: &'static str, store: S) -> Arc<dyn CheckpointStore> {
    if span::enabled() {
        Arc::new(SpanStore::new(name, store))
    } else {
        Arc::new(store)
    }
}

/// Both store stacks, plus handles to the two layers that keep counters.
struct Stacks {
    a: Arc<dyn CheckpointStore>,
    b: Arc<dyn CheckpointStore>,
    delta: Arc<DeltaStore<Arc<dyn CheckpointStore>>>,
    cas: Arc<CasStore<InMemStore>>,
}

impl Stacks {
    fn build() -> Stacks {
        let fs = layer("store.fs", FsStore::with_config(FsConfig::default()));
        let delta = Arc::new(DeltaStore::new(DeltaConfig::default(), fs));
        let compress = CompressingStore::new(
            CompressionConfig::default(),
            layer("store.delta", delta.clone()),
        );
        let journal = JournaledStore::new(layer("store.compress", compress));
        let cas = Arc::new(CasStore::new(CasConfig::default(), InMemStore::new()));
        Stacks {
            a: layer("store.journal", journal),
            b: layer("store.cas", cas.clone()),
            delta,
            cas,
        }
    }

    fn both(&self) -> [&Arc<dyn CheckpointStore>; 2] {
        [&self.a, &self.b]
    }

    /// Checkpoint the live space into both stacks as `generation`; returns
    /// the modeled put time summed over the two and the logical bytes
    /// offered to each.
    fn write(&self, space: &Space, generation: u64) -> (f64, u64) {
        let snap = {
            let mut s = span::open("sim.memory", "snapshot");
            let snap = space.mem.snapshot_half_tracked(Half::Upper);
            s.input(snap.stats.bytes_copied, TOTAL_PAGES * PAGE);
            snap
        };
        let image = Arc::new(image_around(generation, snap));
        let mut sim_s = 0.0;
        for store in self.both() {
            let encoded = {
                let _s = span::open("core.image", "encode");
                CheckpointImage::encode_shared(&image)
            };
            sim_s += store
                .put(
                    &image_path(generation),
                    encoded,
                    image.logical_bytes(),
                    0,
                    SHAPE,
                )
                .as_secs_f64();
        }
        let _s = span::open("sim.memory", "clear_dirty");
        space.mem.clear_dirty(Half::Upper);
        (sim_s, image.logical_bytes())
    }
}

/// One generation read back into a fresh address space.
struct Restored {
    mem: AddressSpace,
    sim_s: f64,
    host_s: f64,
    decode: DecodeStats,
}

fn read(store: &dyn CheckpointStore, generation: u64) -> Option<Restored> {
    let t0 = Instant::now();
    let (bytes, sim) = store.get(&image_path(generation), 0, SHAPE).ok()?;
    let (image, decode) = {
        let _s = span::open("core.image", "decode");
        CheckpointImage::decode_shared(&bytes).ok()?
    };
    let mem = AddressSpace::new();
    {
        let _s = span::open("sim.memory", "install");
        for region in &image.regions {
            mem.restore_region(region).ok()?;
        }
    }
    Some(Restored {
        host_s: t0.elapsed().as_secs_f64(),
        mem,
        sim_s: sim.as_secs_f64(),
        decode,
    })
}

/// Oracle of both store workloads: the generation could be read back and
/// restores to the checksum the live space had when it was written.
pub fn round_trips(expected_sum: u64, restored_sum: Option<u64>) -> bool {
    restored_sum == Some(expected_sum)
}

/// Median over reps of the summed self time (ms) of `layer`'s `op` spans,
/// optionally only those tagged `tag`.
fn self_ms(
    spans: &[Span],
    own: &BTreeMap<u32, u64>,
    layer: &str,
    op: &str,
    tag: Option<u32>,
) -> f64 {
    median_over_reps(&by_rep(spans, layer, op), |rep| {
        rep.iter()
            .filter(|s| tag.is_none_or(|t| t == s.tag))
            .map(|s| own[&s.id] as f64 / 1e6)
            .sum()
    })
}

/// Counts of the most recent put rep.
struct PutCounts {
    /// Bytes of shared pages memcpy'd during the rep.
    flattened: u64,
    /// Share of the pages `DeltaStore` digested in the 1 %-dirty epoch.
    digested_d1: f64,
    /// `CasStats::stored_fraction` of stack B.
    cas_stored: f64,
    /// Bytes held at the bottom of stack A ÷ logical bytes offered to it.
    held: f64,
}

/// `store_put_32m`; see the module docs.
pub struct Put {
    seed: u64,
    /// The live space a rep starts from. Every rep starts from the same
    /// contents, so every rep does the same work.
    space: Option<Space>,
    last: Option<PutCounts>,
}

impl Put {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Put {
        Put {
            seed,
            space: None,
            last: None,
        }
    }
}

impl Workload for Put {
    fn pinned(&self) -> bool {
        false
    }

    fn set_up(&mut self) {
        self.space = Some(Space::build(self.seed));
    }

    fn rep(&mut self) -> Rep {
        let mut space = self.space.take().expect("set_up ran");
        let stacks = Stacks::build();
        reset_shared_flatten_bytes();
        let first = 1;
        let mut digested_d1 = 0.0;

        let t0 = Instant::now();
        span::set_tag(0);
        let (mut sim_cost_s, mut offered) = stacks.write(&space, first);
        for (i, pct) in DIRTY_PCT.into_iter().enumerate() {
            span::set_tag(pct);
            space.touch(pct);
            let before = stacks.delta.put_stats();
            let (sim_s, logical) = stacks.write(&space, first + 1 + i as u64);
            sim_cost_s += sim_s;
            offered += logical;
            if pct == 1 {
                let after = stacks.delta.put_stats();
                digested_d1 =
                    (after.pages_digested - before.pages_digested) as f64 / TOTAL_PAGES as f64;
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        span::set_tag(0);

        // The newest generation of each stack restores to the live state.
        let live = space.checksum();
        let newest = first + GENERATIONS - 1;
        let restored: Vec<Option<u64>> = stacks
            .both()
            .into_iter()
            .map(|s| read(s.as_ref(), newest).map(|r| r.mem.checksum_half(Half::Upper)))
            .collect();
        let flattened = shared_flatten_bytes();
        let ok = restored.iter().all(|r| round_trips(live, *r));

        let held: u64 = stacks
            .a
            .list()
            .iter()
            .map(|p| stacks.a.logical_len(p).unwrap_or(0))
            .sum();
        self.last = Some(PutCounts {
            flattened,
            digested_d1,
            cas_stored: stacks.cas.stats().stored_fraction(),
            held: held as f64 / offered.max(1) as f64,
        });
        // The next rep starts from the same contents, rebuilt off the clock.
        drop((space, stacks));
        self.set_up();
        Rep {
            wall_s,
            sim_cost_s,
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    fn layers(&mut self, trace: &Trace<'_>) -> Vec<(&'static str, f64)> {
        let Some(PutCounts {
            flattened,
            digested_d1,
            cas_stored,
            held,
        }) = self.last
        else {
            return Vec::new();
        };
        let spans = trace.spans;
        let own = span::self_share(spans, Span::host_ns);
        let own_sim = span::self_share(spans, |s| s.sim_ns);

        let snapshot = |pct| self_ms(spans, &own, "sim.memory", "snapshot", Some(pct));
        let copied_d1 = spans
            .iter()
            .rfind(|s| s.rep > 0 && s.layer == "sim.memory" && s.op == "snapshot" && s.tag == 1)
            .map_or(0.0, |s| s.bytes_in as f64 / s.logical.max(1) as f64);
        let mut out = vec![
            ("sim.memory.snapshot_ms.d1", snapshot(1)),
            ("sim.memory.snapshot_ms.d10", snapshot(10)),
            ("sim.memory.snapshot_ms.d50", snapshot(50)),
            ("sim.memory.snapshot_ms.d100", snapshot(100)),
            ("sim.memory.copied_frac.d1", copied_d1),
            (
                "core.image.encode_ms",
                self_ms(spans, &own, "core.image", "encode", None),
            ),
            ("core.image.flatten_bytes", flattened as f64),
            ("store.delta.digested_frac.d1", digested_d1),
            ("store.fs.held_frac", held),
            (
                "store.cas.put_ms.d1",
                self_ms(spans, &own, "store.cas", "put", Some(1)),
            ),
            (
                "store.cas.put_ms.d100",
                self_ms(spans, &own, "store.cas", "put", Some(100)),
            ),
            ("store.cas.stored_frac", cas_stored),
        ];

        // Stack A, layer by layer. `out_frac` compares the logical length a
        // layer was charged for with the one it charged the layer below, in
        // the last rep's 1 %-dirty epoch.
        let last_rep = spans.iter().map(|s| s.rep).max().unwrap_or(0);
        let logical_d1 = |layer: &str| {
            spans
                .iter()
                .find(|s| s.rep == last_rep && s.tag == 1 && s.layer == layer && s.op == "put")
                .map_or(0.0, |s| s.logical as f64)
        };
        for (i, layer) in STACK_A.into_iter().enumerate() {
            let name = |metric: &str| schema::layer_metric(&format!("{layer}.{metric}"));
            out.push((
                name("put_self_ms.d1"),
                self_ms(spans, &own, layer, "put", Some(1)),
            ));
            out.push((
                name("put_self_ms.d100"),
                self_ms(spans, &own, layer, "put", Some(100)),
            ));
            out.push((
                name("sim_put_s"),
                self_ms(spans, &own_sim, layer, "put", None) / 1e3,
            ));
            if let Some(below) = STACK_A.get(i + 1) {
                out.push((
                    name("out_frac.d1"),
                    logical_d1(below) / logical_d1(layer).max(1.0),
                ));
            }
        }
        out
    }
}

/// Counts of the most recent get rep.
struct GetCounts {
    /// Bytes of shared pages memcpy'd during the rep.
    flattened: u64,
    /// Bytes `decode_shared` copied out of the stored scatters.
    copied: u64,
    /// Share of the dense pages installed as shared handles.
    shared_frac: f64,
}

/// `store_get_32m`; see the module docs.
pub struct Get {
    seed: u64,
    /// Stacks holding every generation, and each generation's live checksum.
    built: Option<(Stacks, Vec<u64>)>,
    last: Option<GetCounts>,
}

impl Get {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Get {
        Get {
            seed,
            built: None,
            last: None,
        }
    }
}

impl Workload for Get {
    fn pinned(&self) -> bool {
        false
    }

    fn set_up(&mut self) {
        let mut space = Space::build(self.seed);
        let stacks = Stacks::build();
        let mut sums = Vec::new();
        for generation in 1..=GENERATIONS {
            if generation > 1 {
                space.touch(DIRTY_PCT[generation as usize - 2]);
            }
            stacks.write(&space, generation);
            sums.push(space.checksum());
        }
        self.built = Some((stacks, sums));
    }

    fn rep(&mut self) -> Rep {
        let (stacks, sums) = self.built.as_ref().expect("set_up ran");
        reset_shared_flatten_bytes();
        let (mut wall_s, mut sim_cost_s, mut ok) = (0.0, 0.0, true);
        let (mut copied, mut shared) = (0, 0);
        for store in stacks.both() {
            for (generation, expected) in (1..).zip(sums) {
                // Timed: get → decode → install. The checksum walk that
                // verifies it is the oracle's own work.
                let restored = read(store.as_ref(), generation);
                if let Some(r) = &restored {
                    wall_s += r.host_s;
                    sim_cost_s += r.sim_s;
                    copied += r.decode.bytes_copied;
                    shared += r.decode.pages_shared;
                }
                ok &= round_trips(
                    *expected,
                    restored.map(|r| r.mem.checksum_half(Half::Upper)),
                );
            }
        }
        self.last = Some(GetCounts {
            flattened: shared_flatten_bytes(),
            copied,
            shared_frac: shared as f64 / (2 * GENERATIONS * TOTAL_PAGES) as f64,
        });
        Rep {
            wall_s,
            sim_cost_s,
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    fn layers(&mut self, trace: &Trace<'_>) -> Vec<(&'static str, f64)> {
        let Some(GetCounts {
            flattened,
            copied,
            shared_frac,
        }) = self.last
        else {
            return Vec::new();
        };
        let spans = trace.spans;
        let own = span::self_share(spans, Span::host_ns);
        let get = |layer| self_ms(spans, &own, layer, "get", None);
        vec![
            ("store.journal.get_self_ms", get("store.journal")),
            ("store.compress.get_self_ms", get("store.compress")),
            ("store.delta.get_self_ms", get("store.delta")),
            ("store.fs.get_self_ms", get("store.fs")),
            ("store.cas.get_ms", get("store.cas")),
            (
                "core.image.decode_ms",
                self_ms(spans, &own, "core.image", "decode", None),
            ),
            ("core.image.decode_copied_bytes", copied as f64),
            ("core.image.flatten_bytes", flattened as f64),
            (
                "sim.memory.install_ms",
                self_ms(spans, &own, "sim.memory", "install", None),
            ),
            ("sim.memory.pages_shared_frac", shared_frac),
        ]
    }
}
