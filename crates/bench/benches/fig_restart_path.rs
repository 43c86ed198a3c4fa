//! Restart read-path sweep: the zero-copy twin of `fig_ckpt_path`.
//!
//! One full checkpoint image travels through each image-aware store
//! tier — `InMemStore`, `FsStore`,
//! `DeltaStore<InMemStore>`, `CasStore<InMemStore>` — and is restored
//! into a fresh `AddressSpace` via `CheckpointImage::decode_shared` on
//! the get-returned scatter. The `shared_flatten_bytes()` counter
//! brackets the get→decode→restore window: stored rope pages must be
//! installed as shared handles end to end, with **zero** memcpys of
//! clean page bytes. The table reports pages shared, decode copy
//! traffic (metadata only — zero when the store hands back an attached
//! image), the modeled read time, and measured wall throughput.
//!
//! Every run writes the machine-readable `BENCH_restart_path.json`.
//! Run with `--test` for the CI smoke configuration.

use mana_bench::{banner, Scale, Table};
use mana_core::buffer::PairCounters;
use mana_core::image::CheckpointImage;
use mana_core::{CheckpointStore, FsStore, InMemStore};
use mana_sim::fs::{FsConfig, IoShape};
use mana_sim::memory::{AddressSpace, Backing, DenseBuf, Half, HalfSnapshot, RegionKind, PAGE};
use mana_sim::rng::splitmix64;
use mana_sim::scatter::{reset_shared_flatten_bytes, shared_flatten_bytes};
use mana_store::{CasConfig, CasStore, DeltaConfig, DeltaStore};
use std::sync::Arc;
use std::time::Instant;

const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

fn image_around(ckpt_id: u64, snap: HalfSnapshot) -> CheckpointImage {
    CheckpointImage {
        rank: 0,
        nranks: 1,
        ckpt_id,
        app_name: "fig-restart-path".into(),
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
        ops_done: ckpt_id,
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

/// A primed address space: `nregions` dense regions with derived
/// contents, every page committed.
fn build_space(nregions: u64, pages_per_region: u64) -> AddressSpace {
    let a = AddressSpace::new();
    a.set_lineage(0xF17);
    for i in 0..nregions {
        let len = (pages_per_region * PAGE) as usize;
        let mut buf = DenseBuf::zeroed(len);
        for (k, chunk) in buf.as_bytes_mut().chunks_mut(8).enumerate() {
            let v = splitmix64(k as u64 ^ (i << 32) ^ 0xBEEF).to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
        a.map(
            Half::Upper,
            RegionKind::Mmap,
            &format!("state{i}"),
            len as u64,
            Backing::Dense(buf),
        )
        .expect("map region");
    }
    a
}

struct RestoreResult {
    store: &'static str,
    pages_shared: u64,
    bytes_copied: u64,
    /// Shared rope bytes memcpy'd inside the get→decode→restore window
    /// (the zero-copy claim: must be 0).
    flatten_bytes: u64,
    modeled_read: mana_sim::time::SimDuration,
    wall: std::time::Duration,
    mbps: f64,
    attached: bool,
}

/// Round one image through `store` and restore it zero-copy, bracketing
/// the window with the flatten counter.
fn restore_through(
    name: &'static str,
    store: &dyn CheckpointStore,
    img: &Arc<CheckpointImage>,
    src: &AddressSpace,
    dense_bytes: u64,
) -> RestoreResult {
    let path = "fig-restart-path/ckpt_1/rank_0.mana";
    store.put(
        path,
        CheckpointImage::encode_shared(img),
        img.logical_bytes(),
        0,
        SHAPE,
    );

    reset_shared_flatten_bytes();
    let t0 = Instant::now();
    let (bytes, modeled_read) = store.get(path, 0, SHAPE).expect("get back");
    let attached = bytes.image().is_some();
    let (back, stats) = CheckpointImage::decode_shared(&bytes).expect("shared decode");
    let b = AddressSpace::new();
    for r in &back.regions {
        b.restore_region(r).expect("restore region");
    }
    let wall = t0.elapsed();
    let flatten_bytes = shared_flatten_bytes();

    // Fidelity check — deliberately outside the counter window (the
    // checksum walks pages read-only; it must not thaw anything either,
    // so a flatten here would also be a bug, but it is not the claim
    // this bench brackets).
    assert_eq!(
        b.checksum_half(Half::Upper),
        src.checksum_half(Half::Upper),
        "{name}: restored space diverged from the source"
    );

    let secs = wall.as_secs_f64().max(1e-9);
    RestoreResult {
        store: name,
        pages_shared: stats.pages_shared,
        bytes_copied: stats.bytes_copied,
        flatten_bytes,
        modeled_read,
        wall,
        mbps: dense_bytes as f64 / 1e6 / secs,
        attached,
    }
}

fn write_json(results: &[RestoreResult], dense_mb: u64) {
    let mut s = String::from("{\n  \"bench\": \"restart_path\",\n");
    s.push_str(&format!("  \"dense_mb\": {dense_mb},\n  \"stores\": [\n"));
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"store\": \"{}\", \"attached\": {}, \"pages_shared\": {}, \
             \"bytes_copied\": {}, \"flatten_bytes\": {}, \"modeled_read_s\": {:.6}, \
             \"wall_ms\": {:.3}, \"mb_per_s\": {:.1}}}{}\n",
            r.store,
            r.attached,
            r.pages_shared,
            r.bytes_copied,
            r.flatten_bytes,
            r.modeled_read.as_secs_f64(),
            r.wall.as_secs_f64() * 1e3,
            r.mbps,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write("BENCH_restart_path.json", s).expect("write BENCH_restart_path.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = Scale::from_env();
    banner(
        "Restart read path",
        "zero-copy restore through every image-aware store",
        "stored pages install as shared handles — no clean-page memcpy between store and memory",
    );
    let (nregions, pages_per_region) = if smoke {
        (8, 128) // 4 MiB
    } else if scale.full {
        (16, 2048) // 128 MiB
    } else {
        (8, 512) // 16 MiB
    };
    let total_pages = nregions * pages_per_region;
    let dense_bytes = total_pages * PAGE;
    let dense_mb = dense_bytes >> 20;
    println!(
        "address space: {} regions x {} pages = {} MB dense\n",
        nregions, pages_per_region, dense_mb
    );

    let src = build_space(nregions, pages_per_region);
    let img = Arc::new(image_around(1, src.snapshot_half_tracked(Half::Upper)));

    let mut results = Vec::new();
    let mut table = Table::new(&[
        "store",
        "image attached",
        "pages shared",
        "copied (B)",
        "flattened (B)",
        "modeled read",
        "wall (ms)",
        "wall MB/s",
    ]);
    let delta = DeltaStore::new(DeltaConfig::default(), InMemStore::new());
    let cas = CasStore::new(CasConfig::default(), InMemStore::new());
    let mem = InMemStore::new();
    let fs = FsStore::with_config(FsConfig::default());
    let stores: [(&'static str, &dyn CheckpointStore); 4] = [
        ("InMem", &mem),
        ("Fs", &fs),
        ("Delta(InMem)", &delta),
        ("Cas(InMem)", &cas),
    ];
    for (name, store) in stores {
        let r = restore_through(name, store, &img, &src, dense_bytes);
        table.row(vec![
            r.store.to_string(),
            r.attached.to_string(),
            r.pages_shared.to_string(),
            r.bytes_copied.to_string(),
            r.flatten_bytes.to_string(),
            format!("{}", r.modeled_read),
            format!("{:.2}", r.wall.as_secs_f64() * 1e3),
            format!("{:.0}", r.mbps),
        ]);
        results.push(r);
    }
    table.print();
    println!(
        "\n(\"pages shared\" = stored rope pages installed as shared handles by decode+restore;"
    );
    println!(" \"copied\" = decode copy traffic — metadata only, zero on the attached-image path;");
    println!(
        " \"flattened\" = shared rope bytes memcpy'd in the restore window — the zero-copy claim)"
    );

    write_json(&results, dense_mb);
    println!("wrote BENCH_restart_path.json");

    if smoke {
        let total = total_pages;
        for r in &results {
            assert_eq!(
                r.flatten_bytes, 0,
                "{}: restore window flattened {} shared rope bytes — the zero-copy \
                 read path memcpy'd clean stored pages",
                r.store, r.flatten_bytes
            );
            assert_eq!(
                r.pages_shared, total,
                "{}: expected every dense page installed as a shared handle \
                 ({} of {} shared)",
                r.store, r.pages_shared, total
            );
        }
        for r in &results {
            if r.attached {
                assert_eq!(
                    r.bytes_copied, 0,
                    "{}: attached-image decode still copied {} bytes",
                    r.store, r.bytes_copied
                );
            }
        }
        println!(
            "smoke assertions passed: zero clean-page memcpys through every image-aware \
             store; every dense page restored as a shared handle"
        );
    }
}
