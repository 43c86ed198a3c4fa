//! Checkpoint data-path sweep: how the zero-copy, dirty-tracked snapshot
//! pipeline scales with the fraction of memory an application actually
//! writes between checkpoints.
//!
//! For each dirty fraction the harness primes one full checkpoint epoch,
//! touches exactly that fraction of the pages (spread uniformly across
//! every region — the worst case for
//! region-granular schemes), then runs the full write path: tracked
//! snapshot → scatter image encode (shared rope pages, no memcpy) →
//! `DeltaStore<FsStore>` put digesting pages straight from the rope. It
//! reports the *modeled* write time (what the simulated Lustre charges
//! for the delta) and the *measured* wall-clock throughput of
//! snapshot+encode+put, plus the counters that prove the path is O(dirty
//! bytes): bytes copied by the snapshot, page bytes hashed in the put
//! window (`shared_hashed_bytes()`: clean pages are digest memo hits),
//! and `shared_flatten_bytes()` — which must stay **zero** across the
//! put window (no clean page is ever memcpy'd between the address space
//! and the store tier).
//!
//! Every run writes the machine-readable `BENCH_ckpt_path.json` next to
//! the invocation directory. Run with `--test` for the CI smoke
//! configuration, which asserts the 1%-dirty epoch copies ≤ 2% of the
//! bytes (and hashes ≤ 2% of the bytes) of the all-dirty epoch.

use mana_bench::{banner, Scale, Table};
use mana_core::buffer::PairCounters;
use mana_core::image::CheckpointImage;
use mana_core::{CheckpointStore, FsStore};
use mana_sim::fs::{FsConfig, IoShape};
use mana_sim::memory::{AddressSpace, Backing, DenseBuf, Half, HalfSnapshot, RegionKind, PAGE};
use mana_sim::scatter::{
    reset_shared_flatten_bytes, reset_shared_hashed_bytes, shared_flatten_bytes,
    shared_hashed_bytes,
};
use mana_store::{DeltaConfig, DeltaStore};
use std::sync::Arc;
use std::time::Instant;

const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

struct EpochResult {
    frac: f64,
    dirty_pages: u64,
    clean_pages: u64,
    bytes_copied: u64,
    /// Page bytes hashed in the snapshot→encode→put window.
    hashed_bytes: u64,
    stored_bytes: u64,
    modeled_write: mana_sim::time::SimDuration,
    wall: std::time::Duration,
    image_bytes: u64,
    /// Bytes memcpy'd out of shared rope pages during the measured
    /// snapshot→encode→put window (the zero-copy claim: must be 0).
    flatten_bytes: u64,
    mbps: f64,
}

fn image_around(ckpt_id: u64, snap: HalfSnapshot) -> CheckpointImage {
    CheckpointImage {
        rank: 0,
        nranks: 1,
        ckpt_id,
        app_name: "fig-ckpt-path".into(),
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

/// One independent (space, store) pair: prime a committed full epoch,
/// dirty `frac` of the pages, then measure the second epoch end-to-end.
fn run_epoch(nregions: u64, pages_per_region: u64, frac: f64) -> EpochResult {
    let a = AddressSpace::new();
    a.set_lineage(0xF16);
    let mut starts = Vec::new();
    for i in 0..nregions {
        let len = pages_per_region * PAGE;
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                &format!("state{i}"),
                len,
                Backing::Dense(DenseBuf::zeroed(len as usize)),
            )
            .expect("map region");
        starts.push(addr);
    }
    let store = DeltaStore::new(
        DeltaConfig::default(),
        FsStore::with_config(FsConfig::default()),
    );

    // Epoch 1: prime (all pages dirty by construction) and commit.
    let img = Arc::new(image_around(1, a.snapshot_half_tracked(Half::Upper)));
    store.put(
        "fig-ckpt-path/ckpt_1/rank_0.mana",
        CheckpointImage::encode_shared(&img),
        img.logical_bytes(),
        0,
        SHAPE,
    );
    a.clear_dirty(Half::Upper);

    // Touch `frac` of all pages, spread uniformly across regions.
    let total_pages = nregions * pages_per_region;
    let dirty_target = ((total_pages as f64 * frac).round() as u64).max(1);
    let stride = (total_pages / dirty_target).max(1);
    for k in 0..dirty_target {
        let p = (k * stride) % total_pages;
        let (region, page) = (p / pages_per_region, p % pages_per_region);
        a.write_bytes(starts[region as usize] + page * PAGE, &[k as u8 ^ 0xA5])
            .expect("dirty one page");
    }

    // Epoch 2: the measured checkpoint. The flatten counter brackets the
    // snapshot→encode→put window: clean rope pages must travel as shared
    // handles end to end, never through a memcpy.
    reset_shared_flatten_bytes();
    reset_shared_hashed_bytes();
    let t0 = Instant::now();
    let snap = a.snapshot_half_tracked(Half::Upper);
    let stats = snap.stats;
    let img = Arc::new(image_around(2, snap));
    let encoded = CheckpointImage::encode_shared(&img);
    let image_bytes = encoded.len() as u64;
    let path = "fig-ckpt-path/ckpt_2/rank_0.mana";
    let modeled_write = store.put(path, encoded, img.logical_bytes(), 0, SHAPE);
    let wall = t0.elapsed();
    let flatten_bytes = shared_flatten_bytes();
    let hashed_bytes = shared_hashed_bytes();
    a.clear_dirty(Half::Upper);

    // Sanity: the stored generation reconstructs the live state exactly
    // (read back outside the counter window).
    let (bytes, _) = store.get(path, 0, SHAPE).expect("get back");
    let (back, _) = CheckpointImage::decode_shared(&bytes).expect("decode back");
    let b = AddressSpace::new();
    for r in &back.regions {
        b.restore_region(r).expect("restore");
    }
    assert_eq!(
        b.checksum_half(Half::Upper),
        a.checksum_half(Half::Upper),
        "dirty-tracked image diverged from live memory"
    );

    let secs = wall.as_secs_f64().max(1e-9);
    EpochResult {
        frac,
        dirty_pages: stats.dirty_pages,
        clean_pages: stats.clean_pages_shared,
        bytes_copied: stats.bytes_copied,
        hashed_bytes,
        stored_bytes: store.logical_len(path).expect("stored len"),
        modeled_write,
        wall,
        image_bytes,
        flatten_bytes,
        mbps: (total_pages * PAGE) as f64 / 1e6 / secs,
    }
}

/// Minimal JSON string escape (paths/names only contain ASCII here).
fn write_json(results: &[EpochResult], dense_mb: u64) {
    let mut s = String::from("{\n  \"bench\": \"ckpt_path\",\n");
    s.push_str(&format!("  \"dense_mb\": {dense_mb},\n  \"sweep\": [\n"));
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"dirty_frac\": {:.2}, \"dirty_pages\": {}, \"clean_pages\": {}, \
             \"bytes_copied\": {}, \"hashed_bytes\": {}, \"stored_bytes\": {}, \
             \"image_bytes\": {}, \"modeled_write_s\": {:.6}, \"wall_ms\": {:.3}, \
             \"mb_per_s\": {:.1}, \"flatten_bytes\": {}}}{}\n",
            r.frac,
            r.dirty_pages,
            r.clean_pages,
            r.bytes_copied,
            r.hashed_bytes,
            r.stored_bytes,
            r.image_bytes,
            r.modeled_write.as_secs_f64(),
            r.wall.as_secs_f64() * 1e3,
            r.mbps,
            r.flatten_bytes,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write("BENCH_ckpt_path.json", s).expect("write BENCH_ckpt_path.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = Scale::from_env();
    banner(
        "Checkpoint data path",
        "copy/digest cost vs dirty fraction",
        "the write path is O(dirty bytes) and clean pages are never memcpy'd to the store",
    );
    let (nregions, pages_per_region) = if smoke {
        (8, 128) // 4 MiB
    } else if scale.full {
        (16, 2048) // 128 MiB
    } else {
        (8, 512) // 16 MiB
    };
    let total_pages = nregions * pages_per_region;
    let dense_mb = (total_pages * PAGE) >> 20;
    println!(
        "address space: {} regions x {} pages = {} MB dense\n",
        nregions, pages_per_region, dense_mb
    );

    let fracs = [0.01, 0.10, 0.50, 1.00];
    let mut table = Table::new(&[
        "dirty frac",
        "dirty pages",
        "copied (MB)",
        "hashed (MB)",
        "stored (MB)",
        "image (MB)",
        "flattened (B)",
        "modeled write",
        "wall (ms)",
        "wall MB/s",
    ]);
    let mut results = Vec::new();
    for frac in fracs {
        let r = run_epoch(nregions, pages_per_region, frac);
        table.row(vec![
            format!("{:.0}%", frac * 100.0),
            format!("{} / {}", r.dirty_pages, r.dirty_pages + r.clean_pages),
            format!("{:.2}", r.bytes_copied as f64 / 1e6),
            format!("{:.2}", r.hashed_bytes as f64 / 1e6),
            format!("{:.2}", r.stored_bytes as f64 / 1e6),
            format!("{:.2}", r.image_bytes as f64 / 1e6),
            r.flatten_bytes.to_string(),
            format!("{}", r.modeled_write),
            format!("{:.2}", r.wall.as_secs_f64() * 1e3),
            format!("{:.0}", r.mbps),
        ]);
        results.push(r);
    }
    table.print();
    println!(
        "\n(\"wall MB/s\" = dense address-space bytes over measured snapshot+encode+put time;"
    );
    println!(" \"modeled write\" = what the simulated Lustre charges for the delta generation;");
    println!(
        " \"flattened\" = shared rope bytes memcpy'd in the put window — the zero-copy claim)"
    );

    write_json(&results, dense_mb);
    println!("wrote BENCH_ckpt_path.json");

    let mostly_clean = &results[0];
    let all_dirty = &results[results.len() - 1];
    println!(
        "\n1%-dirty epoch copies {:.1}% of the all-dirty epoch's bytes, hashes {:.1}% of its bytes",
        mostly_clean.bytes_copied as f64 / all_dirty.bytes_copied as f64 * 100.0,
        mostly_clean.hashed_bytes as f64 / all_dirty.hashed_bytes as f64 * 100.0,
    );
    if smoke {
        assert!(
            mostly_clean.bytes_copied * 50 <= all_dirty.bytes_copied,
            "1%-dirty epoch copied {} bytes vs {} all-dirty (> 2%) — copy path is not O(dirty)",
            mostly_clean.bytes_copied,
            all_dirty.bytes_copied
        );
        assert!(
            mostly_clean.hashed_bytes * 50 <= all_dirty.hashed_bytes,
            "1%-dirty epoch hashed {} bytes vs {} all-dirty (> 2%) — digest path is not O(dirty)",
            mostly_clean.hashed_bytes,
            all_dirty.hashed_bytes
        );
        assert!(
            mostly_clean.stored_bytes * 4 <= all_dirty.stored_bytes,
            "delta volume did not shrink with the dirty fraction"
        );
        for r in &results {
            assert_eq!(
                r.flatten_bytes,
                0,
                "{}%-dirty put window flattened {} shared rope bytes — the \
                 zero-copy pipeline memcpy'd clean pages",
                r.frac * 100.0,
                r.flatten_bytes
            );
        }
        println!(
            "smoke assertions passed: copy, hash and store volume scale with dirty fraction; \
             zero clean-page memcpys"
        );
    }
}
