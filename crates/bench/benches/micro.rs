//! Criterion microbenchmarks: real wall-clock costs of MANA's hot
//! structures — the things the paper identifies as overhead sources.
//!
//! * `virtid_*`: virtual-handle translation through one class's handle
//!   table under one uncontended lock, as the wrapper pays it under its
//!   rank's state lock (the paper's second overhead source, §3.3);
//! * `codec_*`: checkpoint-image encode/decode throughput;
//! * `drain_buffer_*`: drained-message matching;
//! * `event_queue_*`: discrete-event scheduler throughput: one thread's
//!   advances are all self-wakes, 64 threads advancing in lockstep hand
//!   the baton on at every advance (the session workloads' shape);
//! * `coll_cost`: collective cost-model evaluation;
//! * `checksum/checksum_1mb`: the content-digest kernel's rate (printed as
//!   GB/s — every store layer's hashing cost is this number × bytes).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mana_core::buffer::{BufferedMsg, DrainBuffer};
use mana_core::image::{CheckpointImage, ImageBytes};
use mana_core::virtid::{HandleClass, HandleTable};
use mana_mpi::{SrcSpec, TagSpec};
use mana_sim::memory::{DenseSnap, Half, RegionKind, RegionSnapshot, SnapshotContent};
use parking_lot::Mutex;

fn bench_virtid(c: &mut Criterion) {
    // The datatype table: its entry is the bare real handle.
    let table = Mutex::new(HandleTable::<u64>::new(HandleClass::Dtype));
    let virts: Vec<u64> = (0..256)
        .map(|i| table.lock().intern(0x4400_0000 + i))
        .collect();
    c.bench_function("virtid_translate", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % virts.len();
            black_box(*table.lock().get(black_box(virts[i])))
        })
    });
    c.bench_function("virtid_intern_remove", |b| {
        b.iter(|| {
            let v = table.lock().intern(black_box(0x9900_0000));
            black_box(table.lock().remove(v));
        })
    });
}

fn sample_image(dense_kb: usize) -> CheckpointImage {
    CheckpointImage {
        rank: 0,
        nranks: 8,
        ckpt_id: 1,
        app_name: "bench".into(),
        seed: 1,
        regions: vec![
            RegionSnapshot {
                start: 0x1000,
                len: (dense_kb * 1024) as u64,
                half: Half::Upper,
                kind: RegionKind::Mmap,
                name: "data".into(),
                content: SnapshotContent::Dense(DenseSnap::from_vec(vec![7u8; dense_kb * 1024])),
            },
            RegionSnapshot {
                start: 0x100_0000,
                len: 64 << 20,
                half: Half::Upper,
                kind: RegionKind::Text,
                name: "bulk".into(),
                content: SnapshotContent::Pattern { seed: 3 },
            },
        ],
        ..CheckpointImage::default()
    }
}

fn bench_codec(c: &mut Criterion) {
    let img = sample_image(256);
    c.bench_function("codec_encode_256k", |b| b.iter(|| black_box(img.encode())));
    // The restart path: pages come back as the encoded scatter's handles.
    let scatter = img.encode();
    c.bench_function("codec_decode_256k", |b| {
        b.iter(|| black_box(CheckpointImage::decode_shared(black_box(&scatter)).unwrap()))
    });
    // The copy fallback: flat bytes, every page re-chunked.
    let flat = ImageBytes::from_vec(scatter.to_vec());
    c.bench_function("codec_decode_flat_256k", |b| {
        b.iter(|| black_box(CheckpointImage::decode_shared(black_box(&flat)).unwrap()))
    });
}

fn bench_drain_buffer(c: &mut Criterion) {
    c.bench_function("drain_buffer_match_100", |b| {
        b.iter_batched(
            || {
                let mut buf = DrainBuffer::new();
                for i in 0..100u32 {
                    buf.push(BufferedMsg {
                        comm_virt: 0x1000_0000,
                        src_local: i % 8,
                        src_global: i % 8,
                        tag: (i % 5) as i32,
                        data: vec![0u8; 64],
                        modeled: 64,
                    });
                }
                buf
            },
            |mut buf| {
                while let Some(m) = buf.take_match(0x1000_0000, SrcSpec::Any, TagSpec::Any) {
                    black_box(m);
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_10k_advances", |b| {
        b.iter(|| {
            let sim = mana_sim::sched::Sim::new(mana_sim::sched::SimConfig::default());
            sim.spawn("t", false, |t| {
                for _ in 0..10_000 {
                    t.advance(mana_sim::time::SimDuration::nanos(10));
                }
            });
            sim.run();
            black_box(sim.now())
        })
    });
    c.bench_function("event_queue_64_lockstep", |b| {
        b.iter(|| {
            let sim = mana_sim::sched::Sim::new(mana_sim::sched::SimConfig::default());
            for _ in 0..64 {
                sim.spawn("t", false, |t| {
                    for _ in 0..160 {
                        t.advance(mana_sim::time::SimDuration::nanos(10));
                    }
                });
            }
            sim.run();
            black_box(sim.now())
        })
    });
}

fn bench_checksum(c: &mut Criterion) {
    let data = vec![0xA5u8; 1 << 20];
    let mut g = c.benchmark_group("checksum");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("checksum_1mb", |b| {
        b.iter(|| black_box(mana_sim::checksum::checksum_bytes(black_box(&data))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_virtid,
    bench_codec,
    bench_drain_buffer,
    bench_event_queue,
    bench_checksum
);
criterion_main!(benches);
