//! The journal envelope's integrity contract, checked from outside.
//!
//! Seeded payloads mix owned runs and shared pages of assorted lengths.
//! Each is put through `Journaled(InMem)`; the envelope that lands in the
//! inner store is then damaged or re-shaped there and read back through
//! the journal:
//!
//! * every strict prefix of an envelope is `Torn`;
//! * every single-byte payload flip is `Corrupt`;
//! * a stored shared page swapped for a same-length page with one bit
//!   flipped is `Corrupt`;
//! * an envelope flattened, or re-cut at seeded offsets into owned runs and
//!   shared pages, still validates and returns the identical payload;
//! * a get of an unmodified envelope flattens no shared byte.
//!
//! The test knows only the envelope's outline — a header, the payload,
//! then a 16-byte trailer (digest word, commit word) — so it holds for any
//! envelope version with that outline.

use mana_core::error::StoreError;
use mana_core::{CheckpointStore, InMemStore};
use mana_sim::fs::IoShape;
use mana_sim::memory::DenseSnap;
use mana_sim::rng::splitmix64;
use mana_sim::scatter::{reset_shared_flatten_bytes, shared_flatten_bytes, ScatterBuf, Segment};
use mana_store::JournaledStore;
use std::sync::Arc;

const SEEDS: u64 = 6;
const PATH: &str = "j/ckpt_1/rank_0.mana";
/// The envelope's trailer: the commit digest, then the commit word.
const TRAILER: usize = 16;
const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

/// Seeded draws.
struct Draw(u64);

impl Draw {
    /// A value in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.0 = splitmix64(self.0);
        lo + (self.0 % (hi - lo + 1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.range(0, 255) as u8).collect()
    }
}

/// Append `bytes` (at most one page) as a shared page segment.
fn push_page(buf: &mut ScatterBuf, bytes: &[u8]) {
    buf.push_shared(DenseSnap::from_bytes(bytes).page_handle(0));
}

/// A seeded payload of 3 to 6 segments: an owned run, a shared page, then
/// either kind. Owned runs hold 1 to 300 bytes, shared pages 1 to
/// `max_page` bytes, and every other page is as long as `max_page` allows.
fn payload(seed: u64, max_page: usize) -> ScatterBuf {
    let mut d = Draw(seed);
    let mut buf = ScatterBuf::new();
    for k in 0..d.range(3, 6) {
        if k == 0 || (k > 1 && d.range(0, 1) == 0) {
            let len = d.range(1, 300);
            buf.push_owned(d.bytes(len));
        } else {
            let len = match d.range(0, 1) {
                0 => max_page,
                _ => d.range(1, max_page),
            };
            push_page(&mut buf, &d.bytes(len));
        }
    }
    buf
}

/// `payload` put through a journal over a bare in-memory store: the
/// journal, the store under it, and the envelope stored there.
fn journaled(payload: &ScatterBuf) -> (JournaledStore, Arc<InMemStore>, ScatterBuf) {
    let inner = Arc::new(InMemStore::new());
    let journal = JournaledStore::new(inner.clone());
    journal.put(PATH, payload.clone().into(), payload.len() as u64, 0, SHAPE);
    let (env, _) = inner.get(PATH, 0, SHAPE).expect("envelope stored");
    (journal, inner, env.into_scatter())
}

/// Store `env` in place of the envelope and read it back through the
/// journal.
fn read_back(
    journal: &JournaledStore,
    inner: &InMemStore,
    env: ScatterBuf,
) -> Result<ScatterBuf, StoreError> {
    let len = env.len() as u64;
    inner.put(PATH, env.into(), len, 0, SHAPE);
    journal.get(PATH, 0, SHAPE).map(|(b, _)| b.into_scatter())
}

/// `env` with each segment re-pushed, segment `k` replaced by `with`.
fn replace_segment(env: &ScatterBuf, k: usize, with: &ScatterBuf) -> ScatterBuf {
    let mut out = ScatterBuf::new();
    for (i, seg) in env.raw_segments().iter().enumerate() {
        match seg {
            _ if i == k => out.append(with.clone()),
            Segment::Owned(v) => out.push_owned(v.clone()),
            Segment::Shared(p) => out.push_shared(p.clone()),
        }
    }
    out
}

#[test]
fn every_strict_prefix_is_torn() {
    for seed in 0..SEEDS {
        let payload = payload(seed, 600);
        let (journal, inner, env) = journaled(&payload);
        for keep in 0..env.len() {
            match read_back(&journal, &inner, env.slice(0, keep)) {
                Err(StoreError::Torn { .. }) => {}
                other => panic!("seed {seed}: prefix of {keep} bytes gave {other:?}"),
            }
        }
        assert_eq!(read_back(&journal, &inner, env).expect("whole"), payload);
    }
}

#[test]
fn every_payload_byte_flip_is_corrupt() {
    for seed in 0..SEEDS {
        let payload = payload(seed, 600);
        let (journal, inner, env) = journaled(&payload);
        let flat = env.to_vec();
        let start = flat.len() - TRAILER - payload.len();
        let mut d = Draw(seed ^ 0xf11b);
        for at in start..start + payload.len() {
            let mut bad = flat.clone();
            bad[at] ^= d.range(1, 255) as u8;
            match read_back(&journal, &inner, bad.into()) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!(
                    "seed {seed}: flip of payload byte {} gave {other:?}",
                    at - start
                ),
            }
        }
    }
}

#[test]
fn a_stored_page_swapped_for_one_with_a_bit_flipped_is_corrupt() {
    for seed in 0..SEEDS {
        let (journal, inner, env) = journaled(&payload(seed, 4096));
        let mut d = Draw(seed ^ 0xb17);
        let mut swapped = 0;
        for (k, seg) in env.raw_segments().iter().enumerate() {
            let Segment::Shared(page) = seg else { continue };
            let mut bytes = page.to_vec();
            let bit = d.range(0, bytes.len() * 8 - 1);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let mut twin = ScatterBuf::new();
            push_page(&mut twin, &bytes);
            match read_back(&journal, &inner, replace_segment(&env, k, &twin)) {
                Err(StoreError::Corrupt { .. }) => swapped += 1,
                other => panic!("seed {seed}: page segment {k} swapped gave {other:?}"),
            }
        }
        assert!(swapped > 0, "seed {seed}: no shared page to swap");
    }
}

#[test]
fn flattened_or_recut_envelopes_read_back_identically() {
    for seed in 0..SEEDS {
        let payload = payload(seed, 4096);
        let (journal, inner, env) = journaled(&payload);
        let flat = env.to_vec();
        let got = read_back(&journal, &inner, flat.clone().into()).expect("flattened");
        assert_eq!(got, payload, "seed {seed}: flattened");

        // Re-cut at seeded offsets; runs that fit a page alternate between
        // owned and shared.
        let mut d = Draw(seed ^ 0xc07);
        let mut recut = ScatterBuf::new();
        let mut rest = &flat[..];
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(d.range(1, 5000).min(rest.len()));
            if run.len() <= 4096 && d.range(0, 1) == 0 {
                push_page(&mut recut, run);
            } else {
                recut.push_owned(run.to_vec());
            }
            rest = tail;
        }
        let got = read_back(&journal, &inner, recut).expect("re-cut");
        assert_eq!(got, payload, "seed {seed}: re-cut");
    }
}

#[test]
fn a_get_of_an_unmodified_envelope_flattens_no_shared_byte() {
    for seed in 0..SEEDS {
        let payload = payload(seed, 4096);
        assert!(payload.shared_len() > 0);
        let (journal, _inner, _) = journaled(&payload);
        reset_shared_flatten_bytes();
        let (got, _) = journal.get(PATH, 0, SHAPE).expect("committed");
        assert_eq!(shared_flatten_bytes(), 0, "seed {seed}");
        assert_eq!(got.scatter(), &payload);
    }
}
