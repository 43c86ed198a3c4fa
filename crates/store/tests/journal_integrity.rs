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
//! One payload is large (2.5 MiB, 640 pages); it is checked the same way,
//! on a sample of pages and prefixes.
//!
//! Validation takes a chunk that is one whole stored page from that page's
//! digest memo, so three more checks pin that this verifies as much as a
//! full re-hash: a bit-flipped twin whose memo was filled *before* it was
//! swapped in is still `Corrupt`; a fresh page with equal bytes (its memo
//! empty) validates; and every seeded case reads back with the verdict of
//! an outside fold that this file computes itself, with `checksum_bytes`
//! over each chunk of the flattened envelope. The outside fold reads the
//! version-3 header and chunk table.
//!
//! These checks know only the envelope's outline — a header, the payload,
//! then a 16-byte trailer (digest word, commit word) — so they hold for any
//! envelope version with that outline. One more writes a version-3 header
//! by hand, with a chunk table of one-byte chunks over a large payload.

use mana_core::error::StoreError;
use mana_core::{CheckpointStore, InMemStore};
use mana_sim::checksum::{checksum_bytes, Checksum};
use mana_sim::fs::IoShape;
use mana_sim::memory::DenseSnap;
use mana_sim::page::Page;
use mana_sim::rng::splitmix64;
use mana_sim::scatter::{reset_shared_flatten_bytes, shared_flatten_bytes, Piece, ScatterBuf};
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

/// `env` with each piece re-pushed, piece `k` replaced by `with`.
fn replace_segment(env: &ScatterBuf, k: usize, with: &ScatterBuf) -> ScatterBuf {
    let mut out = ScatterBuf::new();
    for (i, seg) in env.pieces().enumerate() {
        match seg {
            _ if i == k => out.append(with.clone()),
            Piece::Owned(v) => out.push_owned(v.to_vec()),
            Piece::Shared(p) => out.push_shared(p.clone()),
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
        for (k, seg) in env.pieces().enumerate() {
            let Piece::Shared(page) = seg else { continue };
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

/// A seeded 2.5 MiB payload: 640 full pages, each behind a small owned
/// run, with a few short pages among them.
fn large_payload(seed: u64) -> ScatterBuf {
    let mut d = Draw(seed);
    let mut buf = ScatterBuf::new();
    for k in 0..640 {
        let len = d.range(1, 40);
        buf.push_owned(d.bytes(len));
        let len = if k % 97 == 5 { d.range(1, 4095) } else { 4096 };
        push_page(&mut buf, &d.bytes(len));
    }
    buf
}

#[test]
fn a_large_payload_reads_prefixes_torn_twins_corrupt_and_recut_envelopes_back() {
    let payload = large_payload(11);
    assert!(payload.len() > 2 << 20);
    let (journal, inner, env) = journaled(&payload);
    let mut d = Draw(0x1a76e);

    // Strict prefixes: inside the header, the payload and the trailer.
    for keep in [
        0,
        30,
        3000,
        env.len() / 2,
        env.len() - TRAILER,
        env.len() - 1,
    ] {
        match read_back(&journal, &inner, env.slice(0, keep)) {
            Err(StoreError::Torn { .. }) => {}
            other => panic!("prefix of {keep} bytes gave {other:?}"),
        }
    }

    // Pages swapped for twins with one bit flipped, early, middle and late.
    let pages: Vec<usize> = env
        .pieces()
        .enumerate()
        .filter_map(|(k, seg)| seg.shared_handle().map(|_| k))
        .collect();
    for k in [pages[0], pages[pages.len() / 2], pages[pages.len() - 1]] {
        let mut bytes = env.pieces().nth(k).expect("piece k").as_bytes().to_vec();
        let bit = d.range(0, bytes.len() * 8 - 1);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut twin = ScatterBuf::new();
        push_page(&mut twin, &bytes);
        match read_back(&journal, &inner, replace_segment(&env, k, &twin)) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("page segment {k} swapped gave {other:?}"),
        }
    }

    // Flattened, and re-cut so that chunks span segments.
    let flat = env.to_vec();
    let got = read_back(&journal, &inner, flat.clone().into()).expect("flattened");
    assert_eq!(got, payload, "flattened");
    let mut recut = ScatterBuf::new();
    let mut rest = &flat[..];
    while !rest.is_empty() {
        let (run, tail) = rest.split_at(d.range(1, 9000).min(rest.len()));
        if run.len() <= 4096 && d.range(0, 1) == 0 {
            push_page(&mut recut, run);
        } else {
            recut.push_owned(run.to_vec());
        }
        rest = tail;
    }
    let got = read_back(&journal, &inner, recut).expect("re-cut");
    assert_eq!(got, payload, "re-cut");
    assert_eq!(read_back(&journal, &inner, env).expect("whole"), payload);
}

#[test]
fn a_large_payload_cut_into_one_byte_chunks_validates_by_its_fold() {
    let mut d = Draw(0x0b17e);
    let mut payload = ScatterBuf::new();
    for _ in 0..320 {
        push_page(&mut payload, &d.bytes(4096));
    }
    let (journal, inner, _) = journaled(&payload);
    // Version 3: magic, version, payload length, one table run of
    // `len` chunks of one byte each.
    let len = payload.len();
    let mut header = b"MANAJNL1".to_vec();
    header.extend_from_slice(&3u32.to_le_bytes());
    header.extend_from_slice(&(len as u64).to_le_bytes());
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&(len as u32).to_le_bytes());
    header.extend_from_slice(&1u64.to_le_bytes());
    let mut fold = Checksum::new();
    fold.update(&header);
    for byte in payload.to_vec() {
        fold.update_u64(checksum_bytes(&[byte]));
    }
    let fold = fold.digest();
    for (digest, valid) in [(fold, true), (fold ^ 1, false)] {
        let mut env = ScatterBuf::from_vec(header.clone());
        env.append(payload.clone());
        env.push_owned([digest.to_le_bytes(), *b"COMMITED"].concat());
        match read_back(&journal, &inner, env) {
            Ok(got) if valid => assert_eq!(got, payload),
            Err(StoreError::Corrupt { .. }) if !valid => {}
            other => panic!("fold {digest:#x} gave {other:?}"),
        }
    }
}

/// A page holding `bytes`, its digest memo filled.
fn hashed_page(bytes: &[u8]) -> ScatterBuf {
    let page = Page::from(bytes);
    page.digest();
    let mut buf = ScatterBuf::new();
    buf.push_shared(page);
    buf
}

/// The fold of a whole version-3 envelope, computed here from its
/// flattened bytes: the header and chunk table, then `checksum_bytes` of
/// each chunk the table records. Returns the computed and the recorded
/// fold, or `None` when `env` is not a whole envelope (a strict prefix,
/// or a table that does not cover the payload).
fn outside_fold(env: &ScatterBuf) -> Option<(u64, u64)> {
    let flat = env.to_vec();
    let u32_at = |at: usize| Some(u32::from_le_bytes(flat.get(at..at + 4)?.try_into().ok()?));
    let u64_at = |at: usize| Some(u64::from_le_bytes(flat.get(at..at + 8)?.try_into().ok()?));
    let payload_len = usize::try_from(u64_at(12)?).ok()?;
    let runs = u32_at(20)? as usize;
    let header_len = 24 + 12 * runs;
    let end = header_len.checked_add(payload_len)?;
    if flat.len() != end + TRAILER || !flat.ends_with(b"COMMITED") {
        return None;
    }
    let mut fold = Checksum::new();
    fold.update(&flat[..header_len]);
    let mut at = header_len;
    for run in 0..runs {
        let count = u32_at(24 + 12 * run)?;
        let len = usize::try_from(u64_at(28 + 12 * run)?).ok()?;
        for _ in 0..count {
            let next = at.checked_add(len).filter(|&next| next <= end)?;
            fold.update_u64(checksum_bytes(&flat[at..next]));
            at = next;
        }
    }
    (at == end).then(|| (fold.digest(), u64_at(end).expect("trailer")))
}

/// Store `env` in place of the envelope, read it back through the journal,
/// and check the verdict against [`outside_fold`]: a matching fold reads
/// back as `payload`, a differing one is `Corrupt`, and an envelope that
/// is not whole is an error.
fn check_verdict(
    journal: &JournaledStore,
    inner: &InMemStore,
    env: ScatterBuf,
    payload: &ScatterBuf,
    what: &str,
) {
    let outside = outside_fold(&env);
    match (outside, read_back(journal, inner, env)) {
        (Some((got, want)), Ok(back)) if got == want => assert_eq!(&back, payload, "{what}"),
        (Some((got, want)), Err(StoreError::Corrupt { .. })) if got != want => {}
        (None, Err(_)) => {}
        (outside, verdict) => panic!("{what}: outside fold {outside:x?}, journal {verdict:?}"),
    }
}

#[test]
fn a_flipped_twin_whose_memo_was_filled_before_the_swap_is_corrupt() {
    for seed in 0..SEEDS {
        let (journal, inner, env) = journaled(&payload(seed, 4096));
        let mut d = Draw(seed ^ 0x3e30);
        let mut swapped = 0;
        for (k, seg) in env.pieces().enumerate() {
            let Piece::Shared(page) = seg else { continue };
            let mut bytes = page.to_vec();
            let bit = d.range(0, bytes.len() * 8 - 1);
            bytes[bit / 8] ^= 1 << (bit % 8);
            match read_back(
                &journal,
                &inner,
                replace_segment(&env, k, &hashed_page(&bytes)),
            ) {
                Err(StoreError::Corrupt { .. }) => swapped += 1,
                other => panic!("seed {seed}: hashed twin of segment {k} gave {other:?}"),
            }
        }
        assert!(swapped > 0, "seed {seed}: no shared page to swap");
    }
}

#[test]
fn a_fresh_page_with_equal_bytes_validates() {
    for seed in 0..SEEDS {
        let payload = payload(seed, 4096);
        let (journal, inner, env) = journaled(&payload);
        // Every stored page replaced by a new page holding its bytes, the
        // new page's memo still empty.
        let mut fresh = ScatterBuf::new();
        for seg in env.pieces() {
            match seg {
                Piece::Owned(v) => fresh.push_owned(v.to_vec()),
                Piece::Shared(p) => fresh.push_shared(Page::from(&p[..])),
            }
        }
        assert_eq!(fresh.shared_len(), env.shared_len());
        let got = read_back(&journal, &inner, fresh).expect("fresh pages");
        assert_eq!(got, payload, "seed {seed}");
    }
}

#[test]
fn every_seeded_verdict_equals_an_outside_fold() {
    for seed in 0..SEEDS {
        let payload = payload(seed, 600);
        let (journal, inner, env) = journaled(&payload);
        let check = |env: ScatterBuf, what: String| {
            check_verdict(
                &journal,
                &inner,
                env,
                &payload,
                &format!("seed {seed}: {what}"),
            )
        };
        check(env.clone(), "unmodified".into());
        for keep in 0..env.len() {
            check(env.slice(0, keep), format!("prefix of {keep} bytes"));
        }
        let flat = env.to_vec();
        let start = flat.len() - TRAILER - payload.len();
        let mut d = Draw(seed ^ 0x0f01d);
        for at in start..start + payload.len() {
            let mut bad = flat.clone();
            bad[at] ^= d.range(1, 255) as u8;
            check(bad.into(), format!("flip of payload byte {}", at - start));
        }
        for (k, seg) in env.pieces().enumerate() {
            let Piece::Shared(page) = seg else { continue };
            let mut bytes = page.to_vec();
            let bit = d.range(0, bytes.len() * 8 - 1);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let twin = replace_segment(&env, k, &hashed_page(&bytes));
            check(twin, format!("hashed twin of segment {k}"));
            let equal = replace_segment(&env, k, &hashed_page(page));
            check(equal, format!("equal page in segment {k}"));
        }
        check(flat.clone().into(), "flattened".into());
        let mut recut = ScatterBuf::new();
        let mut rest = &flat[..];
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(d.range(1, 700).min(rest.len()));
            if d.range(0, 1) == 0 {
                push_page(&mut recut, run);
            } else {
                recut.push_owned(run.to_vec());
            }
            rest = tail;
        }
        check(recut, "re-cut".into());
    }
}
