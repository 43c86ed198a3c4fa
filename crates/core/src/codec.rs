//! Minimal binary codec for checkpoint images.
//!
//! Hand-rolled little-endian encoding: a checkpoint image is a long-lived
//! artifact (the whole point of MANA is that it outlives libraries and
//! clusters), so its layout is spelled out byte-by-byte rather than
//! delegated to a serialization framework.
//!
//! There is one encoder and one decoder. [`ScatterEnc`] writes metadata
//! into small owned runs and appends dense snapshot pages as shared `Arc`
//! segments, so no page is copied on the way to the store. [`ScatterDec`]
//! walks a [`ScatterBuf`] in place and recovers those pages as the same
//! handles. Flat bytes decode as a one-segment scatter
//! ([`ScatterBuf::from_vec`]).

use mana_sim::memory::{pages_of_len, DenseSnap, PAGE};
use mana_sim::scatter::{tally_shared_flatten, ScatterBuf, Segment};

/// Decode errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended early.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// Magic number mismatch (not a MANA image).
    BadMagic(u64),
    /// Unsupported format version.
    BadVersion(u32),
    /// An enum discriminant was out of range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending discriminant.
        tag: u32,
    },
    /// A string field is not valid UTF-8.
    BadUtf8 {
        /// What was being decoded.
        what: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "truncated image while decoding {what}"),
            CodecError::BadMagic(m) => write!(f, "bad image magic {m:#x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            CodecError::BadTag { what, tag } => write!(f, "invalid {what} discriminant {tag}"),
            CodecError::BadUtf8 { what } => write!(f, "invalid UTF-8 in {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Scatter-building encoder: metadata accumulates in a small owned tail
/// that is flushed as an owned segment whenever a page run begins, and
/// dense snapshot pages are appended as *shared* segments (`Arc` clones of
/// the rope pages) instead of being memcpy'd.
#[derive(Default)]
pub struct ScatterEnc {
    buf: ScatterBuf,
    tail: Vec<u8>,
}

impl ScatterEnc {
    /// Fresh scatter encoder.
    pub fn new() -> ScatterEnc {
        ScatterEnc::default()
    }

    /// Finish and take the scatter buffer.
    pub fn finish(mut self) -> ScatterBuf {
        self.flush_tail();
        self.buf
    }

    fn flush_tail(&mut self) {
        if !self.tail.is_empty() {
            self.buf.push_owned(std::mem::take(&mut self.tail));
        }
    }

    /// Write a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.tail.push(v);
    }

    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.tail.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.tail.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.tail.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a bool as one byte.
    pub fn boolean(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.tail.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a length prefix for a sequence.
    pub fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }

    /// Write a length-prefixed dense snapshot: the content bytes are its
    /// frozen pages, appended without copying a byte — the entire
    /// zero-copy image path.
    pub fn dense(&mut self, snap: &DenseSnap) {
        self.u64(snap.len() as u64);
        self.flush_tail();
        for i in 0..snap.page_count() {
            self.buf.push_shared(snap.page_handle(i));
        }
    }
}

/// Decoder over a [`ScatterBuf`], walking its segments in place. Metadata
/// reads copy a handful of bytes out of owned segments; a dense payload
/// whose page run survived storage as discrete shared segments (the
/// [`ScatterEnc`] layout) is recovered as `Arc` clones of those very
/// pages — zero copies for every clean stored page. Payloads that lost
/// their segment alignment (re-framed, flattened, or foreign bytes) fall
/// back to a copy that is tallied in
/// [`mana_sim::scatter::shared_flatten_bytes`], so the byte stream
/// decodes identically either way.
pub struct ScatterDec<'a> {
    segs: &'a [Segment],
    /// Current segment index.
    seg: usize,
    /// Offset within the current segment.
    off: usize,
    remaining: usize,
    copied: u64,
    pages_shared: u64,
}

impl<'a> ScatterDec<'a> {
    /// Wrap `buf` for decoding.
    pub fn new(buf: &'a ScatterBuf) -> ScatterDec<'a> {
        ScatterDec {
            segs: buf.raw_segments(),
            seg: 0,
            off: 0,
            remaining: buf.len(),
            copied: 0,
            pages_shared: 0,
        }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Bytes this decoder copied out of segments (metadata plus any dense
    /// fallback); zero page copies shows up here as a near-zero value.
    pub fn bytes_copied(&self) -> u64 {
        self.copied
    }

    /// Dense pages recovered as shared page handles (no copy).
    pub fn pages_shared(&self) -> u64 {
        self.pages_shared
    }

    /// Skip exhausted segments so `(seg, off)` always points at unread
    /// bytes (or one past the final segment).
    fn normalize(&mut self) {
        while self
            .segs
            .get(self.seg)
            .is_some_and(|s| self.off >= s.as_bytes().len())
        {
            self.seg += 1;
            self.off = 0;
        }
    }

    /// Account for `n` bytes copied out of `seg` at the cursor.
    fn consume(&mut self, seg: &Segment, n: usize) {
        if matches!(seg, Segment::Shared(_)) {
            tally_shared_flatten(n as u64);
        }
        self.off += n;
        self.copied += n as u64;
        self.remaining -= n;
    }

    /// Copy exactly `out.len()` bytes into `out`, crossing segment
    /// boundaries as needed.
    fn read_into(&mut self, out: &mut [u8], what: &'static str) -> Result<(), CodecError> {
        if self.remaining < out.len() {
            return Err(CodecError::Truncated { what });
        }
        let mut done = 0usize;
        while done < out.len() {
            self.normalize();
            let seg = &self.segs[self.seg];
            let bytes = seg.as_bytes();
            let n = (bytes.len() - self.off).min(out.len() - done);
            out[done..done + n].copy_from_slice(&bytes[self.off..self.off + n]);
            self.consume(seg, n);
            done += n;
        }
        self.normalize();
        Ok(())
    }

    fn scalar<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        // A scalar inside the current segment is read in place; only one
        // straddling a segment boundary goes through the copy loop.
        if let Some(seg) = self.segs.get(self.seg) {
            if let Some(Ok(v)) = seg
                .as_bytes()
                .get(self.off..self.off + N)
                .map(<[u8; N]>::try_from)
            {
                self.consume(seg, N);
                self.normalize();
                return Ok(v);
            }
        }
        let mut buf = [0u8; N];
        self.read_into(&mut buf, what)?;
        Ok(buf)
    }

    /// Read a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.scalar::<1>(what)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.scalar(what)?))
    }

    /// Read an `i32`.
    pub fn i32(&mut self, what: &'static str) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.scalar(what)?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.scalar(what)?))
    }

    /// Read a bool.
    pub fn boolean(&mut self, what: &'static str) -> Result<bool, CodecError> {
        Ok(self.u8(what)? != 0)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CodecError> {
        let n = self.seq(what)?;
        if self.remaining < n {
            return Err(CodecError::Truncated { what });
        }
        let mut v = vec![0u8; n];
        self.read_into(&mut v, what)?;
        Ok(v)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| CodecError::BadUtf8 { what })
    }

    /// Read a sequence length.
    pub fn seq(&mut self, what: &'static str) -> Result<usize, CodecError> {
        Ok(self.u64(what)? as usize)
    }

    /// Read a length-prefixed dense region payload as a frozen snapshot
    /// (the inverse of [`ScatterEnc::dense`]).
    pub fn dense(&mut self, what: &'static str) -> Result<DenseSnap, CodecError> {
        let len = self.seq(what)?;
        if self.remaining < len {
            return Err(CodecError::Truncated { what });
        }
        // Fast path: the cursor sits at a segment boundary and the next
        // segments are exactly the payload's canonical page chunking as
        // shared handles — the ScatterEnc layout, preserved by stores
        // that kept the scatter intact. Recover the page handles.
        if self.off == 0 {
            let npages = pages_of_len(len);
            let mut pages = Vec::with_capacity(npages);
            for k in 0..npages {
                let want = if k + 1 < npages {
                    PAGE as usize
                } else {
                    len - k * PAGE as usize
                };
                match self.segs.get(self.seg + k).and_then(Segment::shared_handle) {
                    Some(p) if p.len() == want => pages.push(p.clone()),
                    _ => {
                        pages.clear();
                        break;
                    }
                }
            }
            if pages.len() == npages {
                if let Some(snap) = DenseSnap::from_pages(len, pages) {
                    self.seg += npages;
                    self.off = 0;
                    self.remaining -= len;
                    self.pages_shared += npages as u64;
                    self.normalize();
                    return Ok(snap);
                }
            }
        }
        // Fallback: copy the payload (tallied) and re-chunk it.
        let mut v = vec![0u8; len];
        self.read_into(&mut v, what)?;
        Ok(DenseSnap::from_bytes(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same content re-cut into one-byte owned segments.
    fn shredded(buf: &ScatterBuf) -> ScatterBuf {
        let mut out = ScatterBuf::new();
        for b in buf.to_vec() {
            out.push_owned(vec![b]);
        }
        out
    }

    #[test]
    fn roundtrip_primitives() {
        let mut e = ScatterEnc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.i32(-42);
        e.u64(u64::MAX - 1);
        e.boolean(true);
        e.bytes(b"hello");
        e.string("wörld");
        let data = e.finish();
        // In place (one segment) and straddling every segment boundary.
        for buf in [data.clone(), shredded(&data)] {
            let mut d = ScatterDec::new(&buf);
            assert_eq!(d.u8("a").unwrap(), 7);
            assert_eq!(d.u32("b").unwrap(), 0xDEAD_BEEF);
            assert_eq!(d.i32("c").unwrap(), -42);
            assert_eq!(d.u64("d").unwrap(), u64::MAX - 1);
            assert!(d.boolean("e").unwrap());
            assert_eq!(d.bytes("f").unwrap(), b"hello");
            assert_eq!(d.string("g").unwrap(), "wörld");
            assert_eq!(d.remaining(), 0);
            assert_eq!(d.bytes_copied(), data.len() as u64);
        }
    }

    #[test]
    fn truncation_detected() {
        let mut e = ScatterEnc::new();
        e.u64(5);
        let mut data = e.finish();
        data.truncate(3);
        let mut d = ScatterDec::new(&data);
        assert_eq!(d.u64("x"), Err(CodecError::Truncated { what: "x" }));
    }

    #[test]
    fn scatter_dec_recovers_pages_without_copying() {
        let snap = DenseSnap::from_vec((0..10_000u32).map(|i| (i * 7) as u8).collect());
        let mut e = ScatterEnc::new();
        e.u8(1);
        e.string("meta");
        e.dense(&snap);
        e.u32(0xFEED);
        let sb = e.finish();
        // Pages crossed as shared segments, not copies.
        assert_eq!(sb.shared_len(), snap.len());

        let mut d = ScatterDec::new(&sb);
        assert_eq!(d.u8("a").unwrap(), 1);
        assert_eq!(d.string("b").unwrap(), "meta");
        let got = d.dense("payload").unwrap();
        assert_eq!(d.u32("t").unwrap(), 0xFEED);
        assert_eq!(d.remaining(), 0);
        assert_eq!(d.pages_shared(), snap.page_count() as u64);
        // Pages are the same allocations, not copies.
        for i in 0..snap.page_count() {
            assert!(got.shares_page(&snap, i), "page {i} was copied");
        }
        assert_eq!(got.to_vec(), snap.to_vec());
    }

    #[test]
    fn scatter_dec_falls_back_on_flat_bytes() {
        let snap = DenseSnap::from_vec(vec![3u8; 9000]);
        let mut e = ScatterEnc::new();
        e.dense(&snap);
        // Flat bytes: no shared segments to recover.
        let sb = ScatterBuf::from_vec(e.finish().to_vec());
        let mut d = ScatterDec::new(&sb);
        let got = d.dense("payload").unwrap();
        assert_eq!(d.pages_shared(), 0);
        assert_eq!(got.to_vec(), snap.to_vec());
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn scatter_dec_truncation_is_typed() {
        let mut sb = ScatterBuf::new();
        sb.push_owned(vec![1, 2, 3]);
        let mut d = ScatterDec::new(&sb);
        assert!(matches!(
            d.u64("x"),
            Err(CodecError::Truncated { what: "x" })
        ));
        let mut sb2 = ScatterBuf::new();
        sb2.push_owned(1000u64.to_le_bytes().to_vec());
        assert!(matches!(
            ScatterDec::new(&sb2).dense("q"),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn bytes_length_checked() {
        let mut e = ScatterEnc::new();
        e.u64(1000); // claims 1000 bytes, provides none
        let data = e.finish();
        let mut d = ScatterDec::new(&data);
        assert!(matches!(d.bytes("p"), Err(CodecError::Truncated { .. })));
    }
}
