//! Shared rope pages that remember their own digest.
//!
//! A [`Page`] is the unit the checkpoint data path shares without copying:
//! a chunk of a [`DenseSnap`](crate::memory::DenseSnap) rope (whose page
//! list is itself shared, so a rope travels as one handle), a
//! [`Segment::Shared`](crate::scatter::Segment::Shared) of a scatter, a
//! page in the content-addressed store's pool. Cloning one bumps a
//! reference count, like an `Arc<[u8]>`.
//!
//! A page's bytes never change after it is built: copy-on-write
//! (`DenseSnap::patched`, a frozen region's thaw) copies into a new page.
//! Its seed-0 [`checksum_bytes`] is therefore a pure function of the page,
//! and [`Page::digest`] memoizes it in a `OnceLock<u64>` in the same
//! allocation as the bytes: the first call hashes, every later call
//! through any clone reads the memo, so a page that stays clean across
//! checkpoints is hashed once in its lifetime. Debug builds re-derive the
//! digest on every memo hit and assert the two agree.
//!
//! Readers that check integrity may trust the memo as they would a fresh
//! hash: it is filled only by hashing this page's own bytes, which never
//! change, and bytes that differ live in a different page with a memo of
//! its own. Journal validation relies on exactly that when it takes a
//! stored page's digest from the memo, so a page is hashed once on reads
//! as well as on puts.
//!
//! The single allocation is a header (reference count, length, memo)
//! followed by the bytes; no safe standard type lays a header and a
//! runtime-sized byte run out that way, so this module holds the `unsafe`
//! that builds, reads and frees it. The bytes start `u64`-aligned, as an
//! `Arc<[u8]>`'s do, so a typed `f64` read straight out of a frozen
//! region's page is aligned.

use crate::checksum::checksum_bytes;
use crate::scatter::tally_shared_hashed;
use std::alloc::{self, Layout};
use std::fmt;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{self, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// What precedes the bytes in a page's allocation.
struct Header {
    /// Live [`Page`] handles.
    refs: AtomicUsize,
    /// Byte count.
    len: usize,
    /// The bytes' seed-0 digest, once something asked for it.
    digest: OnceLock<u64>,
}

/// Offset of the bytes from the start of the allocation: a type's size is
/// a multiple of its alignment, and bytes need none.
const DATA: usize = size_of::<Header>();

// The header holds a `u64`, so the allocation and `DATA` are `u64`-aligned.
const _: () = assert!(align_of::<Header>() >= align_of::<u64>());

/// The allocation of a `len`-byte page.
fn layout(len: usize) -> Layout {
    DATA.checked_add(len)
        .and_then(|size| Layout::from_size_align(size, align_of::<Header>()).ok())
        .expect("page length fits an allocation")
}

/// An immutable, reference-counted byte page with a memoized digest; see
/// the module docs.
pub struct Page {
    header: NonNull<Header>,
}

// SAFETY: a `Page` is a counted shared reference to its header and bytes.
// The header's fields are an `AtomicUsize`, a `usize` written only before
// the page is shared, and a `OnceLock<u64>`, all of them `Send + Sync`;
// the bytes are written only before the page is shared. Whichever thread
// drops the last handle frees the allocation, after the fence in `drop`.
unsafe impl Send for Page {}
// SAFETY: as for `Send`: `&Page` only reads immutable bytes, the atomic
// count and the `OnceLock`.
unsafe impl Sync for Page {}

impl Page {
    fn header(&self) -> &Header {
        // SAFETY: the header was written in `from` and lives until the
        // last handle drops; `self` is a live handle.
        unsafe { self.header.as_ref() }
    }

    /// The bytes' [`checksum_bytes`] digest (seed 0), computed on the first
    /// call through any handle of this page and read from the memo after
    /// that. A computation adds the page's length to
    /// [`shared_hashed_bytes`](crate::scatter::shared_hashed_bytes).
    pub fn digest(&self) -> u64 {
        let memo = &self.header().digest;
        if let Some(&digest) = memo.get() {
            debug_assert_eq!(digest, checksum_bytes(self), "stale page digest memo");
            return digest;
        }
        *memo.get_or_init(|| {
            tally_shared_hashed(self.len() as u64);
            checksum_bytes(self)
        })
    }

    /// Whether two handles are the same page (shared, not merely equal).
    pub fn ptr_eq(a: &Page, b: &Page) -> bool {
        a.header == b.header
    }
}

impl Clone for Page {
    fn clone(&self) -> Page {
        // Relaxed, as in `Arc`: the new handle is made from a live one, so
        // the page is already alive and nothing is published.
        let old = self.header().refs.fetch_add(1, Ordering::Relaxed);
        // As in `Arc`: only leaked handles reach this count; stop before it
        // can wrap to a free of a live page.
        if old > isize::MAX as usize {
            std::process::abort();
        }
        Page {
            header: self.header,
        }
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        // Release pairs with the Acquire fence below, as in `Arc`: every
        // use of the page through another handle happens before the last
        // handle frees it.
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        atomic::fence(Ordering::Acquire);
        let layout = layout(self.header().len);
        // SAFETY: this was the last handle, so nothing else reaches the
        // allocation. It was allocated with this layout (the length never
        // changes), and the header is dropped in place before it is freed.
        unsafe {
            ptr::drop_in_place(self.header.as_ptr());
            alloc::dealloc(self.header.as_ptr().cast(), layout);
        }
    }
}

impl Deref for Page {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `from` initialized `len` bytes at `DATA`, nothing
        // writes them afterwards, and they live as long as `self`.
        unsafe {
            std::slice::from_raw_parts(
                self.header.as_ptr().cast::<u8>().add(DATA),
                self.header().len,
            )
        }
    }
}

impl From<&[u8]> for Page {
    /// A new page holding a copy of `bytes`.
    fn from(bytes: &[u8]) -> Page {
        let layout = layout(bytes.len());
        // SAFETY: `layout` is never zero-sized: it includes the header.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(header) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `raw` is a fresh allocation of `layout`, aligned for
        // `Header`, with room for a header and then `bytes.len()` bytes at
        // `DATA`; being fresh, it cannot overlap `bytes`.
        unsafe {
            header.as_ptr().write(Header {
                refs: AtomicUsize::new(1),
                len: bytes.len(),
                digest: OnceLock::new(),
            });
            ptr::copy_nonoverlapping(bytes.as_ptr(), raw.add(DATA), bytes.len());
        }
        Page { header }
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scatter::{reset_shared_hashed_bytes, shared_hashed_bytes};

    #[test]
    fn holds_a_copy_of_its_bytes_at_any_length() {
        for len in [0, 1, 7, 8, 13, 4095, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let page = Page::from(&bytes[..]);
            assert_eq!(&page[..], &bytes[..]);
            assert_eq!(page.len(), len);
            assert_eq!(page.as_ptr() as usize % align_of::<u64>(), 0);
        }
    }

    #[test]
    fn the_digest_is_hashed_once_and_shared_by_clones() {
        let page = Page::from(&[5u8; 4096][..]);
        reset_shared_hashed_bytes();
        let digest = page.digest();
        assert_eq!(digest, checksum_bytes(&[5u8; 4096]));
        assert_eq!(shared_hashed_bytes(), 4096);
        let twin = page.clone();
        assert!(Page::ptr_eq(&page, &twin));
        assert_eq!(twin.digest(), digest);
        assert_eq!(page.digest(), digest);
        assert_eq!(shared_hashed_bytes(), 4096, "a memo hit hashes nothing");
        // Equal bytes in another allocation are another page, hashed anew.
        let other = Page::from(&[5u8; 4096][..]);
        assert!(!Page::ptr_eq(&page, &other));
        assert_eq!(other.digest(), digest);
        assert_eq!(shared_hashed_bytes(), 8192);
    }

    #[test]
    fn the_last_handle_frees_the_page_on_any_thread() {
        let page = Page::from(&[9u8; 100][..]);
        let clones: Vec<Page> = (0..8).map(|_| page.clone()).collect();
        std::thread::scope(|s| {
            for c in clones {
                s.spawn(move || {
                    assert_eq!(c.digest(), checksum_bytes(&[9u8; 100]));
                    drop(c);
                });
            }
        });
        assert_eq!(page.header().refs.load(Ordering::Relaxed), 1);
        assert_eq!(page.digest(), checksum_bytes(&[9u8; 100]));
    }
}
