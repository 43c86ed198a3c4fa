//! Offline shim for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! provides the small API subset it actually uses — `Mutex` with a
//! non-poisoning `lock()` — implemented over `std::sync`. Poisoning is
//! deliberately ignored, matching parking_lot's semantics: a panicking
//! simulated thread must not wedge every other thread's locks.
//!
//! Beyond parking_lot's API, the shim counts the [`MutexGuard`]s live on
//! each OS thread ([`live_guards`]). The simulator's scheduler reads it to
//! refuse a simulated thread that parks while holding a lock.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion primitive with parking_lot's non-poisoning `lock()`.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

thread_local! {
    static LIVE_GUARDS: Cell<usize> = const { Cell::new(0) };
}

/// How many [`MutexGuard`]s are live on the calling OS thread: taken by
/// [`Mutex::lock`] and not yet dropped.
#[inline]
pub fn live_guards() -> usize {
    LIVE_GUARDS.get()
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning (parking_lot semantics).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        LIVE_GUARDS.with(|n| n.set(n.get() + 1));
        MutexGuard { inner }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            Err(_) => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        LIVE_GUARDS.with(|n| n.set(n.get() - 1));
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn live_guards_counts_this_threads_guards() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let base = live_guards();
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(live_guards(), base + 2);
        drop(ga);
        assert_eq!(live_guards(), base + 1);
        drop(gb);
        assert_eq!(live_guards(), base);
    }
}
