//! Stackful coroutines: guard-paged stacks and the context switch.
//!
//! This module is the scheduler's whole unsafe surface. A [`Coroutine`] is a
//! flow of control with a saved stack pointer; [`switch`] suspends the
//! running one and resumes another in ~15 instructions, on the same OS
//! thread. Everything else — who runs next, and why — is the scheduler's
//! ([`crate::sched`]) business.
//!
//! What the module guarantees on its own, whatever its caller does:
//!
//! * a stack is mapped for as long as anything can run on it: a started
//!   coroutine holds a reference to itself until its entry closure
//!   returns, and the stack it finished on is parked in a per-OS-thread
//!   *zombie* slot (it cannot be freed by code still standing on it) that
//!   the next coroutine to finish on that OS thread releases;
//! * only a suspended context is ever resumed (`sp` is taken, not read);
//! * a coroutine that never started frees its entry closure and its stack
//!   when dropped; one that started and was never resumed to its end is
//!   leaked, frames and all, rather than unmapped under them.
//!
//! What it asks of the scheduler: call [`switch`] only from the context
//! passed as `from` (checked against `from`'s stack range where it has
//! one), resume a coroutine only on the OS thread that started it (all of
//! a `Sim`'s coroutines run inside its one `Sim::run` call), and keep a
//! coroutine alive while a [`Context`] of it can still be switched
//! through (the contract on [`Context`]).
//!
//! **Porting.** x86-64 System V on Linux only. Another target needs its
//! own `switch_ctx` (save the callee-saved registers, swap stack
//! pointers, restore, return) and `trampoline` plus the matching entry
//! frame in [`Coroutine::new`]; the `mmap` calls are POSIX.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "mana-sim's scheduler switches stacks by hand and is written for x86-64 Linux only: \
     port `switch_ctx` and `trampoline` (with the entry frame `Coroutine::new` lays out) \
     in crates/sim/src/coro.rs"
);

use parking_lot::Mutex;
use std::cell::RefCell;
use std::ffi::{c_int, c_void};
use std::io;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

/// Usable bytes of a simulated thread's stack. Rank programs are shallow;
/// pages are committed on first touch, so thousands of stacks stay cheap.
pub(crate) const STACK_SIZE: usize = 512 * 1024;

/// One inaccessible page below each stack: running off the end is a
/// SIGSEGV, never a write into a neighbouring mapping. (Frames larger than
/// a page are probed page by page by rustc, so they cannot step over it.)
const GUARD_SIZE: usize = 4096;
const MAP_LEN: usize = GUARD_SIZE + STACK_SIZE;

/// Unused stacks kept mapped for the next `Sim` (a chaos run boots
/// hundreds of small ones back to back). Their pages stay resident, so the
/// bound is also a bound on memory held: what a 256-thread run touched.
const POOL_MAX: usize = 256;

const PROT_NONE: c_int = 0;
const PROT_RW: c_int = 1 | 2; // PROT_READ | PROT_WRITE
const MAP_FLAGS: c_int = 0x02 | 0x20; // MAP_PRIVATE | MAP_ANONYMOUS
const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

// std already links libc; declaring the three symbols avoids a dependency.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// Base addresses of mapped, unused stacks.
static POOL: Mutex<Vec<usize>> = Mutex::new(Vec::new());
/// Stacks currently mapped by this process: in use, pooled or zombie.
static MAPPED: AtomicUsize = AtomicUsize::new(0);

/// Stacks this process holds mapped right now (each is two mappings: the
/// guard page and the stack proper).
pub(crate) fn mapped_stacks() -> usize {
    MAPPED.load(Ordering::Relaxed)
}

/// An owned stack: `GUARD_SIZE` inaccessible bytes at `base`, then
/// `STACK_SIZE` usable ones. Dropping it returns it to the pool or unmaps
/// it — so it must never be dropped by code running on it.
struct Stack {
    base: usize,
}

impl Stack {
    fn map() -> io::Result<Stack> {
        if let Some(base) = POOL.lock().pop() {
            return Ok(Stack { base });
        }
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases no existing memory.
        let base = unsafe { mmap(ptr::null_mut(), MAP_LEN, PROT_RW, MAP_FLAGS, -1, 0) };
        if base == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the range is the first page of the mapping made above,
        // which nothing uses yet.
        if unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: exactly the mapping made above, still unused.
            unsafe { munmap(base, MAP_LEN) };
            return Err(err);
        }
        MAPPED.fetch_add(1, Ordering::Relaxed);
        Ok(Stack {
            base: base as usize,
        })
    }

    /// One past the highest usable byte; 16-byte aligned (page aligned).
    fn top(&self) -> usize {
        self.base + MAP_LEN
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let mut pool = POOL.lock();
        if pool.len() < POOL_MAX {
            pool.push(self.base);
            return;
        }
        drop(pool);
        // SAFETY: `base` is a mapping of `MAP_LEN` bytes made by
        // `Stack::map` that this value owns; its owner has finished and
        // switched away (see `entry_point`), so nothing runs on or points
        // into it.
        unsafe { munmap(self.base as *mut c_void, MAP_LEN) };
        MAPPED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What a coroutine runs: a closure that returns the context to leave to.
type Entry = Box<dyn FnOnce() -> Context + Send>;

/// A flow of control that can be suspended and resumed by [`switch`]:
/// either one with a stack of its own that runs an entry closure, or the
/// *host* context of an OS thread's own stack.
pub(crate) struct Coroutine {
    /// Where to resume: the stack pointer `switch_ctx` saved, or the entry
    /// frame. Null while running, once finished, and for a host context
    /// that has not switched away yet — that is, whenever resuming would
    /// be wrong. Stored with `Release` by `new` (possibly on another OS
    /// thread) and taken with `Acquire`, which publishes the entry frame.
    sp: AtomicPtr<u8>,
    /// Base of the own stack (0 for a host context), kept for `switch`'s
    /// check after `stack` itself has been taken.
    base: usize,
    /// The own stack, until `entry` parks it in the zombie slot.
    stack: Mutex<Option<Stack>>,
    /// The closure to run, until the first resume takes it.
    entry: Mutex<Option<Entry>>,
}

thread_local! {
    /// The stack of the last coroutine to finish on this OS thread, which
    /// it cannot free while standing on it. One slot suffices: by the time
    /// another finishes, the previous one has long switched away. Per OS
    /// thread, because only then is that ordering certain.
    static ZOMBIE: RefCell<Option<Stack>> = const { RefCell::new(None) };
}

/// A non-owning handle to a [`Coroutine`], which is what [`switch`] takes:
/// copying one touches no reference count, so a hand-off costs none.
///
/// **Safety contract.** A `Context` does not keep its coroutine alive.
/// Whoever makes one with [`Context::of`] must keep an owning `Arc` of the
/// same coroutine until no switch through the handle (or through a copy)
/// can happen any more. The scheduler meets this by construction: its slot
/// table owns every coroutine of a `Sim`, the driver's host context
/// included, removes none while the `Sim` lives, and switches between
/// them only inside `Sim::run`, which holds the `Sim`.
#[derive(Clone, Copy)]
pub(crate) struct Context(NonNull<Coroutine>);

impl Context {
    /// A handle to `co`, valid while an owner keeps `co` alive.
    pub(crate) fn of(co: &Arc<Coroutine>) -> Context {
        Context(NonNull::from(&**co))
    }

    fn get(&self) -> &Coroutine {
        // SAFETY: the type's contract keeps the coroutine alive for as
        // long as its handle can be switched through, which is the only
        // use this reference is put to.
        unsafe { self.0.as_ref() }
    }
}

impl Coroutine {
    /// The context of the calling OS thread's own stack: something to
    /// switch *from*, resumable once it has.
    pub(crate) fn host() -> Arc<Coroutine> {
        Arc::new(Coroutine {
            sp: AtomicPtr::new(ptr::null_mut()),
            base: 0,
            stack: Mutex::new(None),
            entry: Mutex::new(None),
        })
    }

    /// A suspended coroutine that will run `entry` on a stack of its own
    /// when first resumed, and leave to the context `entry` returns. A
    /// panic escaping `entry` aborts the process. Fails when the stack
    /// cannot be mapped.
    pub(crate) fn new(
        entry: impl FnOnce() -> Context + Send + 'static,
    ) -> io::Result<Arc<Coroutine>> {
        let stack = Stack::map()?;
        let top = stack.top();
        let co = Arc::new(Coroutine {
            sp: AtomicPtr::new(ptr::null_mut()),
            base: stack.base,
            stack: Mutex::new(Some(stack)),
            entry: Mutex::new(Some(Box::new(entry))),
        });
        // What `switch_ctx` pops on the first resume, lowest address first:
        // r15, r14, r13, r12 (the argument `trampoline` forwards), rbx, rbp
        // (null: frame-pointer walks end here), then the address `ret`
        // jumps to. That slot sits at `top - 24`, so rsp is `top - 16` —
        // 16-byte aligned, as the ABI requires at a `call` — when
        // `trampoline` calls `entry_point`. Two null words on top end
        // return-address walks.
        let (arg, ret) = (Arc::as_ptr(&co) as usize, trampoline as *const () as usize);
        let frame: [usize; 9] = [0, 0, 0, arg, 0, 0, ret, 0, 0];
        let sp = (top - std::mem::size_of_val(&frame)) as *mut [usize; 9];
        // SAFETY: the 72 bytes below `top` lie in the writable part of a
        // mapping this coroutine owns and nothing else knows about yet;
        // `top` is page aligned, so `sp` is aligned for `usize`.
        unsafe { sp.write(frame) };
        co.sp.store(sp.cast(), Ordering::Release);
        Ok(co)
    }

    /// Claim the right to resume this context. A load and a store, not a
    /// swap: only the OS thread running the `Sim` ever resumes its
    /// contexts (`switch` refuses a `from` whose stack the caller is not
    /// on), so no second thread can race for `sp`, and the locked
    /// read-modify-write would be a hand-off's dearest instruction.
    fn take_sp(&self) -> *mut u8 {
        let sp = self.sp.load(Ordering::Acquire);
        self.sp.store(ptr::null_mut(), Ordering::Relaxed);
        assert!(
            !sp.is_null(),
            "switched to a coroutine that is running or has finished"
        );
        sp
    }
}

/// Suspend the running context, saving it in `from`, and resume `to`.
/// Returns when something switches back to `from`.
///
/// `from` must be the context that is executing the call (verified when it
/// has a stack of its own), and no lock guard may be live in the caller:
/// every other context runs on this same OS thread, so a lock held across
/// the switch is one the next context to want it can never get.
pub(crate) fn switch(from: Context, to: Context) {
    let (from, to) = (from.get(), to.get());
    let here = ptr::from_ref(&to) as usize;
    assert!(
        from.base == 0 || (from.base..from.base + MAP_LEN).contains(&here),
        "a simulated thread's blocking call was made from another thread's stack"
    );
    let sp = to.take_sp();
    // SAFETY: `from.sp` is a live cell for the saved stack pointer. `sp`
    // was taken from `to`, so it is either an entry frame laid out by
    // `Coroutine::new` or a pointer this function saved earlier, and no
    // one else can resume it. Its stack is still mapped: an own stack is
    // released only by `entry_point` after the coroutine's last switch
    // away (which leaves `sp` null), and a host context's stack belongs to
    // an OS thread that is itself suspended inside this function.
    unsafe { switch_ctx(from.sp.as_ptr(), sp) };
}

/// First code to run on a new stack: hand the argument the entry frame put
/// in `r12` to `entry_point`, which never returns.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    core::arch::naked_asm!(
        "mov rdi, r12",
        "call {entry_point}",
        "ud2",
        entry_point = sym entry_point,
    )
}

/// Save the callee-saved registers and the stack pointer of the running
/// context (into `*save`), then load `to`'s and return into it.
///
/// # Safety
/// `save` must be writable, and `to` must be a stack pointer this function
/// stored (or an entry frame as `Coroutine::new` lays out) on a stack that
/// is still mapped and that no other context is running on or will resume.
#[unsafe(naked)]
unsafe extern "C" fn switch_ctx(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// The Rust half of a coroutine's life: run the entry closure, then leave
/// for good. `extern "C"` also makes a panic escaping the closure abort
/// instead of unwinding into `trampoline`, which has no frame to unwind.
extern "C" fn entry_point(co: *const Coroutine) -> ! {
    let sp = {
        // SAFETY: `co` came from `Arc::as_ptr` in `Coroutine::new`. The
        // context that switched here did so through a `Context`, whose
        // contract keeps the coroutine alive across the switch, and
        // nothing has run since, so the allocation is live and counting
        // one more owner of it is sound.
        let me = unsafe {
            Arc::increment_strong_count(co);
            Arc::from_raw(co)
        };
        let entry = me.entry.lock().take();
        let next = entry.expect("a coroutine starts once")();
        let sp = next.get().take_sp();
        let stack = me.stack.lock().take();
        drop(me);
        // This frame may own nothing once it switches away. The previous
        // zombie, released here, is another coroutine's stack.
        drop(ZOMBIE.with(|slot| slot.replace(stack)));
        sp
    };
    let mut unused = ptr::null_mut();
    // SAFETY: `sp` was taken from a suspended context that the owner of
    // `next` keeps alive (see `switch` for why its stack is mapped).
    // Nothing resumes the context saved into `unused`: this coroutine's
    // `sp` stays null.
    unsafe { switch_ctx(&mut unused, sp) };
    unreachable!("a finished coroutine was resumed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_and_finish() {
        let host = Coroutine::host();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (h, l) = (host.clone(), log.clone());
        // A coroutine needs its own handle to park itself; it gets it here
        // the way the scheduler's slot table provides it.
        let me: Arc<Mutex<Option<Arc<Coroutine>>>> = Arc::default();
        let me2 = me.clone();
        let co = Coroutine::new(move || {
            let mine = me2.lock().take().unwrap();
            for i in 0..3 {
                l.lock().push(i);
                switch(Context::of(&mine), Context::of(&h));
            }
            // The test frame's `host` keeps the context it leaves to alive.
            Context::of(&h)
        })
        .unwrap();
        *me.lock() = Some(co.clone());
        for _ in 0..4 {
            switch(Context::of(&host), Context::of(&co));
        }
        assert_eq!(*log.lock(), vec![0, 1, 2]);
        // Finished: its own stack is the zombie's now.
        assert!(co.stack.lock().is_none());
        assert!(co.sp.load(Ordering::Relaxed).is_null());
    }

    #[test]
    fn an_unstarted_coroutine_frees_its_closure() {
        let token = Arc::new(());
        let t = token.clone();
        let co = Coroutine::new(move || {
            let _keep = &t;
            unreachable!("never resumed")
        })
        .unwrap();
        assert_eq!(Arc::strong_count(&token), 2);
        drop(co);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    #[should_panic(expected = "running or has finished")]
    fn resuming_a_running_context_is_refused() {
        let host = Coroutine::host();
        switch(Context::of(&host), Context::of(&host));
    }
}
