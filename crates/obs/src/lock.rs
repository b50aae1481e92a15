//! The workspace's one lock: [`Lock<T>`], owned by the first thread that
//! takes it.
//!
//! A simulation runs on the thread that calls `Sim::run`: the event loop and
//! every actor (a coroutine switched to from that loop) share its stack of
//! calls, so simulation state is shared between components but never
//! between threads. `Lock` keeps `Mutex`'s shape (`Arc<Lock<T>>` in `Send`
//! closures, a guard that derefs to the data) without its cross-thread
//! handshake: taking it is one thread-local read, one relaxed load and one
//! plain store, and dropping the guard one plain store.
//!
//! Its rules:
//!
//! * the first thread that locks a `Lock` owns it for good, and a lock from
//!   any other thread panics before touching the data;
//! * a re-entrant lock (the same thread, while a guard is alive) panics at
//!   the caller, where `Mutex` would deadlock;
//! * a holder that panics leaves the data as it was: there is no poisoning,
//!   because a simulated component that panics has already failed the run
//!   and the code that reports the failure must still read the state;
//! * the guard is `!Send`.
//!
//! ```
//! use std::sync::Arc;
//! use suca_obs::Lock;
//!
//! let log = Arc::new(Lock::new(Vec::new()));
//! let l = log.clone();
//! let push = move |v: u32| l.locked().push(v); // a `Send` closure
//! push(1);
//! push(2);
//! assert_eq!(*log.locked(), [1, 2]);
//! ```
//!
//! A guard cannot leave its thread:
//!
//! ```compile_fail
//! fn send<T: Send>(_: T) {}
//! let lock = suca_obs::Lock::new(0);
//! send(lock.locked());
//! ```

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};

/// The next thread token to hand out; 0 means "no owner yet".
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's token, 0 until its first lock. Tokens are never
    /// reused, so a dead owner's token never matches a later thread.
    static TOKEN: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn thread_token() -> u64 {
    TOKEN.with(|t| match t.get() {
        0 => new_token(t),
        token => token,
    })
}

#[cold]
fn new_token(t: &Cell<u64>) -> u64 {
    // Relaxed: the counter only has to hand out distinct values.
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    t.set(token);
    token
}

/// A lock owned by the first thread that takes it (see the module docs).
pub struct Lock<T: ?Sized> {
    /// The owner's thread token, 0 until the first lock.
    owner: AtomicU64,
    /// A guard is alive. Only the owner reads or writes it.
    held: Cell<bool>,
    data: UnsafeCell<T>,
}

// SAFETY: `owner` is atomic. `held` and `data` are touched only by the
// owning thread, which is fixed by one compare-and-swap and never changes;
// every other thread panics after reading `owner` alone. Moving the lock
// (or the data, by `into_inner` or drop) to another thread needs `T: Send`.
unsafe impl<T: ?Sized + Send> Sync for Lock<T> {}

impl<T> Lock<T> {
    /// A new lock, owned by no thread until it is first taken.
    pub const fn new(value: T) -> Self {
        Lock {
            owner: AtomicU64::new(0),
            held: Cell::new(false),
            data: UnsafeCell::new(value),
        }
    }

    /// The data, by value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Lock<T> {
    /// Take the lock. Panics when called from a thread other than the
    /// owner's, or while this thread already holds it.
    #[inline]
    #[track_caller]
    pub fn locked(&self) -> LockGuard<'_, T> {
        let me = thread_token();
        // Relaxed: `owner` publishes no data. The owner reads back its own
        // claim; any other thread sees 0 or another token, and a 0 sends it
        // to the compare-and-swap, which fails once anyone has claimed.
        if self.owner.load(Ordering::Relaxed) != me {
            self.claim(me);
        }
        if self.held.get() {
            reentrant();
        }
        self.held.set(true);
        LockGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }

    /// Become the owner if there is none yet; panic otherwise.
    #[cold]
    #[track_caller]
    fn claim(&self, me: u64) {
        if self
            .owner
            .compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            panic!(
                "Lock taken at {} on thread {:?}, but another thread took it first: \
                 a simulation must keep running on one thread",
                Location::caller(),
                std::thread::current().name().unwrap_or("<unnamed>")
            );
        }
    }
}

#[cold]
#[track_caller]
fn reentrant() -> ! {
    panic!(
        "re-entrant Lock at {}: this thread already holds it",
        Location::caller()
    )
}

impl<T: Default> Default for Lock<T> {
    fn default() -> Self {
        Lock::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for Lock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Lock { .. }")
    }
}

/// Access to a [`Lock`]'s data; the lock is released when this drops.
#[must_use = "the lock is released as soon as the guard drops"]
pub struct LockGuard<'a, T: ?Sized> {
    lock: &'a Lock<T>,
    /// Keeps the guard on the owner's thread.
    _not_send: PhantomData<*const ()>,
}

impl<T: ?Sized> Deref for LockGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard is the one live guard (`held`), on the owner's
        // thread (the guard is `!Send`).
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for LockGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` is unique.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for LockGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized> Drop for LockGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.held.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast::<String>()
            .map(|s| *s)
            .expect("a formatted panic message")
    }

    #[test]
    fn a_second_threads_lock_panics_even_on_a_free_lock() {
        let lock = Arc::new(Lock::new(7));
        *lock.locked() += 1;
        let l = lock.clone();
        let payload = std::thread::spawn(move || *l.locked() = 0)
            .join()
            .expect_err("a second thread's lock must panic");
        let msg = message(payload);
        assert!(msg.contains("must keep running on one thread"), "{msg}");
        assert_eq!(*lock.locked(), 8, "the data is as the owner left it");
    }

    #[test]
    fn the_first_thread_to_lock_owns_a_lock_it_did_not_create() {
        // Free when the second thread tries, but the first lock already
        // happened elsewhere: ownership goes to the first locker, not the
        // creator, and stays there.
        let lock = Arc::new(Lock::new(Vec::new()));
        let l = lock.clone();
        std::thread::spawn(move || l.locked().push(1))
            .join()
            .expect("a free lock can be claimed by any thread");
        let payload = catch_unwind(AssertUnwindSafe(|| lock.locked().push(2)))
            .expect_err("the creator is not the owner");
        assert!(message(payload).contains("must keep running on one thread"));
        let lock = Arc::into_inner(lock).expect("the other thread is gone");
        assert_eq!(lock.into_inner(), [1], "exclusive access needs no owner");
    }

    #[test]
    fn a_reentrant_lock_panics_naming_the_call_site() {
        let lock = Lock::new(0);
        let _held = lock.locked();
        let (r, line) = (catch_unwind(AssertUnwindSafe(|| lock.locked())), line!());
        let msg = message(r.expect_err("a re-entrant lock must panic, not deadlock"));
        assert!(msg.contains(&format!("{}:{line}:", file!())), "{msg}");
    }

    #[test]
    fn a_panicking_holder_leaves_the_data_readable() {
        let lock = Lock::new(vec![1, 2]);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut g = lock.locked();
            g.push(3);
            panic!("holder fails");
        }));
        assert!(r.is_err());
        assert_eq!(*lock.locked(), [1, 2, 3], "no poisoning: the data as left");
    }
}
