//! The workspace's one lock policy: `std::sync::Mutex` with poisoning
//! ignored.
//!
//! A simulated component that panics while holding its lock has already
//! failed the run (actor panics propagate out of [`crate::Sim::run`]), so a
//! poisoned lock carries no news, and the code that reports the failure
//! (actor exit, the flight-recorder dump) must still take the locks the
//! panicking code held. Every lock site takes the data as it was left
//! through [`MutexExt::locked`].

use std::sync::{Mutex, MutexGuard, PoisonError};

/// [`Mutex::lock`] that never reports poisoning.
pub trait MutexExt<T: ?Sized> {
    /// Acquire the lock, blocking the current thread until it is available.
    /// A holder's panic leaves the data as it was.
    fn locked(&self) -> MutexGuard<'_, T>;
}

impl<T: ?Sized> MutexExt<T> for Mutex<T> {
    fn locked(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.locked();
            panic!("poison attempt");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*m.locked(), 0, "a poisoned lock still yields its data");
    }
}
