//! Concurrent, epoch-tracked sharing of the online system.
//!
//! The paper's online stage is an interactive *service* (§5, Table 9):
//! many queries in flight while the weekly refresh swaps the domain
//! collection underneath them. [`SharedEsharp`] is that hand-off point —
//! readers take an immutable snapshot (an `Arc<Esharp>` plus the epoch it
//! belongs to) and search without holding any lock; a reload builds the
//! next state off to the side and publishes it with a single pointer
//! swap. The write lock is held for that swap only, so a reader never
//! waits on a reload's file read and decode.
//!
//! ## Epochs
//!
//! Every reload attempt — successful *or* failed — advances the epoch.
//! A failed reload changes observable state too (the [`Degradation`]
//! carried in every outcome), so anything keyed on the epoch (the serving
//! layer's result cache, most importantly) is invalidated the moment the
//! answer to "what would a search return?" can change. A snapshot's
//! `Arc` and epoch are read under one lock, so the pair is always
//! consistent: a cached artifact tagged with epoch *n* was produced by
//! exactly the `Esharp` state that owned epoch *n*.

use crate::error::EsharpResult;
use crate::online::Esharp;
use esharp_fault::{fault_error, FaultInjector, NoFaults};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock, TryLockError};

/// Fault-injection site consulted by [`SharedEsharp::reload_with`] before
/// touching the domains file (see `esharp-fault`'s site families).
pub const RELOAD_SITE: &str = "reload:domains";

/// An [`Esharp`] instance shared between concurrent readers and a
/// reloading writer, with an epoch that identifies each published state.
#[derive(Debug)]
pub struct SharedEsharp {
    /// The published state and its epoch, swapped atomically under the
    /// lock. Readers only ever clone the `Arc`; searches run lock-free on
    /// the snapshot.
    inner: RwLock<(Arc<Esharp>, u64)>,
    /// Serialises reloads: each builds from the state the previous one
    /// published, so no reload's result is lost to a concurrent one.
    reloading: Mutex<()>,
}

impl SharedEsharp {
    /// Publish the initial state at epoch 0.
    pub fn new(esharp: Esharp) -> SharedEsharp {
        SharedEsharp {
            inner: RwLock::new((Arc::new(esharp), 0)),
            reloading: Mutex::new(()),
        }
    }

    /// The current state and its epoch, as one consistent pair. The
    /// returned `Arc` stays valid (and immutable) across any number of
    /// concurrent reloads — a request that started on epoch *n* finishes
    /// on epoch *n*'s collection.
    pub fn snapshot(&self) -> (Arc<Esharp>, u64) {
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        (Arc::clone(&guard.0), guard.1)
    }

    /// The current epoch (advances on every reload attempt).
    pub fn epoch(&self) -> u64 {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).1
    }

    /// The current epoch, or `None` when a reload is publishing right
    /// now — for callers that must never wait (the serving event loop).
    pub fn try_epoch(&self) -> Option<u64> {
        match self.inner.try_read() {
            Ok(guard) => Some(guard.1),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner().1),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Swap in a freshly persisted domain collection (the weekly refresh
    /// hand-off), advancing the epoch. On failure the last known-good
    /// collection keeps serving and the published state carries the
    /// [`Degradation`] — exactly [`Esharp::reload_domains`] semantics,
    /// made concurrent. Returns the new epoch on success.
    ///
    /// [`Degradation`]: crate::online::Degradation
    pub fn reload(&self, path: impl AsRef<Path>) -> EsharpResult<u64> {
        self.reload_with(path, &NoFaults, 0)
    }

    /// [`SharedEsharp::reload`] with a fault-injection seam: the injector
    /// is consulted at [`RELOAD_SITE`] with the caller-supplied attempt
    /// number before the file is read, and an injected fault takes the
    /// same failure path as a real corrupt or missing file (degradation
    /// published, epoch advanced, last known-good still serving).
    pub fn reload_with(
        &self,
        path: impl AsRef<Path>,
        injector: &dyn FaultInjector,
        attempt: u32,
    ) -> EsharpResult<u64> {
        let _reloading = self.reloading.lock().unwrap_or_else(|e| e.into_inner());
        // Build the next state from a snapshot, outside the lock readers
        // take: the write lock below covers the pointer swap only.
        let mut next = (*self.snapshot().0).clone();
        let result = match injector.fault_at(RELOAD_SITE, attempt) {
            Some(fault) => {
                let err = fault_error(fault, RELOAD_SITE);
                next.note_reload_failure(err.to_string());
                Err(err.into())
            }
            None => next.reload_domains(path),
        };
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let epoch = guard.1 + 1;
        *guard = (Arc::new(next), epoch);
        result.map(|()| epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EsharpConfig;
    use crate::domains::DomainCollection;
    use crate::online::Degradation;
    use esharp_fault::{Fault, FaultPlan};
    use std::sync::{mpsc, Condvar};
    use std::time::Duration;

    /// An injector that parks every `fault_at` caller until released,
    /// injecting nothing: it holds a reload mid-build for as long as a
    /// test needs.
    #[derive(Default)]
    struct Gate {
        /// (callers parked so far, released)
        state: Mutex<(usize, bool)>,
        changed: Condvar,
    }

    impl Gate {
        fn wait_parked(&self) {
            let mut state = self.state.lock().unwrap();
            while state.0 == 0 {
                state = self.changed.wait(state).unwrap();
            }
        }

        fn release(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    impl FaultInjector for Gate {
        fn fault_at(&self, _site: &str, _attempt: u32) -> Option<Fault> {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
            None
        }
    }

    fn saved(dir: &str, tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(dir);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.bin"));
        collection(tag).save(&path).unwrap();
        path
    }

    fn collection(tag: &str) -> DomainCollection {
        DomainCollection::from_groups(vec![vec![tag.to_string(), format!("{tag} news")]])
    }

    fn shared() -> SharedEsharp {
        SharedEsharp::new(Esharp::new(collection("alpha"), EsharpConfig::tiny()))
    }

    #[test]
    fn snapshot_pairs_state_with_epoch() {
        let shared = shared();
        let (state, epoch) = shared.snapshot();
        assert_eq!(epoch, 0);
        assert!(state.domains().lookup("alpha").is_some());
        assert!(state.degradation().is_none());
    }

    #[test]
    fn successful_reload_swaps_and_bumps_epoch() {
        let dir = std::env::temp_dir().join("esharp_shared_reload_ok");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("domains.bin");
        collection("beta").save(&path).unwrap();

        let shared = shared();
        let (old, _) = shared.snapshot();
        assert_eq!(shared.reload(&path).unwrap(), 1);
        let (new, epoch) = shared.snapshot();
        assert_eq!(epoch, 1);
        assert!(new.domains().lookup("beta").is_some());
        assert!(new.degradation().is_none());
        // The pre-reload snapshot is untouched: in-flight requests finish
        // on the collection they started with.
        assert!(old.domains().lookup("alpha").is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_reload_bumps_epoch_and_publishes_degradation() {
        let dir = std::env::temp_dir().join("esharp_shared_reload_bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("domains.bin");
        std::fs::write(&bad, b"ESRT garbage").unwrap();

        let shared = shared();
        assert!(shared.reload(&bad).is_err());
        let (state, epoch) = shared.snapshot();
        // The epoch must advance even though the collection did not: the
        // degradation state is part of what a result cache keys on.
        assert_eq!(epoch, 1);
        assert!(state.domains().lookup("alpha").is_some());
        assert!(matches!(
            state.degradation(),
            Some(Degradation::StaleDomains { .. })
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn injected_fault_takes_the_degraded_path_without_touching_the_file() {
        let dir = std::env::temp_dir().join("esharp_shared_reload_fault");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("domains.bin");
        collection("gamma").save(&path).unwrap();

        let shared = shared();
        let plan = FaultPlan::new(7).trigger(RELOAD_SITE, 0, Fault::IoError { transient: false });
        assert!(shared.reload_with(&path, &plan, 0).is_err());
        let (state, epoch) = shared.snapshot();
        assert_eq!(epoch, 1);
        assert!(state.domains().lookup("alpha").is_some(), "file must not be read");
        assert!(matches!(
            state.degradation(),
            Some(Degradation::StaleDomains { .. })
        ));
        // The next attempt (attempt 1, no trigger) succeeds and clears it.
        assert_eq!(shared.reload_with(&path, &plan, 1).unwrap(), 2);
        let (state, _) = shared.snapshot();
        assert!(state.domains().lookup("gamma").is_some());
        assert!(state.degradation().is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn snapshots_do_not_wait_for_a_reload_in_progress() {
        let path = saved("esharp_shared_reload_parked", "delta");
        let shared = Arc::new(shared());
        let gate = Arc::new(Gate::default());
        let reload = {
            let (shared, gate, path) = (Arc::clone(&shared), Arc::clone(&gate), path.clone());
            std::thread::spawn(move || shared.reload_with(&path, gate.as_ref(), 0))
        };
        gate.wait_parked();
        // The reload is parked mid-build: readers still get the
        // published state at once.
        let (tx, rx) = mpsc::channel();
        {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let _ = tx.send((shared.snapshot().1, shared.try_epoch()));
            });
        }
        let seen = rx.recv_timeout(Duration::from_secs(10));
        gate.release();
        assert_eq!(seen, Ok((0, Some(0))), "a reader waited on the reload");
        assert_eq!(reload.join().unwrap().unwrap(), 1);
        assert!(shared.snapshot().0.domains().lookup("delta").is_some());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn concurrent_reloads_each_advance_the_epoch_and_the_later_one_publishes() {
        let first = saved("esharp_shared_reload_first", "beta");
        let second = saved("esharp_shared_reload_second", "gamma");
        let shared = Arc::new(shared());
        let gate = Arc::new(Gate::default());
        let earlier = {
            let (shared, gate, path) = (Arc::clone(&shared), Arc::clone(&gate), first.clone());
            std::thread::spawn(move || shared.reload_with(&path, gate.as_ref(), 0))
        };
        gate.wait_parked();
        let later = {
            let (shared, path) = (Arc::clone(&shared), second.clone());
            std::thread::spawn(move || shared.reload(&path))
        };
        // Give the later reload time to queue behind the parked one.
        std::thread::sleep(Duration::from_millis(50));
        gate.release();
        assert_eq!(earlier.join().unwrap().unwrap(), 1);
        assert_eq!(later.join().unwrap().unwrap(), 2);
        let (state, epoch) = shared.snapshot();
        assert_eq!(epoch, 2);
        assert!(state.domains().lookup("gamma").is_some());
        assert!(state.domains().lookup("beta").is_none());
        for path in [first, second] {
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }
    }
}
