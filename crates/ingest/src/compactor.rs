//! The background compaction thread: watches a [`LiveCorpus`]'s pending
//! op backlog and folds the delta segment into a fresh base whenever it
//! crosses a threshold, replacing the weekly full rebuild with a
//! continuous process that never pauses serving beyond the publish swap.

use crate::live::{CompactionReport, LiveCorpus};
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// When and how often the background thread compacts.
#[derive(Debug, Clone, Copy)]
pub struct CompactorConfig {
    /// Compact once this many ops have accumulated since the last base.
    pub threshold_ops: usize,
    /// How often the backlog is polled.
    pub interval: Duration,
}

impl Default for CompactorConfig {
    fn default() -> Self {
        CompactorConfig {
            threshold_ops: 1024,
            interval: Duration::from_millis(250),
        }
    }
}

/// Handle to the background compaction thread. Dropping without
/// [`Compactor::stop`] detaches the thread (it exits at the next poll
/// once the handle's shared state is gone — prefer an explicit stop).
pub struct Compactor {
    /// The stop flag and the condvar that wakes the loop to read it.
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Compactor {
    /// Spawn the compaction loop over `live`. `on_cycle` hears every
    /// cycle that published a new base or failed (a failed one leaves
    /// the corpus serving on its previous base).
    pub fn start(
        live: Arc<LiveCorpus>,
        config: CompactorConfig,
        on_cycle: impl Fn(io::Result<CompactionReport>) + Send + 'static,
    ) -> Compactor {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("esharp-compactor".to_string())
            .spawn(move || {
                let (lock, cvar) = &*thread_shared;
                let mut guard = lock.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if *guard {
                        return;
                    }
                    if live.pending_ops() >= config.threshold_ops.max(1) {
                        // Compaction runs without the stop lock held so
                        // stop() can still be requested mid-cycle.
                        drop(guard);
                        if let Some(cycle) = live.compact().transpose() {
                            on_cycle(cycle);
                        }
                        guard = lock.lock().unwrap_or_else(|e| e.into_inner());
                    }
                    let (next, _timeout) = cvar
                        .wait_timeout(guard, config.interval)
                        .unwrap_or_else(|e| e.into_inner());
                    guard = next;
                }
            })
            .ok();
        Compactor { shared, handle }
    }

    /// Stop the loop and join the thread. Idempotent.
    pub fn stop(&mut self) {
        {
            let (lock, cvar) = &*self.shared;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::IngestOp;
    use esharp_microblog::{Corpus, Tweet, User};
    use std::time::Instant;

    fn corpus() -> Corpus {
        let users = vec![User {
            id: 0,
            handle: "alice".to_string(),
            display_name: "A".to_string(),
            description: String::new(),
            followers: 5,
            verified: false,
            expert_domains: vec![],
            spam: false,
        }];
        let tweets = vec![Tweet::parse(0, 0, "seed tweet", |_| None)];
        Corpus::new(users, tweets)
    }

    /// Start a compactor over `live` that records each cycle's success.
    fn start(live: &Arc<LiveCorpus>, threshold_ops: usize) -> (Compactor, Arc<Mutex<Vec<bool>>>) {
        let cycles = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&cycles);
        let compactor = Compactor::start(
            Arc::clone(live),
            CompactorConfig {
                threshold_ops,
                interval: Duration::from_millis(5),
            },
            move |cycle| sink.lock().unwrap().push(cycle.is_ok()),
        );
        (compactor, cycles)
    }

    #[test]
    fn compacts_once_backlog_crosses_threshold() {
        let live = Arc::new(LiveCorpus::new(corpus()));
        let (mut compactor, cycles) = start(&live, 4);
        for i in 0..6 {
            live.apply(&IngestOp::Append {
                author: "alice".into(),
                text: format!("tweet number {i}"),
            })
            .unwrap();
        }
        // A fold is promised only once the backlog reaches the threshold:
        // a cycle after the 4th append leaves the last 2 ops pending.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (cycles.lock().unwrap().is_empty() || live.pending_ops() >= 4)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        compactor.stop();
        let cycles = cycles.lock().unwrap();
        assert!(!cycles.is_empty(), "backlog never compacted");
        assert!(cycles.iter().all(|&ok| ok), "a cycle failed: {cycles:?}");
        assert!(live.pending_ops() < 4);
        assert_eq!(live.read().corpus().tweet_count(), 7);
    }

    #[test]
    fn idle_loop_never_compacts_and_stops_cleanly() {
        let live = Arc::new(LiveCorpus::new(corpus()));
        let (mut compactor, cycles) = start(&live, 1);
        std::thread::sleep(Duration::from_millis(30));
        compactor.stop();
        compactor.stop(); // idempotent
        assert!(cycles.lock().unwrap().is_empty());
        assert_eq!(live.epoch(), 0, "idle compactor must not publish");
    }
}
