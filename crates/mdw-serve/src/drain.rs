//! Graceful drain: shutdown as a first-class, *truthful* path.
//!
//! Stopping a serving process naively drops whatever was on the wire. The
//! drain controller instead walks the ladder the ISSUE prescribes:
//!
//! 1. **Stop accepting.** New connections get an immediate `503` and the
//!    listener closes.
//! 2. **Let in-flight requests finish** until the drain deadline.
//! 3. **Cancel the stragglers.** Every registered request carries the
//!    [`CancellationToken`] its [`QueryBudget`](mdw_rdf::budget::QueryBudget)
//!    checks at bounded intervals, so a cancelled query returns its partial
//!    rows tagged `Truncated { Cancelled }` — and the response frame still
//!    closes properly. Nothing is abandoned mid-chunk; clients get a valid
//!    prefix and an honest flag, never silence.
//!
//! The registry doubles as the server's in-flight census for `/admin/stats`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mdw_rdf::budget::CancellationToken;

#[derive(Default)]
struct Registry {
    inflight: HashMap<u64, CancellationToken>,
}

/// Tracks every request currently being served, by cancellation token.
pub struct DrainController {
    draining: AtomicBool,
    next_id: AtomicU64,
    registry: Mutex<Registry>,
    emptied: Condvar,
}

impl Default for DrainController {
    fn default() -> Self {
        Self::new()
    }
}

impl DrainController {
    /// A controller with nothing in flight.
    pub fn new() -> Self {
        DrainController {
            draining: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            registry: Mutex::new(Registry::default()),
            emptied: Condvar::new(),
        }
    }

    /// True once a drain has begun: the listener must stop accepting.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Registers a request's cancellation token; the returned guard
    /// deregisters on drop (RAII — panicking handlers still deregister
    /// during unwind, so a drain never waits on a corpse).
    pub fn register(self: &Arc<Self>, token: CancellationToken) -> InFlightGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.registry.lock().unwrap().inflight.insert(id, token);
        InFlightGuard { controller: Arc::clone(self), id }
    }

    /// Requests currently registered.
    pub fn inflight(&self) -> usize {
        self.registry.lock().unwrap().inflight.len()
    }

    /// Marks the server draining (idempotent). Returns whether this call
    /// was the first.
    pub fn begin(&self) -> bool {
        !self.draining.swap(true, Ordering::AcqRel)
    }

    /// Blocks until nothing is in flight or `grace` elapses; returns true
    /// if the registry emptied in time.
    pub fn wait_idle(&self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        let mut registry = self.registry.lock().unwrap();
        while !registry.inflight.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self.emptied.wait_timeout(registry, deadline - now).unwrap();
            registry = next;
        }
        true
    }

    /// Fires every registered token. Queries notice within one budget
    /// check interval and come back truncated-but-truthful.
    pub fn cancel_stragglers(&self) -> usize {
        let registry = self.registry.lock().unwrap();
        for token in registry.inflight.values() {
            token.cancel();
        }
        registry.inflight.len()
    }

    /// The full ladder: stop accepting, wait out `grace`, cancel whatever
    /// is left, then wait (bounded by `grace` again) for the cancelled
    /// stragglers to unwind. Returns the number of requests that had to be
    /// cancelled.
    pub fn drain(&self, grace: Duration) -> usize {
        self.begin();
        if self.wait_idle(grace) {
            return 0;
        }
        let cancelled = self.cancel_stragglers();
        // Cancelled budgets trip within CHECK_INTERVAL steps; give them a
        // bounded window to flush their truncated responses.
        self.wait_idle(grace);
        cancelled
    }
}

/// RAII registration of one in-flight request.
pub struct InFlightGuard {
    controller: Arc<DrainController>,
    id: u64,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        let mut registry = self.controller.registry.lock().unwrap();
        registry.inflight.remove(&self.id);
        if registry.inflight.is_empty() {
            self.controller.emptied.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_register_and_deregister() {
        let c = Arc::new(DrainController::new());
        let g1 = c.register(CancellationToken::new());
        let g2 = c.register(CancellationToken::new());
        assert_eq!(c.inflight(), 2);
        drop(g1);
        assert_eq!(c.inflight(), 1);
        drop(g2);
        assert_eq!(c.inflight(), 0);
        assert!(c.wait_idle(Duration::ZERO));
    }

    #[test]
    fn drain_cancels_stragglers_and_counts_them() {
        let c = Arc::new(DrainController::new());
        let token = CancellationToken::new();
        let guard = c.register(token.clone());
        // A worker that only finishes once cancelled.
        let c2 = Arc::clone(&c);
        let worker = std::thread::spawn(move || {
            while !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(guard);
            c2.inflight()
        });
        let cancelled = c.drain(Duration::from_millis(30));
        assert_eq!(cancelled, 1);
        assert!(c.is_draining());
        assert_eq!(worker.join().unwrap(), 0);
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn begin_is_idempotent_and_first_call_wins() {
        let c = DrainController::new();
        assert!(c.begin());
        assert!(!c.begin());
        assert!(c.is_draining());
    }

    #[test]
    fn guard_deregisters_during_unwind() {
        let c = Arc::new(DrainController::new());
        let c2 = Arc::clone(&c);
        let _ = std::panic::catch_unwind(move || {
            let _guard = c2.register(CancellationToken::new());
            panic!("handler blew up");
        });
        assert_eq!(c.inflight(), 0);
    }
}
