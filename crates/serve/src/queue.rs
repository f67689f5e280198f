//! The bounded job queue feeding the worker pool.
//!
//! One [`gdf_tenant::FairScheduler`] behind one mutex and one condvar.
//! Dispatch order is weighted deficit round-robin across tenant lanes
//! within priority bands, so one tenant's burst queues behind its own
//! lane. Without a tenant registry no lane is configured and every job
//! lands in the anonymous `""` lane (weight 1, no quotas): plain FIFO.
//!
//! Capacity bounds the total of queued jobs across all lanes; past it
//! [`FairQueue::push`] refuses, and the server answers `503 Service
//! Unavailable` instead of buffering without bound. Every idle worker
//! waits on the one condvar, so a push wakes whichever worker is free.
//! Waits are short-timeout so shutdown flags are observed promptly.

use gdf_tenant::{EnqueueError, FairScheduler, LaneConfig, TenantRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Returned by [`FairQueue::push`] when a job cannot be queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Global capacity exhausted — the server is saturated (`503`).
    Full,
    /// The tenant's `max_queued` quota is exhausted (`429`).
    OverQuota,
}

/// See the [module docs](self). Scheduling decisions need global
/// (all-lane) state, so the mutex guards pure bookkeeping and is never
/// held across a job run.
pub struct FairQueue {
    sched: Mutex<FairScheduler>,
    available: Condvar,
    closed: AtomicBool,
}

impl FairQueue {
    /// A queue bounding total queued jobs at `capacity` (clamped to
    /// ≥ 1), with one configured lane per registry tenant. Jobs of
    /// unknown tenants, and every job when `registry` is `None`, get a
    /// default lane on first enqueue.
    pub fn new(capacity: usize, registry: Option<&TenantRegistry>) -> Self {
        let mut sched = FairScheduler::new(capacity.max(1));
        for tenant in registry.iter().flat_map(|r| &r.tenants) {
            sched.configure(&tenant.id, LaneConfig::from(tenant));
        }
        FairQueue {
            sched: Mutex::new(sched),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FairScheduler> {
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues on the tenant's lane (`None` = the ownerless lane).
    pub fn push(&self, tenant: Option<&str>, id: u64) -> Result<(), PushError> {
        let result = self.lock().enqueue(tenant.unwrap_or(""), id);
        match result {
            Ok(()) => {
                self.available.notify_one();
                Ok(())
            }
            Err(EnqueueError::Saturated) => Err(PushError::Full),
            Err(EnqueueError::OverQuota) => Err(PushError::OverQuota),
        }
    }

    /// Dispatches the next job per the fair schedule, blocking up to
    /// `timeout` when nothing is eligible. `None` on timeout or when
    /// closed and drained.
    pub fn pop(&self, timeout: Duration) -> Option<u64> {
        let mut sched = self.lock();
        if let Some((_, id)) = sched.dispatch() {
            return Some(id);
        }
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        let (mut sched, _timeout) = self
            .available
            .wait_timeout(sched, timeout)
            .unwrap_or_else(|e| e.into_inner());
        sched.dispatch().map(|(_, id)| id)
    }

    /// Records a dispatched job finishing, re-opening its lane if it
    /// was at `max_running` — and waking a worker to check.
    pub fn finish(&self, tenant: Option<&str>) {
        self.lock().finish(tenant.unwrap_or(""));
        self.available.notify_one();
    }

    /// Removes a queued job (used when a queued job is cancelled before
    /// a worker picks it up); `true` if found.
    pub fn remove(&self, id: u64) -> bool {
        self.lock().remove(id)
    }

    /// Total queued jobs.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the queue closed and wakes every waiting worker.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.available.notify_all();
    }

    /// `true` once [`FairQueue::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// `(tenant, queued, running)` per lane, for `/metrics`.
    pub fn snapshot(&self) -> Vec<(String, usize, usize)> {
        self.lock().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_tenant::TenantSpec;
    use std::sync::Arc;

    const TICK: Duration = Duration::from_millis(1);

    fn registry() -> TenantRegistry {
        TenantRegistry::new(vec![
            TenantSpec::new("acme", "t-a")
                .with_weight(2)
                .with_max_queued(8),
            TenantSpec::new("zeta", "t-z").with_max_queued(2),
        ])
        .unwrap()
    }

    #[test]
    fn fair_queue_dispatches_by_weight() {
        // Enough backlog on both lanes for two full DRR rounds, inside
        // each tenant's own `max_queued`.
        let q = FairQueue::new(64, Some(&registry()));
        for j in 0..4u64 {
            q.push(Some("acme"), j).unwrap();
        }
        for j in 0..2u64 {
            q.push(Some("zeta"), 10 + j).unwrap();
        }
        // acme (weight 2) gets two dispatches per zeta's one.
        let order: Vec<u64> = (0..6).map(|_| q.pop(TICK).unwrap()).collect();
        assert_eq!(order, vec![0, 1, 10, 2, 3, 11]);
        assert_eq!(q.pop(TICK), None);
    }

    #[test]
    fn open_queue_is_a_bounded_fifo() {
        // No registry: every ownerless job lands in the one default
        // lane (weight 1, no quotas), which pops in push order up to
        // the capacity. Capacity 0 is clamped to 1.
        for (capacity, ids) in [(4, vec![3, 1, 4, 2]), (0, vec![5])] {
            let q = FairQueue::new(capacity, None);
            for &id in &ids {
                q.push(None, id).unwrap();
            }
            assert_eq!(q.push(None, 99), Err(PushError::Full));
            assert_eq!(q.len(), ids.len());
            let order: Vec<u64> = ids.iter().map(|_| q.pop(TICK).unwrap()).collect();
            assert_eq!(order, ids);
            assert_eq!(q.pop(TICK), None);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn fair_queue_separates_quota_from_saturation() {
        let q = FairQueue::new(3, Some(&registry()));
        q.push(Some("zeta"), 1).unwrap();
        q.push(Some("zeta"), 2).unwrap();
        // zeta's max_queued=2 is its own problem...
        assert_eq!(q.push(Some("zeta"), 3), Err(PushError::OverQuota));
        q.push(Some("acme"), 4).unwrap();
        // ...while the global bound is everyone's.
        assert_eq!(q.push(Some("acme"), 5), Err(PushError::Full));
        assert_eq!(q.len(), 3);
        assert!(q.remove(2));
        assert!(!q.remove(2));
        q.push(Some("zeta"), 3).unwrap();
    }

    #[test]
    fn fair_queue_wakes_a_waiting_worker_and_closes() {
        for registry in [None, Some(registry())] {
            let q = Arc::new(FairQueue::new(16, registry.as_ref()));
            let q2 = Arc::clone(&q);
            let handle = std::thread::spawn(move || q2.pop(Duration::from_secs(5)));
            std::thread::sleep(Duration::from_millis(20));
            q.push(None, 7).unwrap();
            assert_eq!(handle.join().unwrap(), Some(7));
            q.finish(None);
            // A removed job never dispatches; a closed queue pops
            // nothing and returns at once.
            q.push(None, 8).unwrap();
            assert!(q.remove(8));
            q.close();
            assert!(q.is_closed());
            assert_eq!(q.pop(Duration::from_secs(5)), None);
        }
    }
}
