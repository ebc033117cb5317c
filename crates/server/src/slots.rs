//! The session limiter: at most `limit` connection handlers run at once.
//!
//! [`with_session_slots`] opens a `std::thread::scope`; each
//! [`SessionSlots::submit`] takes a slot, blocking the accept loop while
//! none is free (back-pressure, not thread explosion), and runs the
//! handler on a scoped thread that gives the slot back when it ends —
//! also when it panics, so a poisoned session can never wedge the
//! listener. The scope joins every handler before it returns.

use std::sync::{Arc, Condvar, Mutex};

/// Runs `f` with a submission handle bounded at `limit` concurrent
/// sessions, and joins every submitted session before returning (the
/// `std::thread::scope` guarantee), so borrowed state outlives them all.
/// A panicking session propagates when the scope closes, after all other
/// sessions are joined — a server that must survive a poisoned session
/// should `catch_unwind` inside the job.
pub(crate) fn with_session_slots<'env, F, R>(limit: usize, f: F) -> R
where
    F: for<'scope> FnOnce(&SessionSlots<'scope, 'env>) -> R,
{
    std::thread::scope(move |scope| {
        let slots = Arc::new(Slots { free: Mutex::new(limit), freed: Condvar::new() });
        f(&SessionSlots { scope, slots })
    })
}

/// The free-slot count shared between a [`SessionSlots`] and its sessions.
#[derive(Debug)]
struct Slots {
    free: Mutex<usize>,
    freed: Condvar,
}

impl Slots {
    fn acquire(&self) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        while *free == 0 {
            free = self.freed.wait(free).unwrap_or_else(|e| e.into_inner());
        }
        *free -= 1;
    }

    fn release(&self) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        *free += 1;
        self.freed.notify_one();
    }
}

/// Releases a slot even if the session panics, so a poisoned session can
/// never deadlock later `submit` calls.
struct SlotGuard(Arc<Slots>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// The submission handle created by [`with_session_slots`].
pub(crate) struct SessionSlots<'scope, 'env: 'scope> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    slots: Arc<Slots>,
}

impl<'scope, 'env> SessionSlots<'scope, 'env> {
    /// Runs `session` on a scoped thread, blocking the caller until a
    /// slot is free. Sessions may borrow anything that outlives the
    /// enclosing [`with_session_slots`] call.
    pub(crate) fn submit<F>(&self, session: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.slots.acquire();
        let guard = SlotGuard(Arc::clone(&self.slots));
        self.scope.spawn(move || {
            let _guard = guard;
            let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Worker);
            oblidb_telemetry::counter_add(oblidb_telemetry::Counter::PoolJobs, 1);
            session();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_bounds_concurrency_and_joins_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        with_session_slots(3, |slots| {
            for _ in 0..20 {
                slots.submit(|| {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        // The scope joined every session, and never ran more than the limit.
        assert_eq!(done.load(Ordering::SeqCst), 20);
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn scoped_job_panic_frees_slot_and_propagates_at_join() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_session_slots(1, |slots| {
                slots.submit(|| panic!("session exploded"));
                // The slot must come back even though the session
                // panicked, otherwise this second submit deadlocks.
                slots.submit(|| {});
            });
        }));
        assert!(caught.is_err(), "scope must re-raise the session panic at join");
    }
}
