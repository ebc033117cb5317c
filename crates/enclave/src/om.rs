//! Oblivious-memory budget accounting.
//!
//! The paper assumes "a limited amount of oblivious memory is available to
//! the enclave and protected from access pattern leaks" (§2.2). Data
//! structures that must live there — ORAM position maps, the Small-select
//! buffer, group-by hash tables, hash-join build tables, sort chunks —
//! allocate against this budget. When the budget shrinks, operators make
//! more passes rather than failing (Figure 8 measures exactly that), so
//! most allocation sites ask for *whatever is available* via
//! [`OmBudget::available`] and clamp their buffer sizes.
//!
//! The pool is shared through an `Arc` with atomic accounting, so a budget
//! (and everything holding one, e.g. a `Database`) is `Send + Sync` —
//! required by the concurrent serving front-end, whose sessions reach the
//! one engine from their own threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Error: an allocation would exceed the oblivious-memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmError {
    /// Bytes requested.
    pub requested: usize,
    /// Bytes currently free.
    pub available: usize,
}

impl std::fmt::Display for OmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oblivious memory exhausted: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OmError {}

#[derive(Debug)]
struct Inner {
    capacity: usize,
    used: AtomicUsize,
}

/// A shared handle to the enclave's oblivious-memory pool.
#[derive(Debug, Clone)]
pub struct OmBudget {
    inner: Arc<Inner>,
}

impl OmBudget {
    /// Creates a pool of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self { inner: Arc::new(Inner { capacity, used: AtomicUsize::new(0) }) }
    }

    /// Total pool size in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Acquire)
    }

    /// Bytes currently free.
    pub fn available(&self) -> usize {
        self.inner.capacity - self.used()
    }

    /// Reserves `bytes`; the reservation is released when the returned guard
    /// drops.
    pub fn try_alloc(&self, bytes: usize) -> Result<OmAllocation, OmError> {
        let mut used = self.inner.used.load(Ordering::Acquire);
        loop {
            let available = self.inner.capacity - used;
            if bytes > available {
                return Err(OmError { requested: bytes, available });
            }
            match self.inner.used.compare_exchange_weak(
                used,
                used + bytes,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(OmAllocation { budget: Arc::clone(&self.inner), bytes }),
                Err(actual) => used = actual,
            }
        }
    }

    /// Reserves `min(bytes, available)` and reports how much was granted.
    ///
    /// This is the degrade-gracefully path: e.g. the Small select buffer
    /// takes whatever is left and makes more passes.
    pub fn alloc_up_to(&self, bytes: usize) -> OmAllocation {
        let mut used = self.inner.used.load(Ordering::Acquire);
        loop {
            let granted = bytes.min(self.inner.capacity - used);
            match self.inner.used.compare_exchange_weak(
                used,
                used + granted,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return OmAllocation { budget: Arc::clone(&self.inner), bytes: granted },
                Err(actual) => used = actual,
            }
        }
    }
}

/// RAII guard for an oblivious-memory reservation.
#[derive(Debug)]
pub struct OmAllocation {
    budget: Arc<Inner>,
    bytes: usize,
}

impl OmAllocation {
    /// Bytes actually reserved.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for OmAllocation {
    fn drop(&mut self) {
        self.budget.used.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_release() {
        let om = OmBudget::new(100);
        assert_eq!(om.available(), 100);
        {
            let a = om.try_alloc(60).unwrap();
            assert_eq!(a.bytes(), 60);
            assert_eq!(om.available(), 40);
            let _b = om.try_alloc(40).unwrap();
            assert_eq!(om.available(), 0);
        }
        assert_eq!(om.available(), 100);
    }

    #[test]
    fn over_allocation_rejected() {
        let om = OmBudget::new(100);
        let _a = om.try_alloc(80).unwrap();
        let err = om.try_alloc(21).unwrap_err();
        assert_eq!(err, OmError { requested: 21, available: 20 });
    }

    #[test]
    fn alloc_up_to_clamps() {
        let om = OmBudget::new(100);
        let _a = om.try_alloc(90).unwrap();
        let b = om.alloc_up_to(50);
        assert_eq!(b.bytes(), 10);
        assert_eq!(om.available(), 0);
    }

    #[test]
    fn clones_share_pool() {
        let om = OmBudget::new(100);
        let om2 = om.clone();
        let _a = om.try_alloc(70).unwrap();
        assert_eq!(om2.available(), 30);
    }

    #[test]
    fn zero_budget_grants_nothing() {
        let om = OmBudget::new(0);
        assert!(om.try_alloc(1).is_err());
        assert_eq!(om.alloc_up_to(10).bytes(), 0);
    }

    #[test]
    fn concurrent_allocs_never_oversubscribe() {
        let om = OmBudget::new(1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let om = om.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        if let Ok(g) = om.try_alloc(7) {
                            assert!(om.used() <= om.capacity());
                            drop(g);
                        }
                        let g = om.alloc_up_to(11);
                        assert!(om.used() <= om.capacity());
                        drop(g);
                    }
                });
            }
        });
        assert_eq!(om.used(), 0);
    }
}
