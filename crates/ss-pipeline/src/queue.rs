//! Bounded admission queue: `ss-serve`'s backpressure primitive.
//!
//! Admission never blocks. [`BoundedQueue::try_push`] enqueues only while
//! the queue holds fewer than `capacity` items and otherwise hands the
//! item back as a typed refusal, so a service answers `Overloaded`
//! instead of hanging a client. Workers block in [`BoundedQueue::pop`]
//! when the queue is empty and drain remaining items after
//! [`BoundedQueue::close`], which is also the shutdown signal: a closed
//! *and* empty queue returns `None` and the worker exits.
//!
//! This is the crate's concurrency containment module (see ss-lint's
//! `concurrency-containment` rule): all blocking synchronization is
//! argued here, once. Locking is poison-safe — a panicked peer must not
//! cascade into a panic on this path, so every acquisition recovers the
//! guard with [`PoisonError::into_inner`]; the protected state (a
//! `VecDeque`, a flag and a gauge) is valid after any partial mutation.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Multi-producer multi-consumer FIFO with a hard capacity bound,
/// non-blocking admission, blocking pop, close semantics, and a
/// high-water-mark gauge.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

/// Why a [`BoundedQueue::try_push`] was refused. Both arms hand the item
/// back so the caller can reply to its originator instead of losing it —
/// the admission-control contract `ss-serve` builds its typed
/// `Overloaded` rejection on.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The queue is closed; the item can never be admitted.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (clamped to at
    /// least 1 so an empty queue always admits).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Poison-safe lock acquisition (see the module docs).
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking admission: enqueues `item` only if there is room
    /// right now. Overload becomes a typed [`TryPushError::Full`] that
    /// hands the item back, so a service can answer `Overloaded` instead
    /// of hanging a client.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] when at capacity, [`TryPushError::Closed`]
    /// after [`BoundedQueue::close`]; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and dequeues it. Returns `None`
    /// once the queue is closed **and** drained — the consumer's signal
    /// that no more work will ever arrive.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending items remain poppable, further pushes
    /// fail, and every blocked consumer wakes. Idempotent; `ss-serve`
    /// calls it to begin a drain's final flush.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// Items currently queued (a point-in-time gauge; another thread may
    /// change it before the caller acts on the answer).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when the queue holds no items right now.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once [`BoundedQueue::close`] has been called. Pending items
    /// remain poppable after close — this only reports that no *new*
    /// item will ever be admitted.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Deepest occupancy ever observed — the backpressure gauge `ss-serve`
    /// reports in its drain summary and stats.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// The capacity bound this queue enforces.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        assert!(q.try_push(7).is_ok());
        q.close();
        assert!(q.try_push(8).is_err(), "push after close must fail");
        assert_eq!(q.pop(), Some(7), "pending items survive close");
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed+empty stays terminal");
    }

    #[test]
    fn try_push_rejects_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(TryPushError::Full(item)) => assert_eq!(item, 3, "item handed back"),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "room reopened by the pop");
        q.close();
        assert!(q.is_closed());
        match q.try_push(4) {
            Err(TryPushError::Closed(item)) => assert_eq!(item, 4),
            other => panic!("expected Closed, got {other:?}"),
        }
        // Pending items survive close and drain in order.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.try_push(1).is_ok());
        assert!(matches!(q.try_push(2), Err(TryPushError::Full(2))));
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        std::thread::scope(|s| {
            let t = s.spawn(|| q.pop());
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.close();
            assert_eq!(t.join().expect("consumer thread"), None);
        });
    }
}
