//! Bounded MPMC frame queues connecting the runtime's pipeline stages.
//!
//! Built on `Mutex` + `Condvar` only (the workspace is `forbid(unsafe)`
//! and has no external dependencies). Both ends are multi-producer and
//! multi-consumer: every submitter and every worker of a stage can
//! push/pop concurrently. A queue can be *closed*, after which pushes
//! fail fast and pops drain the remaining items before returning `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A fixed-capacity multi-producer multi-consumer queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    dropped: u64,
    pushed: u64,
    popped: u64,
    high_water: usize,
}

/// Outcome of a push against a closed queue: the item is handed back.
#[derive(Debug)]
pub struct Closed<T>(pub T);

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                dropped: 0,
                pushed: 0,
                popped: 0,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Pushes `item`, blocking while the queue is full (the `Block`
    /// backpressure policy). Fails only if the queue is closed.
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] carrying the item back if the queue was closed
    /// before space became available.
    pub fn push_blocking(&self, item: T) -> Result<(), Closed<T>> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        loop {
            if state.closed {
                return Err(Closed(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                state.pushed += 1;
                state.high_water = state.high_water.max(state.items.len());
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue mutex poisoned");
        }
    }

    /// Pushes `item`, evicting the oldest queued item when full (the
    /// `DropOldest` backpressure policy). Returns the evicted item, if
    /// any, so the caller can account the drop to its stream.
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] carrying the item back if the queue is closed.
    pub fn push_drop_oldest(&self, item: T) -> Result<Option<T>, Closed<T>> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        if state.closed {
            return Err(Closed(item));
        }
        let evicted = if state.items.len() >= self.capacity {
            state.dropped += 1;
            state.items.pop_front()
        } else {
            None
        };
        state.items.push_back(item);
        state.pushed += 1;
        state.high_water = state.high_water.max(state.items.len());
        self.not_empty.notify_one();
        Ok(evicted)
    }

    /// Pops the oldest item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained. The second tuple
    /// element is a dequeue ticket: a counter strictly increasing in pop
    /// order, letting consumers prove FIFO admission ordering.
    pub fn pop(&self) -> Option<(T, u64)> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                let ticket = state.popped;
                state.popped += 1;
                self.not_full.notify_one();
                return Some((item, ticket));
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue mutex poisoned");
        }
    }

    /// Pops the oldest item if one is queued, without blocking — the
    /// micro-batch coalescing primitive: a worker that already holds one
    /// frame drains whatever else is ready, but never waits for more.
    /// Returns `None` when the queue is momentarily empty *or* closed.
    pub fn try_pop(&self) -> Option<(T, u64)> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        let item = state.items.pop_front()?;
        let ticket = state.popped;
        state.popped += 1;
        self.not_full.notify_one();
        Some((item, ticket))
    }

    /// Closes the queue: pending and future pushes fail, pops drain the
    /// backlog then return `None`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Closes the queue *and* discards the backlog — the abort path.
    /// Blocked consumers return `None` immediately instead of draining
    /// work whose results would be thrown away.
    pub fn close_and_clear(&self) {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        state.closed = true;
        state.items.clear();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue mutex poisoned").items.len()
    }

    /// The deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.state.lock().expect("queue mutex poisoned").high_water
    }

    /// Items evicted by [`BoundedQueue::push_drop_oldest`].
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("queue mutex poisoned").dropped
    }

    /// Items ever accepted (excluding evictions).
    pub fn pushed(&self) -> u64 {
        self.state.lock().expect("queue mutex poisoned").pushed
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::thread;

    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push_blocking(i).unwrap();
        }
        for want in 0..4 {
            let (got, ticket) = q.pop().unwrap();
            assert_eq!(got, want);
            assert_eq!(ticket, want as u64);
        }
        assert_eq!(q.high_water(), 4);
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let q = BoundedQueue::new(2);
        assert!(q.push_drop_oldest(1).unwrap().is_none());
        assert!(q.push_drop_oldest(2).unwrap().is_none());
        assert_eq!(q.push_drop_oldest(3).unwrap(), Some(1));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.pop().unwrap().0, 2);
        assert_eq!(q.pop().unwrap().0, 3);
    }

    #[test]
    fn close_and_clear_discards_backlog() {
        let q = BoundedQueue::new(4);
        q.push_blocking(1).unwrap();
        q.push_blocking(2).unwrap();
        q.close_and_clear();
        assert!(q.pop().is_none(), "backlog must be discarded, not drained");
        assert_eq!(q.depth(), 0);
        assert!(q.push_blocking(3).is_err());
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = BoundedQueue::new(2);
        assert!(q.try_pop().is_none(), "empty queue yields nothing");
        q.push_blocking(5).unwrap();
        let (item, ticket) = q.try_pop().unwrap();
        assert_eq!(item, 5);
        assert_eq!(ticket, 0);
        q.close();
        assert!(q.try_pop().is_none(), "closed+empty yields nothing");
    }

    #[test]
    fn try_pop_shares_tickets_with_pop() {
        let q = BoundedQueue::new(4);
        q.push_blocking(1).unwrap();
        q.push_blocking(2).unwrap();
        assert_eq!(q.pop().unwrap(), (1, 0));
        assert_eq!(q.try_pop().unwrap(), (2, 1));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push_blocking(7).unwrap();
        q.close();
        assert!(q.push_blocking(8).is_err());
        assert_eq!(q.pop().unwrap().0, 7);
        assert!(q.pop().is_none());
    }

    #[test]
    fn blocking_push_resumes_after_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push_blocking(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_blocking(2).is_ok())
        };
        // The producer is blocked until we make room.
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop().unwrap().0, 1);
        assert!(producer.join().unwrap());
        assert_eq!(q.pop().unwrap().0, 2);
    }

    #[test]
    fn mpmc_conserves_items() {
        let q = Arc::new(BoundedQueue::new(8));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some((item, _)) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100 {
                        q.push_blocking(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut want: Vec<i32> = (0..100).chain(1000..1100).collect();
        want.sort_unstable();
        assert_eq!(all, want);
    }
}
