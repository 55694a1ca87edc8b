//! Bounded single-producer/single-consumer ingress ring.
//!
//! A classic Lamport queue: the producer owns `tail`, the consumer owns
//! `head`, and each side only ever *reads* the other's index. One
//! release/acquire pair per operation — no CAS, no locks. Capacity is
//! fixed at construction; a full ring refuses the push (backpressure)
//! rather than overwriting.
//!
//! The engine no longer uses it: a shard's ingress queue is a plain
//! `VecDeque` on the engine's one thread. It is kept only because the
//! benchmark's `engine.ring.push_pop_ns` probe times it; the endpoints
//! are `Send`, and the module's tests run them on two threads.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Next slot to pop; written only by the consumer.
    head: AtomicUsize,
    /// Next slot to push; written only by the producer.
    tail: AtomicUsize,
}

// SAFETY: the producer/consumer split is enforced by the two handle
// types below — `head` slots are touched only through `SpscConsumer`
// and `tail` slots only through `SpscProducer`, each of which is a
// unique (non-Clone) handle. Index publication uses release stores
// matched by acquire loads, so slot contents are visible before the
// index that covers them.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let mut h = *self.head.get_mut();
        let t = *self.tail.get_mut();
        while h != t {
            // SAFETY: slots in [head, tail) were written by push and
            // not yet popped; we have &mut, so no concurrent access.
            unsafe { (*self.buf[h % self.cap].get()).assume_init_drop() };
            h = h.wrapping_add(1);
        }
    }
}

/// Producer endpoint of a [`spsc`] ring. Not cloneable: exactly one
/// producer may exist.
pub struct SpscProducer<T> {
    inner: Arc<Inner<T>>,
}

/// Consumer endpoint of a [`spsc`] ring. Not cloneable: exactly one
/// consumer may exist.
pub struct SpscConsumer<T> {
    inner: Arc<Inner<T>>,
}

/// Create a bounded SPSC ring holding at most `capacity` elements.
pub fn spsc<T: Send>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    assert!(capacity >= 1, "spsc ring capacity must be >= 1");
    let buf = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(Inner {
        buf,
        cap: capacity,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        SpscProducer {
            inner: Arc::clone(&inner),
        },
        SpscConsumer { inner },
    )
}

impl<T> SpscProducer<T> {
    /// Push `v`, or hand it back if the ring is full.
    pub fn push(&self, v: T) -> Result<(), T> {
        let inner = &*self.inner;
        let t = inner.tail.load(Ordering::Relaxed);
        let h = inner.head.load(Ordering::Acquire);
        if t.wrapping_sub(h) == inner.cap {
            return Err(v);
        }
        // SAFETY: the slot at `t` is outside [head, tail) so the
        // consumer will not touch it until the tail store below
        // publishes it; we are the unique producer.
        unsafe { (*inner.buf[t % inner.cap].get()).write(v) };
        inner.tail.store(t.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Number of elements currently buffered (exact from the producer
    /// side: the consumer can only shrink it concurrently).
    pub fn len(&self) -> usize {
        let t = self.inner.tail.load(Ordering::Relaxed);
        let h = self.inner.head.load(Ordering::Acquire);
        t.wrapping_sub(h)
    }

    /// `true` when no elements are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fixed capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }
}

impl<T> SpscConsumer<T> {
    /// Pop the oldest element, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let h = inner.head.load(Ordering::Relaxed);
        let t = inner.tail.load(Ordering::Acquire);
        if h == t {
            return None;
        }
        // SAFETY: head < tail, so the slot was fully written before the
        // producer's release store on tail; we are the unique consumer.
        let v = unsafe { (*inner.buf[h % inner.cap].get()).assume_init_read() };
        inner.head.store(h.wrapping_add(1), Ordering::Release);
        Some(v)
    }

    /// Number of elements currently buffered (exact from the consumer
    /// side: the producer can only grow it concurrently).
    pub fn len(&self) -> usize {
        let h = self.inner.head.load(Ordering::Relaxed);
        let t = self.inner.tail.load(Ordering::Acquire);
        t.wrapping_sub(h)
    }

    /// `true` when no elements are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_backpressure() {
        let (p, c) = spsc::<u32>(3);
        assert!(c.pop().is_none());
        assert_eq!(p.push(1), Ok(()));
        assert_eq!(p.push(2), Ok(()));
        assert_eq!(p.push(3), Ok(()));
        assert_eq!(p.push(4), Err(4));
        assert_eq!(p.len(), 3);
        assert_eq!(c.pop(), Some(1));
        assert_eq!(p.push(4), Ok(()));
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
        assert_eq!(c.pop(), Some(4));
        assert!(c.pop().is_none());
        assert!(c.is_empty() && p.is_empty());
    }

    #[test]
    fn wraps_past_capacity_many_times() {
        let (p, c) = spsc::<u64>(2);
        for i in 0..1000u64 {
            p.push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
    }

    #[test]
    fn drops_unconsumed_elements() {
        let counter = Arc::new(());
        let (p, c) = spsc::<Arc<()>>(4);
        p.push(Arc::clone(&counter)).unwrap();
        p.push(Arc::clone(&counter)).unwrap();
        assert_eq!(Arc::strong_count(&counter), 3);
        drop(p);
        drop(c);
        assert_eq!(Arc::strong_count(&counter), 1);
    }

    #[test]
    fn two_thread_stress_preserves_sequence() {
        let (p, c) = spsc::<u64>(8);
        let n = 20_000u64;
        let t = std::thread::spawn(move || {
            let mut expect = 0;
            while expect < n {
                match c.pop() {
                    Some(v) => {
                        assert_eq!(v, expect);
                        expect += 1;
                    }
                    // Yield so the test stays fast on single-core runners.
                    None => std::thread::yield_now(),
                }
            }
        });
        let mut i = 0;
        while i < n {
            if p.push(i).is_err() {
                std::thread::yield_now();
            } else {
                i += 1;
            }
        }
        t.join().unwrap();
    }
}
