//! Cancellable event queue with deterministic ordering.
//!
//! Events are ordered by `(time, sequence)`, where `sequence` is a
//! monotonically increasing counter assigned at scheduling time. Two events
//! scheduled for the same instant therefore pop in scheduling order, which
//! keeps simulations bit-for-bit reproducible.
//!
//! Storage is one binary heap of `(time, seq, payload)` entries, `O(log n)`
//! per schedule and pop. A heap sift moves whole entries, so the cost per
//! event scales with the entry size: keep event payloads small and box
//! rare, bulky variants (the engine's entries are 40 bytes).
//!
//! Cancellation is lazy: [`EventQueue::cancel`] marks the handle and the
//! entry is discarded when it reaches the front. This keeps both
//! scheduling and cancellation cheap and avoids the tombstone scan a
//! `Vec`-backed queue would need.

use crate::hash::FxHashSet;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can be cancelled before it fires.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(u64);

/// Names the storage structure behind an [`EventQueue`]. The binary heap
/// is the only one; the type remains so configurations that record it
/// keep their shape.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum QueueBackend {
    /// `BinaryHeap` of `(time, seq)`-ordered entries, `O(log n)` per op.
    #[default]
    BinaryHeap,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Ordering is on (time, seq) only; payload is irrelevant.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A priority queue of timestamped events.
///
/// `E` is the simulation's event payload type, typically an enum defined by
/// the crate that owns the simulation loop.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Seqs of scheduled events that have neither fired nor been
    /// cancelled. Membership here is what makes a handle live: cancelling
    /// a handle whose event already fired is rejected outright instead of
    /// parking its id in `cancelled` forever.
    pending: FxHashSet<u64>,
    cancelled: FxHashSet<u64>,
    next_seq: u64,
    scheduled: u64,
    fired: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: FxHashSet::default(),
            cancelled: FxHashSet::default(),
            next_seq: 0,
            scheduled: 0,
            fired: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Returns a handle that can be passed to [`cancel`](Self::cancel).
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.pending.insert(seq);
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            payload,
        }));
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (or been cancelled).
    /// Cancelling an already-fired, already-cancelled, or unknown handle
    /// is a no-op returning `false` — the id is not retained, so stale
    /// handles cannot grow the cancellation set.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if !self.pending.remove(&handle.0) {
            return false;
        }
        self.cancelled.insert(handle.0);
        true
    }

    /// Pops the earliest pending event, skipping cancelled entries.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.pending.remove(&entry.seq);
            self.fired += 1;
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// Time of the earliest pending (non-cancelled) event, if any.
    ///
    /// This compacts cancelled entries off the front as a side effect,
    /// so it is `O(k log n)` in the number of cancelled heads.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.seq) {
                self.heap.pop();
            } else {
                return Some(entry.time);
            }
        }
        None
    }

    /// Whether any non-cancelled event is pending.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Number of entries currently held (including not-yet-compacted
    /// cancelled entries). Useful for capacity monitoring in tests.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Number of scheduled events that have neither fired nor been
    /// cancelled — the queue's live backlog. Auditors use this to decide
    /// whether a simulation still has work pending (liveness) without
    /// counting cancelled tombstones awaiting compaction.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of cancelled entries still awaiting compaction off the
    /// front. Bounded by [`raw_len`](Self::raw_len); monotone growth here
    /// would indicate a cancellation-bookkeeping leak.
    pub fn cancelled_backlog(&self) -> usize {
        self.cancelled.len()
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events actually delivered by [`pop`](Self::pop).
    pub fn total_fired(&self) -> u64 {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn default_backend_is_the_heap_reference() {
        assert_eq!(QueueBackend::default(), QueueBackend::BinaryHeap);
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.raw_len(), 0);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), 1);
        let h2 = q.schedule(t(2), 2);
        q.schedule(t(3), 3);
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2), "double cancel reports false");
        assert_eq!(q.pop(), Some((t(1), 1)));
        assert_eq!(q.pop(), Some((t(3), 3)));
        assert_eq!(q.pop(), None);
        // h1 already fired; cancelling it is a no-op reporting false.
        assert!(!q.cancel(h1));
    }

    /// Regression: cancelling handles whose events already fired must not
    /// accumulate ids in the cancellation set (the id can never be
    /// reclaimed by `pop`, so each one would leak forever).
    #[test]
    fn cancel_after_fire_does_not_leak() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..1000).map(|i| q.schedule(t(i), i)).collect();
        while q.pop().is_some() {}
        for h in &handles {
            assert!(!q.cancel(*h), "fired handle reported as cancelled");
        }
        assert_eq!(q.cancelled_backlog(), 0, "fired handles leaked");
        assert_eq!(q.raw_len(), 0);
        // Live cancellations still count — and are reclaimed on pop.
        let h = q.schedule(t(5000), 1);
        q.schedule(t(5001), 2);
        assert!(q.cancel(h));
        assert_eq!(q.cancelled_backlog(), 1);
        assert_eq!(q.pop(), Some((t(5001), 2)));
        assert_eq!(q.cancelled_backlog(), 0);
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventHandle(42)));
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t(2), 2)));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.cancel(h);
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.total_fired(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10u32);
        assert_eq!(q.pop(), Some((t(10), 10)));
        // Scheduling into the "past" is allowed; queue is a pure priority
        // queue and the driver enforces monotonic delivery semantics.
        q.schedule(t(5), 5);
        q.schedule(t(15), 15);
        assert_eq!(q.pop(), Some((t(5), 5)));
        let now = t(15) + SimDuration::from_millis(0);
        assert_eq!(q.pop(), Some((now, 15)));
    }

    #[test]
    fn large_volume_stays_sorted() {
        // Pseudo-random insertion order, verify global sortedness.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(SimTime::from_nanos(x % 1_000_000), x);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((time, _)) = q.pop() {
            assert!(time >= last);
            last = time;
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}
