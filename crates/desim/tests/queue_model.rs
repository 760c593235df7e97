//! Model check: the binary-heap `EventQueue` against a naive sorted-`Vec`
//! reference model.
//!
//! Every test drives a seeded schedule/cancel/pop/peek script into both
//! and asserts, after *every* step, that they agree on what the step
//! returned (popped event, cancel verdict, peeked time) and on the
//! bookkeeping: `pending_len`, `raw_len` and `cancelled_backlog`. The
//! model keeps its entries sorted by `(time, seq)` in a plain `Vec` and
//! compacts cancelled entries lazily off the front exactly when the
//! queue's contract says it does (on pop and peek), so the bookkeeping
//! comparison is exact. `SimRng` drives the scripts, so any failure
//! reproduces from the case number in the assertion message.

use desim::{EventHandle, EventQueue, SimRng, SimTime};

/// One scripted operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule at the given time (µs).
    Schedule(u64),
    /// Pop the front event.
    Pop,
    /// Cancel the n-th handle issued so far (wrapping), which may
    /// target live, fired, or already-cancelled events alike.
    CancelNth(usize),
    /// Peek the front time (compacts cancelled heads).
    Peek,
}

/// The reference: entries sorted by `(time, seq)`, cancelled seqs in a
/// list, every operation a linear scan.
#[derive(Default)]
struct Model {
    /// `(time, seq, payload)` of every entry not yet popped or compacted.
    entries: Vec<(SimTime, u64, u64)>,
    /// Seqs cancelled while their entry is still in `entries`.
    cancelled: Vec<u64>,
    next_seq: u64,
    fired: u64,
}

impl Model {
    fn schedule(&mut self, at: SimTime, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((at, seq, payload));
        self.entries.sort_unstable();
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let live = self.entries.iter().any(|e| e.1 == seq) && !self.cancelled.contains(&seq);
        if live {
            self.cancelled.push(seq);
        }
        live
    }

    /// Drops cancelled entries off the front.
    fn compact(&mut self) {
        while let Some(&(_, seq, _)) = self.entries.first() {
            let Some(i) = self.cancelled.iter().position(|&c| c == seq) else {
                break;
            };
            self.cancelled.swap_remove(i);
            self.entries.remove(0);
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.compact();
        if self.entries.is_empty() {
            return None;
        }
        let (time, _, payload) = self.entries.remove(0);
        self.fired += 1;
        Some((time, payload))
    }

    fn peek(&mut self) -> Option<SimTime> {
        self.compact();
        self.entries.first().map(|e| e.0)
    }

    fn pending_len(&self) -> usize {
        self.entries.len() - self.cancelled.len()
    }
}

/// Replays `script` on a fresh queue and a fresh model, checking
/// agreement after every step, then drains both.
fn check(case: &str, script: &[Op]) {
    let mut q = EventQueue::new();
    let mut m = Model::default();
    let mut handles: Vec<(EventHandle, u64)> = Vec::new();
    let mut payload = 0u64;
    let ops = script
        .iter()
        .copied()
        .map(Some)
        .chain(std::iter::repeat(None));
    for (step, op) in ops.enumerate() {
        let drain = op.is_none();
        match op.unwrap_or(Op::Pop) {
            Op::Schedule(us) => {
                let at = SimTime::from_micros(us);
                handles.push((q.schedule(at, payload), m.schedule(at, payload)));
                payload += 1;
            }
            Op::Pop => assert_eq!(q.pop(), m.pop(), "{case} step {step}: pop"),
            Op::CancelNth(i) => {
                if !handles.is_empty() {
                    let (h, seq) = handles[i % handles.len()];
                    assert_eq!(q.cancel(h), m.cancel(seq), "{case} step {step}: cancel");
                }
            }
            Op::Peek => assert_eq!(q.peek_time(), m.peek(), "{case} step {step}: peek"),
        }
        assert_eq!(
            q.pending_len(),
            m.pending_len(),
            "{case} step {step}: pending_len"
        );
        assert_eq!(q.raw_len(), m.entries.len(), "{case} step {step}: raw_len");
        assert_eq!(
            q.cancelled_backlog(),
            m.cancelled.len(),
            "{case} step {step}: cancelled_backlog"
        );
        if drain && m.entries.is_empty() {
            break;
        }
    }
    assert_eq!(q.total_scheduled(), m.next_seq, "{case}: total_scheduled");
    assert_eq!(q.total_fired(), m.fired, "{case}: total_fired");
    assert_eq!(
        (q.raw_len(), q.pending_len(), q.cancelled_backlog()),
        (0, 0, 0)
    );
}

/// 256 seeded random scripts over three time spans, from dense ties to
/// sparse timestamps.
#[test]
fn random_scripts_pop_bit_identically() {
    for case in 0..256u64 {
        let mut rng = SimRng::new(0x57EE1 ^ case);
        let span = [100u64, 10_000, 10_000_000][case as usize % 3];
        let script: Vec<Op> = (0..400)
            .map(|_| match rng.range_u64(0, 8) {
                // Biased toward schedules so queues grow deep.
                0..=3 => Op::Schedule(rng.range_u64(0, span)),
                4..=5 => Op::Pop,
                6 => Op::CancelNth(rng.range_usize(0, 256)),
                _ => Op::Peek,
            })
            .collect();
        check(&format!("case {case} (span {span} µs)"), &script);
    }
}

/// Heavy same-timestamp contention: FIFO order must hold exactly when
/// thousands of events share a handful of instants, with cancellations
/// mixed in.
#[test]
fn same_timestamp_fifo_matches() {
    for case in 0..64u64 {
        let mut rng = SimRng::new(0xF1F0 ^ case);
        let script: Vec<Op> = (0..2000)
            .map(|_| match rng.range_u64(0, 8) {
                // Only 4 distinct instants → massive FIFO ties.
                0..=4 => Op::Schedule(rng.range_u64(0, 4) * 50),
                5 => Op::CancelNth(rng.range_usize(0, 4096)),
                _ => Op::Pop,
            })
            .collect();
        check(&format!("case {case}"), &script);
    }
}

/// Cancel-after-fire and double cancel are rejected, and neither leaves
/// a tombstone behind.
#[test]
fn cancel_after_fire_rejected() {
    let mut q = EventQueue::new();
    let handles: Vec<_> = (0..500)
        .map(|i| q.schedule(SimTime::from_micros(i % 7), i))
        .collect();
    // Fire half the events.
    for _ in 0..250 {
        q.pop().unwrap();
    }
    let accepted = handles.iter().filter(|&&h| q.cancel(h)).count();
    assert_eq!(accepted, 250, "only live handles are cancellable");
    assert_eq!(q.pending_len(), 0);
    assert_eq!(q.cancelled_backlog(), 250);
    assert!(
        handles.iter().all(|&h| !q.cancel(h)),
        "a second cancel is a no-op"
    );
    assert_eq!(
        q.cancelled_backlog(),
        250,
        "double cancel parked a tombstone"
    );
    assert_eq!(q.pop(), None, "all remaining were cancelled");
    assert_eq!(q.cancelled_backlog(), 0, "tombstones leaked");
    assert_eq!(q.raw_len(), 0);
    // The same script through the model checker, step by step.
    let mut script: Vec<Op> = (0..500).map(|i| Op::Schedule(i % 7)).collect();
    script.extend([Op::Pop; 250]);
    script.extend((0..1000).map(Op::CancelNth));
    check("cancel after fire", &script);
}

/// Scheduling into the past (the driver clamps delivery, the queue does
/// not): a newly scheduled earlier event surfaces before previously
/// scheduled later ones.
#[test]
fn past_scheduling_matches() {
    for case in 0..64u64 {
        let mut rng = SimRng::new(0x9A57 ^ case);
        let script: Vec<Op> = (0..600)
            .map(|i| match i % 6 {
                0 => Op::Schedule(rng.range_u64(500_000, 1_000_000)),
                1 => Op::Schedule(rng.range_u64(0, 1_000)),
                2 | 3 => Op::Pop,
                4 => Op::CancelNth(rng.range_usize(0, 512)),
                _ => Op::Peek,
            })
            .collect();
        check(&format!("case {case}"), &script);
    }
}

/// Sparse timestamps spread over years of simulated nanoseconds.
#[test]
fn sparse_wide_range_timestamps_match() {
    for case in 0..32u64 {
        let mut rng = SimRng::new(0x1DE5 ^ case);
        let script: Vec<Op> = (0..300)
            .map(|_| match rng.range_u64(0, 4) {
                0 | 1 => Op::Schedule(rng.range_u64(0, 100_000_000_000)),
                2 => Op::CancelNth(rng.range_usize(0, 512)),
                _ => Op::Pop,
            })
            .collect();
        check(&format!("case {case}"), &script);
    }
}
