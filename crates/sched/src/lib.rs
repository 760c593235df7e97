//! Data-unit scheduling (paper §3.4).
//!
//! Each node keeps a ready queue of data units awaiting their component's
//! CPU. RASC's scheduler assigns the `j`-th data unit of component `c_i`
//! a deadline equal to the expected arrival of the `(j+1)`-th unit
//! (`d = arr + p_ci`): finishing later means units pile up faster than
//! they are served, so such units are *dropped* instead of queued forever.
//! At each dispatch the unit with the smallest non-negative **laxity**
//! `L = (d − now) − t_ci` runs; negative-laxity units are discarded.
//!
//! (The paper prints the laxity as `L(du) = t − (d_du + t_ci)`, with the
//! sign convention inverted relative to its own prose — "if the laxity
//! value is positive … the data unit will meet its deadline". We implement
//! the prose: laxity = slack before the deadline, positive = schedulable.)
//!
//! Three policies behind one [`Scheduler`] trait:
//!
//! * [`LlfScheduler`] — least laxity first, the paper's policy,
//! * [`EdfScheduler`] — earliest deadline first with the same drop rule
//!   (ablation baseline),
//! * [`FifoScheduler`] — arrival order, no deadline drops (ablation
//!   baseline; overload then shows up as queue overflow instead).
//!
//! All queues are bounded: [`Scheduler::enqueue`] rejects when full, which
//! models the paper's "insufficient resources (input queue size)" drops.
//!
//! # Example
//!
//! ```
//! use desim::{SimDuration, SimTime};
//! use sched::{make_scheduler, Job, JobMeta, Policy};
//!
//! let mut llf = make_scheduler::<&str>(Policy::Llf, 16);
//! let job = |name, deadline_ms, exec_ms| Job {
//!     meta: JobMeta {
//!         arrival: SimTime::ZERO,
//!         deadline: SimTime::from_millis(deadline_ms),
//!         exec_time: SimDuration::from_millis(exec_ms),
//!     },
//!     payload: name,
//! };
//! llf.enqueue(job("roomy", 100, 10)).unwrap();
//! llf.enqueue(job("tight", 50, 40)).unwrap();
//! // Laxities at t=0: roomy 90 ms, tight 10 ms → LLF runs "tight" first.
//! let out = llf.dispatch(SimTime::ZERO);
//! assert_eq!(out.chosen.unwrap().payload, "tight");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod job;
mod policies;

pub use job::{Job, JobMeta};
pub use policies::{EdfScheduler, FifoScheduler, LlfScheduler, Policy};

use desim::SimTime;

/// Outcome of one dispatch decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DispatchOutcome<T> {
    /// Units discarded because their laxity went negative (they could no
    /// longer meet their deadlines). Empty for FIFO.
    pub dropped: Vec<Job<T>>,
    /// The unit chosen to run now, if any remain.
    pub chosen: Option<Job<T>>,
}

/// A bounded ready queue with a dispatch policy.
pub trait Scheduler<T> {
    /// Offers a job to the queue. Returns the job back when the queue is
    /// full (the caller counts it as an input-queue drop).
    fn enqueue(&mut self, job: Job<T>) -> Result<(), Job<T>>;

    /// Picks the next unit to run at time `now`, discarding any that can
    /// no longer meet their deadlines (policy-dependent).
    fn dispatch(&mut self, now: SimTime) -> DispatchOutcome<T>;

    /// Dispatches up to `max` units at the *same* instant `now`,
    /// appending the chosen jobs to `out` in dispatch order and the
    /// deadline-expired drops to `dropped` (caller-owned buffers, so a
    /// steady-state loop allocates nothing). Equivalent to calling [`dispatch`]
    /// `max` times (so `max == 1` is exactly one dispatch), but policies
    /// may override it to scan for hopeless units once per burst instead
    /// of once per pick — laxity at a fixed `now` does not change between
    /// picks, so the repeated scan is pure overhead on the batched data
    /// plane's CPU bursts.
    ///
    /// [`dispatch`]: Scheduler::dispatch
    fn dispatch_burst(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<Job<T>>,
        dropped: &mut Vec<Job<T>>,
    ) {
        for _ in 0..max {
            let o = self.dispatch(now);
            dropped.extend(o.dropped);
            match o.chosen {
                Some(j) => out.push(j),
                None => break,
            }
        }
    }

    /// Empties the queue, returning every queued job (in unspecified
    /// order). Used on node crash: the engine must reclaim the units'
    /// storage before discarding the queue, or the unit ledger leaks.
    fn drain(&mut self) -> Vec<Job<T>>;

    /// Number of queued units.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The queue's capacity bound.
    fn capacity(&self) -> usize;
}

/// Constructs the scheduler implementing `policy` with the given queue
/// capacity.
pub fn make_scheduler<T: 'static>(policy: Policy, capacity: usize) -> Box<dyn Scheduler<T>> {
    match policy {
        Policy::Llf => Box::new(LlfScheduler::new(capacity)),
        Policy::Edf => Box::new(EdfScheduler::new(capacity)),
        Policy::Fifo => Box::new(FifoScheduler::new(capacity)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    fn job(id: u32, arrival_ms: u64, deadline_ms: u64, exec_ms: u64) -> Job<u32> {
        Job {
            meta: JobMeta {
                arrival: SimTime::from_millis(arrival_ms),
                deadline: SimTime::from_millis(deadline_ms),
                exec_time: SimDuration::from_millis(exec_ms),
            },
            payload: id,
        }
    }

    #[test]
    fn drain_empties_and_returns_every_job() {
        for policy in [Policy::Llf, Policy::Edf, Policy::Fifo] {
            let mut s = make_scheduler::<u32>(policy, 8);
            for id in 0..5 {
                s.enqueue(job(id, 0, 100, 10)).unwrap();
            }
            let mut drained: Vec<u32> = s.drain().into_iter().map(|j| j.payload).collect();
            drained.sort_unstable();
            assert_eq!(drained, vec![0, 1, 2, 3, 4], "{policy:?}");
            assert!(s.is_empty(), "{policy:?}");
            assert!(s.dispatch(SimTime::ZERO).chosen.is_none(), "{policy:?}");
        }
    }

    #[test]
    fn factory_builds_each_policy() {
        for policy in [Policy::Llf, Policy::Edf, Policy::Fifo] {
            let mut s = make_scheduler::<u32>(policy, 2);
            assert_eq!(s.capacity(), 2);
            s.enqueue(job(1, 0, 100, 10)).unwrap();
            s.enqueue(job(2, 0, 100, 10)).unwrap();
            let rejected = s.enqueue(job(3, 0, 100, 10));
            assert!(rejected.is_err(), "{policy:?} queue should be full");
            let out = s.dispatch(SimTime::ZERO);
            assert!(out.chosen.is_some());
            assert_eq!(s.len(), 1);
        }
    }
}
