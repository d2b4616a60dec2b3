//! The discrete-event queue.
//!
//! Events are ordered by simulated time; ties are broken by a monotonically
//! increasing insertion sequence number so that simulation runs are fully
//! deterministic regardless of how the events were generated.  This (time,
//! sequence) pop order is part of the simulator's determinism contract:
//! every queue implementation must reproduce it exactly, byte for byte.
//!
//! [`EventQueue`] is a calendar queue (Brown '88): pending events live in
//! fixed-width time buckets.  Near-future buckets sit in a power-of-two
//! ring of unsorted append-only vectors indexed by bucket number, so both
//! opening a bucket and draining one are O(1) array operations; the rare
//! event beyond the wheel horizon (scripted faults, mostly) is deferred
//! to a `BTreeMap` keyed by bucket index.  The bucket currently being
//! drained is heapified on adoption (O(b)) and consumed as a small
//! min-heap, so events scheduled *into* the draining bucket cost O(log b)
//! for a bucket a handful of events deep.  Unlike a binary heap over the
//! whole pending set, the working set stays a few cache lines wide no
//! matter how many events are pending.  Drained bucket vectors are pooled
//! and reused, so a steady-state simulation performs no allocator calls
//! in the scheduler at all.
//!
//! The test build keeps the original `BinaryHeap` implementation as
//! `ReferenceEventQueue`, an executable specification; a property test
//! drives both in lockstep over random schedules (including ties and
//! interleaved pops) and demands byte-identical pop sequences.

use crate::faults::FaultKind;
use crate::packet::EthFrame;
use gmf_model::Time;
use gmf_net::NodeId;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An Ethernet frame of a packet is released by the application at its
    /// source host (start of the frame's availability in the host's output
    /// queue).
    SourceFrameRelease {
        /// The source host.
        host: NodeId,
        /// The host's output port towards the frame's next hop (which
        /// output queue to use).
        port: usize,
        /// The frame being released.
        frame: EthFrame,
    },
    /// A host NIC finished serialising a frame onto the link.
    HostTxComplete {
        /// The transmitting host.
        host: NodeId,
        /// The output port whose NIC finished.
        port: usize,
    },
    /// A frame has fully arrived at a node (after transmission and
    /// propagation).
    FrameArrival {
        /// The receiving node.
        node: NodeId,
        /// The receiver's input port the frame arrives on (precomputed at
        /// the transmitter; unused when the receiver is an endpoint).
        in_port: usize,
        /// The frame.
        frame: EthFrame,
    },
    /// The CPU of a switch finished executing one task and dispatches the
    /// next one.
    CpuDispatch {
        /// The switch whose CPU is dispatching.
        switch: NodeId,
    },
    /// A switch NIC finished serialising a frame onto the link.
    SwitchTxComplete {
        /// The transmitting switch.
        switch: NodeId,
        /// The interface port whose NIC finished.
        port: usize,
    },
    /// A scripted infrastructure fault fires (see [`crate::faults`]).
    Fault {
        /// What the fault does.
        kind: FaultKind,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the event fires.
    pub time: Time,
    /// Deterministic tie-breaker (insertion order).
    pub sequence: u64,
    /// What the event does.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An event was scheduled before the queue's current time (or before time
/// zero).  Surfaced by the simulator as `SimError::EventInPast`: silently
/// enqueuing such an event would make it pop out of order and corrupt the
/// causal history of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventInPast {
    /// The requested (invalid) firing time.
    pub at: Time,
    /// The queue's current time (last popped event, or zero).
    pub now: Time,
}

impl fmt::Display for EventInPast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event scheduled in the past: at {} with simulation time already at {}",
            self.at, self.now
        )
    }
}

impl std::error::Error for EventInPast {}

/// Width of one calendar bucket as a power of two of picosecond ticks:
/// 2^26 ps ≈ 67.1 µs.  Chosen so that typical switched-Ethernet event
/// spacing (transmission times of microseconds, CPU costs of hundreds of
/// nanoseconds) lands a handful of events per bucket — the per-bucket heap
/// stays a few levels deep; sparse horizons are unaffected because empty
/// buckets are never visited.
const BUCKET_SHIFT: u32 = 26;

/// Number of wheel slots (a power of two).  The wheel covers
/// `WHEEL_SLOTS << BUCKET_SHIFT` ps ≈ 69 ms of simulated time ahead of the
/// drain point; events beyond that land in the `far` map until the wheel
/// catches up.
const WHEEL_SLOTS: usize = 1024;

/// Slot mask for the wheel (`WHEEL_SLOTS` is a power of two).
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// Maximum number of drained bucket vectors kept for reuse.
const BUCKET_POOL_CAP: usize = 64;

/// Shape counters of one [`EventQueue`] over its lifetime, exported so
/// long-horizon benchmarks can gate on the queue staying shallow (the
/// whole point of lazy generation + calendar buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueShape {
    /// Maximum number of events pending at any point.
    pub max_pending: usize,
    /// Largest single bucket ever drained.
    pub max_bucket: usize,
    /// Number of bucket activations (an empty wheel slot or far-map key
    /// receiving its first event).
    pub buckets_opened: u64,
    /// Number of bucket vectors recycled from the pool instead of
    /// allocated.
    pub pool_reuses: u64,
}

/// The event queue: a time-ordered priority queue with deterministic
/// (time, insertion-sequence) pop order, implemented as a calendar queue.
#[derive(Debug)]
pub struct EventQueue {
    /// The bucket currently being drained: a min-first heap on (time,
    /// sequence).  A heap rather than a sorted vector because events keep
    /// being scheduled *into* the bucket while it drains (CPU costs and
    /// transmission times are much shorter than a bucket width), and a
    /// heap push is O(log b) with no memmove of the tail.
    current: BinaryHeap<Event>,
    /// Bucket index of `current`.
    current_bucket: u64,
    /// Near-future buckets: slot `b & WHEEL_MASK` holds the events of
    /// bucket `b` for `b` in `[wheel_base, wheel_base + WHEEL_SLOTS)`.
    /// Direct indexing makes opening and draining a bucket O(1), unlike
    /// the `far` map's tree traversal.
    wheel: Vec<Vec<Event>>,
    /// Number of events resident in `wheel`.
    wheel_pending: usize,
    /// Lowest bucket the wheel may hold.  Monotonically non-decreasing:
    /// it advances to each adopted bucket, so a slot is always emptied
    /// before its index is reused by a bucket one revolution later.
    wheel_base: u64,
    /// Out-of-window buckets, keyed by bucket index: events scheduled
    /// beyond the wheel horizon (scripted faults, mostly) and buckets
    /// demoted from `current` (see `schedule`).
    far: BTreeMap<u64, Vec<Event>>,
    /// Recycled bucket storage.
    pool: Vec<Vec<Event>>,
    /// Time of the last popped event: the queue's current time.
    now: Time,
    /// Number of events pending.
    pending: usize,
    /// Next insertion sequence number.
    next_sequence: u64,
    /// Total events scheduled since creation.
    scheduled: u64,
    /// Lifetime shape counters.
    shape: QueueShape,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            current: BinaryHeap::new(),
            current_bucket: 0,
            wheel: vec![Vec::new(); WHEEL_SLOTS],
            wheel_pending: 0,
            wheel_base: 0,
            far: BTreeMap::new(),
            pool: Vec::new(),
            now: Time::ZERO,
            pending: 0,
            next_sequence: 0,
            scheduled: 0,
            shape: QueueShape::default(),
        }
    }
}

/// Calendar bucket index of a firing time.
fn bucket_of(time: Time) -> u64 {
    // Non-negative by the schedule-time check.
    time.as_ps().unsigned_abs() >> BUCKET_SHIFT
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `kind` to fire at `time`.
    ///
    /// Fails with [`EventInPast`] if `time` is negative or earlier than
    /// the last popped event — the queue's pop order could no longer be
    /// honoured.  (Scheduling *at* the current time is fine: the event
    /// fires after already-pending events of the same instant, per the
    /// insertion-order tie-break.)
    pub fn schedule(&mut self, time: Time, kind: EventKind) -> Result<(), EventInPast> {
        if time < self.now || time.is_negative() {
            return Err(EventInPast {
                at: time,
                now: self.now,
            });
        }
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.scheduled += 1;
        self.pending += 1;
        self.shape.max_pending = self.shape.max_pending.max(self.pending);
        let event = Event {
            time,
            sequence,
            kind,
        };
        let bucket = bucket_of(time);
        if !self.current.is_empty() && bucket == self.current_bucket {
            self.current.push(event);
            self.shape.max_bucket = self.shape.max_bucket.max(self.current.len());
        } else if self.pending == 1 {
            // Queue was fully drained: restart the current bucket here.
            self.current_bucket = bucket;
            self.wheel_base = self.wheel_base.max(bucket);
            self.current.push(event);
        } else if bucket < self.current_bucket {
            // Earlier than the bucket being drained: possible only while
            // `current` is still undrained, when `peek_time` adopted a
            // future bucket before the caller scheduled an intervening
            // event (lazy arrival materialisation does this).  Demote the
            // adopted bucket to the far map and restart here.  Rare, so
            // the tree insert is fine.
            let demoted = std::mem::take(&mut self.current);
            self.far
                .entry(self.current_bucket)
                .or_default()
                .extend(demoted.into_vec());
            self.current_bucket = bucket;
            self.current.push(event);
        } else if bucket >= self.wheel_base && bucket - self.wheel_base < WHEEL_SLOTS as u64 {
            let slot = &mut self.wheel[(bucket & WHEEL_MASK) as usize];
            if slot.is_empty() {
                self.shape.buckets_opened += 1;
            }
            slot.push(event);
            self.wheel_pending += 1;
        } else {
            // Beyond the wheel horizon (scripted faults, mostly).
            match self.far.entry(bucket) {
                std::collections::btree_map::Entry::Occupied(mut o) => o.get_mut().push(event),
                std::collections::btree_map::Entry::Vacant(v) => {
                    let mut storage = if let Some(mut pooled) = self.pool.pop() {
                        self.shape.pool_reuses += 1;
                        pooled.clear();
                        pooled
                    } else {
                        Vec::new()
                    };
                    storage.push(event);
                    self.shape.buckets_opened += 1;
                    v.insert(storage);
                }
            }
        }
        Ok(())
    }

    /// Make `current` hold the earliest pending events.  Returns `false`
    /// if nothing is pending.
    fn settle(&mut self) -> bool {
        if !self.current.is_empty() {
            return true;
        }
        if self.pending == 0 {
            return false;
        }
        // Current bucket exhausted: advance to the earliest pending
        // bucket.  That is the first non-empty wheel slot at or after
        // `wheel_base`, unless a far bucket fires before it (demoted
        // buckets sit below `wheel_base`; out-of-window buckets may have
        // entered the window since they were deferred).
        let far_first = self.far.keys().next().copied();
        let (bucket, events) = if self.wheel_pending == 0 {
            // tidy-allow: unwrap invariant: pending events must be somewhere
            let bucket = far_first.expect("pending events must be somewhere");
            // tidy-allow: unwrap invariant: key taken from the same map
            let events = self.far.remove(&bucket).expect("bucket exists");
            (bucket, events)
        } else {
            let mut b = self.wheel_base;
            loop {
                if far_first.is_some_and(|f| f <= b) {
                    // tidy-allow: unwrap invariant: checked above
                    let f = far_first.expect("checked above");
                    // tidy-allow: unwrap invariant: key taken from the same map
                    let mut events = self.far.remove(&f).expect("bucket exists");
                    if f == b {
                        let slot = &mut self.wheel[(b & WHEEL_MASK) as usize];
                        self.wheel_pending -= slot.len();
                        events.append(slot);
                    }
                    break (f, events);
                }
                let idx = (b & WHEEL_MASK) as usize;
                if !self.wheel[idx].is_empty() {
                    let replacement = if let Some(mut pooled) = self.pool.pop() {
                        self.shape.pool_reuses += 1;
                        pooled.clear();
                        pooled
                    } else {
                        Vec::new()
                    };
                    let events = std::mem::replace(&mut self.wheel[idx], replacement);
                    self.wheel_pending -= events.len();
                    break (b, events);
                }
                b += 1;
                debug_assert!(
                    b - self.wheel_base <= WHEEL_SLOTS as u64,
                    "wheel_pending > 0 but no slot within one revolution"
                );
            }
        };
        let drained = std::mem::replace(&mut self.current, BinaryHeap::from(events));
        self.shape.max_bucket = self.shape.max_bucket.max(self.current.len());
        if self.pool.len() < BUCKET_POOL_CAP {
            self.pool.push(drained.into_vec());
        }
        self.current_bucket = bucket;
        self.wheel_base = self.wheel_base.max(bucket);
        true
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        if !self.settle() {
            return None;
        }
        // tidy-allow: unwrap invariant: settle guarantees a pending event
        let event = self.current.pop().expect("settle guarantees a pending");
        self.pending -= 1;
        self.now = event.time;
        Some(event)
    }

    /// Firing time of the earliest pending event, without popping it.
    pub fn peek_time(&mut self) -> Option<Time> {
        if !self.settle() {
            return None;
        }
        self.current.peek().map(|e| e.time)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events scheduled since creation.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Lifetime shape counters (see [`QueueShape`]).
    pub fn shape(&self) -> QueueShape {
        self.shape
    }
}

/// The original `BinaryHeap` event queue, kept as the executable
/// specification of the (time, insertion-sequence) pop order.  The
/// lockstep property test drives it against [`EventQueue`] on random
/// schedules; production code uses the calendar queue, so the reference
/// is compiled for tests only.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct ReferenceEventQueue {
    heap: BinaryHeap<Event>,
    next_sequence: u64,
}

#[cfg(test)]
impl ReferenceEventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue::default()
    }

    /// Schedule `kind` to fire at `time`.
    pub fn schedule(&mut self, time: Time, kind: EventKind) {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(Event {
            time,
            sequence,
            kind,
        });
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch(node: usize) -> EventKind {
        EventKind::CpuDispatch {
            switch: NodeId(node),
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(3.0), dispatch(3)).unwrap();
        q.schedule(Time::from_millis(1.0), dispatch(1)).unwrap();
        q.schedule(Time::from_millis(2.0), dispatch(2)).unwrap();
        let order: Vec<Time> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(
            order,
            vec![
                Time::from_millis(1.0),
                Time::from_millis(2.0),
                Time::from_millis(3.0)
            ]
        );
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for node in 0..5 {
            q.schedule(Time::from_millis(1.0), dispatch(node)).unwrap();
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::CpuDispatch { switch } => switch.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bookkeeping() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::ZERO, dispatch(0)).unwrap();
        q.schedule(Time::ZERO, dispatch(1)).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_scheduled(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.total_scheduled(), 2);
        assert!(!q.is_empty());
        assert!(q.shape().max_pending >= 2);
    }

    /// The past-time bugfix: a negative or behind-the-clock schedule is a
    /// hard error in every build profile.  (The old code only
    /// `debug_assert!`ed, so release builds silently enqueued the event
    /// and popped it out of order.)  This test runs under `cargo test
    /// --release` and the `release-checked` CI profile unchanged.
    #[test]
    fn scheduling_in_the_past_is_a_hard_error_in_all_profiles() {
        let mut q = EventQueue::new();
        // Negative time: rejected even on a fresh queue.
        let err = q
            .schedule(Time::from_millis(-1.0), dispatch(0))
            .unwrap_err();
        assert_eq!(err.at, Time::from_millis(-1.0));
        assert_eq!(err.now, Time::ZERO);
        assert!(err.to_string().contains("past"));
        // Behind the clock: rejected once a later event has popped.
        q.schedule(Time::from_millis(5.0), dispatch(1)).unwrap();
        q.pop().unwrap();
        let err = q.schedule(Time::from_millis(4.0), dispatch(2)).unwrap_err();
        assert_eq!(err.now, Time::from_millis(5.0));
        // At the clock exactly: fine (fires after pending same-instant
        // events by insertion order).
        q.schedule(Time::from_millis(5.0), dispatch(3)).unwrap();
        assert_eq!(q.pop().unwrap().time, Time::from_millis(5.0));
    }

    #[test]
    fn schedule_at_now_during_drain_pops_in_insertion_order() {
        // Mimics `wake_cpu`: while draining events at time t, new events
        // are scheduled at exactly t and must fire after the pending ones.
        let mut q = EventQueue::new();
        let t = Time::from_micros(1.0);
        q.schedule(t, dispatch(0)).unwrap();
        q.schedule(t, dispatch(1)).unwrap();
        assert_eq!(q.pop().unwrap().sequence, 0);
        q.schedule(t, dispatch(2)).unwrap();
        assert_eq!(q.pop().unwrap().sequence, 1);
        assert_eq!(q.pop().unwrap().sequence, 2);
        assert!(q.pop().is_none());
        // After a full drain the queue accepts events at or after `now`.
        q.schedule(t, dispatch(3)).unwrap();
        assert_eq!(q.pop().unwrap().sequence, 3);
    }

    #[test]
    fn buckets_advance_across_sparse_times() {
        let mut q = EventQueue::new();
        // Events many buckets apart, scheduled out of order.
        let times: Vec<Time> = [9.0, 0.5, 300.0, 17.0, 0.6]
            .iter()
            .map(|&ms| Time::from_millis(ms))
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, dispatch(i)).unwrap();
        }
        let mut sorted = times.clone();
        sorted.sort();
        let popped: Vec<Time> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(popped, sorted);
        assert!(q.shape().buckets_opened >= 3);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from_millis(2.0), dispatch(0)).unwrap();
        q.schedule(Time::from_millis(1.0), dispatch(1)).unwrap();
        assert_eq!(q.peek_time(), Some(Time::from_millis(1.0)));
        assert_eq!(q.pop().unwrap().time, Time::from_millis(1.0));
        assert_eq!(q.peek_time(), Some(Time::from_millis(2.0)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn drained_buckets_are_pooled_and_reused() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            // Two buckets ahead of the current one each round.
            let base = Time::from_millis(round as f64 * 10.0);
            q.schedule(base + Time::from_millis(4.0), dispatch(0))
                .unwrap();
            q.schedule(base + Time::from_millis(8.0), dispatch(1))
                .unwrap();
            q.pop().unwrap();
            q.pop().unwrap();
        }
        assert!(q.shape().pool_reuses > 0, "{:?}", q.shape());
        assert!(q.shape().max_pending <= 2);
    }

    use proptest::prelude::*;

    /// Schedule deltas that exercise every regime of the calendar queue:
    /// exact ties, near-ties inside one bucket, spans of many wheel slots,
    /// and jumps past the wheel window into the far map.
    fn delta_ns() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 0u64..100, 0u64..5_000_000, 0u64..300_000_000,]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The calendar queue must be observationally identical to the
        /// reference binary heap: byte-identical `(time, sequence, kind)`
        /// on every pop, under interleaved schedule/pop including ties.
        #[test]
        fn calendar_queue_matches_reference_heap_in_lockstep(
            ops in prop::collection::vec((0u8..4, delta_ns(), 0usize..6), 1..300)
        ) {
            let mut calendar = EventQueue::new();
            let mut reference = ReferenceEventQueue::new();
            // Both queues see the same schedule times, always `>= now`
            // (the last popped time), so `EventQueue::schedule` cannot
            // reject what the reference accepts.
            let mut now = Time::ZERO;
            for &(op, delta, node) in &ops {
                if op == 0 {
                    let got = calendar.pop();
                    let want = reference.pop();
                    prop_assert_eq!(&got, &want);
                    if let Some(event) = got {
                        now = event.time;
                    }
                } else {
                    let at = now + Time::from_nanos(delta as f64);
                    calendar
                        .schedule(at, dispatch(node))
                        .expect("schedule time is never in the past");
                    reference.schedule(at, dispatch(node));
                }
            }
            prop_assert_eq!(calendar.len(), reference.len());
            loop {
                let got = calendar.pop();
                let want = reference.pop();
                prop_assert_eq!(&got, &want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
