//! A small deterministic discrete-event simulation engine.
//!
//! Events carry a timestamp in microseconds of virtual time and a payload.
//! Ties are broken by sequence number, so a simulation that pushes events
//! in a deterministic order replays identically — a property the
//! integration tests assert.
//!
//! # The queue
//!
//! [`EventQueue`] is a monotone radix queue over the IEEE-754 bit pattern of
//! each event's time. Times are finite and never earlier than the current
//! virtual time `now` (the scheduling contract), so they are non-negative,
//! and for non-negative floats the bit pattern orders exactly like the
//! value. The radix base is the key of `now`: a pending event whose key
//! differs from it lands in bucket `b`, the highest bit where the two keys
//! differ. The lowest occupied bucket therefore holds the earliest events;
//! popping past the current time drains that one bucket, rebases on its
//! minimum key and files the rest into lower buckets. Every event moves
//! down at most 64 times, however many events are pending, and the work of
//! a pop touches one bucket instead of a heap path across the whole queue.
//!
//! Events at exactly `now` form the *tie group* and pop in `seq` order: a
//! drained group is sorted once by `seq`, and an event scheduled later at
//! exactly `now` with a `seq` below the group's last one waits in a small
//! heap that the pop merges with the sorted group.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A timestamped event with payload `T`.
#[derive(Debug, Clone)]
pub struct Event<T> {
    /// Virtual time of the event in microseconds.
    pub time_us: f64,
    /// Sequence number used for deterministic tie-breaking.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

/// A drained bucket keeps its storage for reuse up to this size and
/// releases anything larger, so a queue retains at most 64 × 64 KiB of
/// bucket storage beyond its pending events. Keeping every bucket's
/// storage raised D1's peak RSS from 131 to 191 MiB; releasing all of it
/// makes a stream of distinct times reallocate on nearly every pop.
const KEEP_BUCKET_BYTES: usize = 64 << 10;

/// Radix key of an event time: its bit pattern, which orders like the value
/// for the finite non-negative times the queue accepts. Adding `0.0` folds
/// `-0.0` into `+0.0`, which would otherwise key above every positive time.
fn key(time_us: f64) -> u64 {
    (time_us + 0.0).to_bits()
}

/// An event scheduled at exactly `now` whose `seq` sorts below the tie
/// group's last one. Ordered so that the max-heap yields the lowest `seq`.
#[derive(Debug)]
struct LateTie<T>(Event<T>);

impl<T> PartialEq for LateTie<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl<T> Eq for LateTie<T> {}
impl<T> PartialOrd for LateTie<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for LateTie<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.seq.cmp(&self.0.seq)
    }
}

/// A priority queue of events ordered by (time, sequence).
///
/// See the [module docs](self) for the radix layout. Invariants:
///
/// * `base == key(now_us)`: the radix base moves only when a pop advances
///   virtual time. [`Self::peek_time_us`] never rebases, because an event
///   may still be scheduled anywhere at or after `now`.
/// * Bucket `b` holds exactly the pending events whose key's highest bit
///   differing from `base` is `b`; `bucket_min[b]` is their least key and
///   bit `b` of `occupied` is set iff the bucket is non-empty.
/// * `ties` holds events at exactly `now` in ascending `seq` order; `late`
///   holds the ones scheduled at `now` below the back of `ties`.
#[derive(Debug)]
pub struct EventQueue<T> {
    base: u64,
    buckets: [Vec<Event<T>>; 64],
    bucket_min: [u64; 64],
    occupied: u64,
    ties: VecDeque<Event<T>>,
    late: BinaryHeap<LateTie<T>>,
    next_seq: u64,
    now_us: f64,
    scheduled_total: u64,
    popped_total: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue at virtual time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue at virtual time zero whose tie group has room
    /// for `capacity` events at one time — typically the simulation's
    /// roots, e.g. one start event per rank at time zero, which then
    /// schedule without reallocating.
    ///
    /// The tie group keeps its storage: it holds the events at the current
    /// time. A radix bucket's storage grows on demand, and a drained
    /// bucket releases it unless it is at most 64 KiB, so besides the
    /// pending events themselves the queue retains at most 4 MiB of bucket
    /// storage plus room for its largest tie group (or `capacity`, if
    /// larger).
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            base: key(0.0),
            buckets: std::array::from_fn(|_| Vec::new()),
            bucket_min: [u64::MAX; 64],
            occupied: 0,
            ties: VecDeque::with_capacity(capacity),
            late: BinaryHeap::new(),
            next_seq: 0,
            now_us: 0.0,
            scheduled_total: 0,
            popped_total: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event, or 0.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Schedule `payload` at absolute virtual time `time_us`.
    ///
    /// # Contract
    /// `time_us` must be a finite float no earlier than [`Self::now_us`].
    /// Non-finite times (NaN, `+inf`, `-inf` — the latter is the non-finite
    /// *negative-time* case) are rejected uniformly rather than being left
    /// to scramble the queue's ordering or hang a drain loop, and past times
    /// are a causality violation: virtual time only moves forward.
    ///
    /// # Panics
    /// Panics if `time_us` is not finite, or is earlier than the current
    /// virtual time (causality violation).
    pub fn schedule_at(&mut self, time_us: f64, payload: T) {
        let seq = self.take_seq();
        self.schedule_with_seq(time_us, seq, payload);
    }

    /// Schedule `payload` at `time_us` with a caller-chosen sequence number.
    ///
    /// This is the seam the sharded engine uses: a cross-shard message must
    /// keep the sequence number minted on its *source* shard so that the
    /// merged `(time, seq)` order is independent of which worker drained
    /// which mailbox. Callers own the seq space — mixing explicit seqs with
    /// [`Self::schedule_at`]'s internal counter is only deterministic if the
    /// two ranges cannot collide (the sharded engine sets the top bit on
    /// derived seqs for exactly this reason). An explicit seq may sort
    /// below one already popped at the same time; it still pops before
    /// every pending event it precedes in `(time, seq)` order.
    ///
    /// # Panics
    /// Same contract as [`Self::schedule_at`]: `time_us` must be finite and
    /// not in the past.
    pub fn schedule_with_seq(&mut self, time_us: f64, seq: u64, payload: T) {
        assert!(
            time_us.is_finite(),
            "event time must be finite, got {time_us}"
        );
        assert!(
            time_us >= self.now_us,
            "causality violation: scheduling at {time_us} before now {}",
            self.now_us
        );
        self.scheduled_total += 1;
        let ev = Event {
            time_us,
            seq,
            payload,
        };
        let k = key(time_us);
        if k != self.base {
            self.file(k, ev);
        } else if self.ties.back().is_none_or(|last| last.seq < seq) {
            self.ties.push_back(ev);
        } else {
            self.late.push(LateTie(ev));
        }
        if obs::enabled() {
            obs::add("des.events.scheduled", 1);
            obs::gauge_max("des.queue.peak_depth", self.len() as f64);
        }
    }

    /// File an event with key `k > base` into its radix bucket.
    fn file(&mut self, k: u64, ev: Event<T>) {
        let b = (63 - (k ^ self.base).leading_zeros()) as usize;
        self.buckets[b].push(ev);
        self.bucket_min[b] = self.bucket_min[b].min(k);
        self.occupied |= 1 << b;
    }

    /// Claim the next internal sequence number without scheduling anything.
    ///
    /// Lets an orchestrator mint seqs centrally (deterministic in program
    /// order) and hand them to [`Self::schedule_with_seq`] on whichever
    /// shard queue owns the destination entity.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `payload` at `delay_us` after the current virtual time.
    pub fn schedule_after(&mut self, delay_us: f64, payload: T) {
        let now = self.now_us;
        self.schedule_at(now + delay_us.max(0.0), payload);
    }

    /// Whether the next tie-group event comes from `late` rather than
    /// `ties`, or `None` when the tie group is empty.
    fn next_tie_is_late(&self) -> Option<bool> {
        match (self.ties.front(), self.late.peek()) {
            (Some(a), Some(b)) => Some(b.0.seq < a.seq),
            (Some(_), None) => Some(false),
            (None, Some(_)) => Some(true),
            (None, None) => None,
        }
    }

    /// Timestamp of the earliest pending event without popping it, or
    /// `None` when the queue is empty. Does not advance virtual time —
    /// the conservative-lookahead loop uses this to compute each window's
    /// horizon before deciding whether the head event is safe to process.
    pub fn peek_time_us(&self) -> Option<f64> {
        match self.next_tie_is_late() {
            Some(true) => self.late.peek().map(|e| e.0.time_us),
            Some(false) => self.ties.front().map(|e| e.time_us),
            // A bucket never holds key 0 (that is `-0.0`/`+0.0`, which is
            // at or below every base), so the least key is the time itself.
            None if self.occupied != 0 => Some(f64::from_bits(
                self.bucket_min[self.occupied.trailing_zeros() as usize],
            )),
            None => None,
        }
    }

    /// Pop the earliest event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let late = match self.next_tie_is_late() {
            Some(late) => late,
            None if self.occupied != 0 => {
                self.advance();
                false
            }
            None => return None,
        };
        let ev = if late {
            self.late.pop().map(|e| e.0)
        } else {
            self.ties.pop_front()
        }
        .expect("the tie group holds the next event");
        self.now_us = ev.time_us;
        self.popped_total += 1;
        if obs::enabled() {
            obs::add("des.events.popped", 1);
        }
        Some(ev)
    }

    /// With the tie group empty, rebase on the least pending key: drain the
    /// lowest occupied bucket, move the events at that key into the tie
    /// group in `seq` order and file the rest into lower buckets. The
    /// drained bucket's storage is kept only up to [`KEEP_BUCKET_BYTES`].
    fn advance(&mut self) {
        let b = self.occupied.trailing_zeros() as usize;
        let min = self.bucket_min[b];
        let mut drained = std::mem::take(&mut self.buckets[b]);
        self.bucket_min[b] = u64::MAX;
        self.occupied &= !(1 << b);
        self.base = min;
        for ev in drained.drain(..) {
            let k = key(ev.time_us);
            if k == min {
                self.ties.push_back(ev);
            } else {
                self.file(k, ev);
            }
        }
        if drained.capacity() * std::mem::size_of::<Event<T>>() <= KEEP_BUCKET_BYTES {
            self.buckets[b] = drained;
        }
        self.ties.make_contiguous().sort_unstable_by_key(|e| e.seq);
    }

    /// Total events ever scheduled (monotonic; not reset by pops).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total events ever popped. When the queue is drained,
    /// `popped_total() == scheduled_total()`.
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        (self.scheduled_total - self.popped_total) as usize
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.scheduled_total == self.popped_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, 1);
        q.schedule_at(5.0, 2);
        q.schedule_at(5.0, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn time_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, ());
        q.schedule_at(20.0, ());
        assert_eq!(q.now_us(), 0.0);
        q.pop();
        assert_eq!(q.now_us(), 10.0);
        q.pop();
        assert_eq!(q.now_us(), 20.0);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, "first");
        q.pop();
        q.schedule_after(5.0, "second");
        let e = q.pop().unwrap();
        assert_eq!(e.time_us, 15.0);
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, ());
        q.pop();
        q.schedule_at(5.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_nan_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_positive_infinity_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_negative_infinity_panics() {
        // -inf is both non-finite and negative; the finiteness check fires
        // first so the panic message is consistent for all non-finite input.
        let mut q = EventQueue::new();
        q.schedule_at(f64::NEG_INFINITY, ());
    }

    #[test]
    fn peek_does_not_advance_time_or_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time_us(), None);
        q.schedule_at(7.0, "x");
        q.schedule_at(3.0, "y");
        assert_eq!(q.peek_time_us(), Some(3.0));
        assert_eq!(q.now_us(), 0.0);
        assert_eq!(q.len(), 2);
        // Peeking repeatedly is idempotent.
        assert_eq!(q.peek_time_us(), Some(3.0));
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "y");
        assert_eq!(q.peek_time_us(), Some(7.0));
    }

    #[test]
    fn explicit_seqs_order_ties_and_skip_the_counter() {
        let mut q = EventQueue::new();
        // Explicit seqs control tie-breaking regardless of insertion order.
        q.schedule_with_seq(5.0, 2, "second");
        q.schedule_with_seq(5.0, 1, "first");
        // The internal counter is untouched by explicit scheduling.
        assert_eq!(q.take_seq(), 0);
        assert_eq!(q.pop().unwrap().payload, "first");
        assert_eq!(q.pop().unwrap().payload, "second");
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn totals_track_schedule_and_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.scheduled_total(), 0);
        assert_eq!(q.popped_total(), 0);
        q.schedule_at(1.0, ());
        q.schedule_at(2.0, ());
        q.schedule_at(3.0, ());
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.popped_total(), 0);
        q.pop();
        assert_eq!(q.popped_total(), 1);
        // Pending = scheduled - popped while events remain.
        assert_eq!(
            q.len() as u64,
            q.scheduled_total() - q.popped_total(),
            "len must equal scheduled - popped"
        );
        while q.pop().is_some() {}
        // Drain invariant: every scheduled event was eventually popped.
        assert_eq!(q.popped_total(), q.scheduled_total());
        assert!(q.is_empty());
        // Totals are monotonic: draining does not reset them.
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn scheduling_reports_queue_metrics() {
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        obs::with_recorder(rec.clone(), || {
            let mut q = EventQueue::new();
            q.schedule_at(1.0, ());
            q.schedule_at(2.0, ());
            q.schedule_at(3.0, ());
            q.pop();
            q.schedule_at(4.0, ());
            while q.pop().is_some() {}
        });
        assert_eq!(rec.counter("des.events.scheduled"), Some(4));
        assert_eq!(rec.counter("des.events.popped"), Some(4));
        assert_eq!(rec.gauge("des.queue.peak_depth"), Some(3.0));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        q.schedule_at(2.0, "b");
        q.schedule_at(1.0, "a");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b"]);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 2);
    }

    #[test]
    fn negative_delay_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, ());
        q.pop();
        q.schedule_after(-3.0, ());
        assert_eq!(q.pop().unwrap().time_us, 10.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Offsets from `now` for the tie-heavy streams: dyadic steps, so
    /// events scheduled at different times keep landing on equal times.
    const DELTAS: [f64; 7] = [0.0, 0.0, 0.125, 0.5, 0.5, 1.0, 2.0];

    /// Reference queue: the pending `(time, seq, id)` set, popped by a
    /// linear scan for the least `(time, seq)`. Times compare as values, so
    /// `-0.0` ties with `0.0`.
    fn reference_pop(pending: &mut Vec<(f64, u64, usize)>) -> Option<(f64, u64, usize)> {
        let i = (0..pending.len()).min_by(|&a, &b| {
            let (ta, sa, _) = pending[a];
            let (tb, sb, _) = pending[b];
            ta.partial_cmp(&tb).unwrap().then(sa.cmp(&sb))
        })?;
        Some(pending.swap_remove(i))
    }

    /// `(time bits, seq, id)` of a popped event, so `-0.0` and `0.0` differ.
    fn bits(e: Event<usize>) -> (u64, u64, usize) {
        (e.time_us.to_bits(), e.seq, e.payload)
    }

    proptest! {
        // Every pop and peek agrees with the sorted reference, for streams
        // that mix the internal seq counter with explicit seqs (drawn from
        // a small range, so they often sort below a seq already popped at
        // the same time), schedule at exactly `now` between pops, and
        // schedule at `-0.0` while `now` is zero.
        #[test]
        fn pops_follow_the_time_seq_order_of_a_sorted_reference(
            ops in proptest::collection::vec((0u8..10, 0usize..8, 0.0f64..4.0, 0u64..64), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut pending: Vec<(f64, u64, usize)> = Vec::new();
            for (id, &(kind, d, x, r)) in ops.iter().enumerate() {
                let now = q.now_us();
                let t = now + DELTAS.get(d).copied().unwrap_or(x);
                match kind {
                    0..=2 => {
                        let seq = q.take_seq();
                        q.schedule_with_seq(t, seq, id);
                        pending.push((t, seq, id));
                    }
                    3 | 4 => {
                        // Disjoint from the counter, unique per op.
                        let seq = 1 << 62 | r << 16 | id as u64;
                        q.schedule_with_seq(t, seq, id);
                        pending.push((t, seq, id));
                    }
                    5 => {
                        let t = if now == 0.0 { -0.0 } else { now };
                        let seq = q.take_seq();
                        q.schedule_with_seq(t, seq, id);
                        pending.push((t, seq, id));
                    }
                    6 => {
                        let want = pending
                            .iter()
                            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))
                            .map(|e| e.0.to_bits());
                        prop_assert_eq!(q.peek_time_us().map(f64::to_bits), want);
                    }
                    _ => {
                        let want = reference_pop(&mut pending).map(|(t, s, i)| (t.to_bits(), s, i));
                        prop_assert_eq!(q.pop().map(bits), want);
                    }
                }
                prop_assert_eq!(q.len(), pending.len());
            }
            while let Some(want) = reference_pop(&mut pending) {
                prop_assert_eq!(q.pop().map(bits), Some((want.0.to_bits(), want.1, want.2)));
            }
            prop_assert!(q.pop().is_none());
            prop_assert_eq!(q.peek_time_us(), None);
        }

        #[test]
        fn pops_are_globally_time_ordered(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule_at(*t, i);
            }
            let mut last = -1.0;
            while let Some(e) = q.pop() {
                prop_assert!(e.time_us >= last);
                last = e.time_us;
            }
        }

        #[test]
        fn len_tracks_push_pop(times in proptest::collection::vec(0.0f64..100.0, 1..50)) {
            let mut q = EventQueue::new();
            for t in &times {
                q.schedule_at(*t, ());
            }
            prop_assert_eq!(q.len(), times.len());
            let mut n = times.len();
            while q.pop().is_some() {
                n -= 1;
                prop_assert_eq!(q.len(), n);
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.popped_total(), q.scheduled_total());
        }
    }
}
