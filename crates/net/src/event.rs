//! The discrete-event queue.
//!
//! A simulation is a loop over `(time, event)` pairs processed in
//! non-decreasing time order. Determinism requires a total order: events
//! scheduled for the same instant are delivered in scheduling (FIFO) order,
//! implemented with a monotone sequence number.
//!
//! Two interchangeable backends provide that order:
//!
//! * a **hierarchical timer wheel** (the default) — six levels of 64 slots
//!   at microsecond granularity, so level `l` spans `64^(l+1)` µs and the
//!   wheel covers ~19 hours of virtual time before spilling into an
//!   overflow list. Scheduling is O(1); popping amortizes to O(1) per event
//!   because an entry cascades down at most `LEVELS` times. At
//!   thousand-client scale (hundreds of thousands of pending link/timer
//!   events, heavily clustered in time) this beats the binary heap's
//!   O(log n) comparison churn per operation.
//! * a **binary heap**, the original implementation, retained behind
//!   [`EventQueue::with_kind`] as the drain-order oracle. Equivalence is
//!   pinned by unit tests here, a randomized interleaving proptest in
//!   `tests/prop_net.rs`, and a whole-simulation digest compare in
//!   `bench_push`.
//!
//! ## Runs
//!
//! [`EventQueue::schedule_run`] is a *merging* schedule: when the entry
//! scheduled most recently is still pending at the same time with an equal
//! event, it absorbs the new one as one more member of a run instead of
//! filing a new entry. Sequence numbers still advance by one per member, so
//! a run of `count` members occupies the contiguous seqs
//! `seq..seq + count`, and [`EventQueue::pop_run`] hands the whole run out
//! in one pop. Nothing else can pop between a run's members — no other
//! pending entry sits between them in `(time, seq)` order, and anything
//! scheduled while they are handled gets a larger seq — so a caller that
//! handles the members one after another sees exactly the stream it would
//! have seen had every member been scheduled on its own. The most recent
//! entry waits outside the backend (`last`) until the next schedule or its
//! own pop, which is what lets a merge reach it; the backends themselves
//! only ever see whole entries.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Which event-queue backend to use. Both produce bit-identical pop
/// sequences; `Heap` is the simple oracle, `Wheel` the fast default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EventQueueKind {
    /// Hierarchical timer wheel (default).
    #[default]
    Wheel,
    /// Binary min-heap oracle.
    Heap,
}

struct Entry<E> {
    at: SimTime,
    /// Seq of the run's first member; the members hold `seq..seq + count`.
    seq: u64,
    count: u32,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // first-scheduled) entry surfaces first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const LEVELS: usize = 6;
/// Deltas at or beyond `64^LEVELS` µs from the wheel position go to the
/// overflow list (~19.1 hours — far past any simulated run, so overflow is
/// a correctness valve, not a hot path).
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

struct WheelLevel<E> {
    slots: Vec<Vec<Entry<E>>>,
    /// Exact minimum `at` within each slot (`u64::MAX` when empty).
    /// Maintained on insert; rebuilt for free when a slot cascades (the
    /// slot is drained and survivors re-filed through `file`). A slot of
    /// level `l ≥ 1` can straddle *two* `64^l`-aligned blocks of the
    /// active window — the tail of the block containing `cur` and the
    /// head of the next epoch's — so an arithmetic block-start bound
    /// cannot guarantee cascade progress; the exact minimum can.
    min: Vec<u64>,
    /// Bit `s` set iff `slots[s]` is non-empty.
    occupied: u64,
}

impl<E> WheelLevel<E> {
    fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            min: vec![u64::MAX; SLOTS],
            occupied: 0,
        }
    }
}

/// The hierarchical wheel. Invariant: `cur` never exceeds the time of any
/// pending entry, so every scheduling delta `at - cur` is non-negative and
/// every pending level-`l` entry lies within `[cur, cur + 64^(l+1))`.
struct Wheel<E> {
    levels: Vec<WheelLevel<E>>,
    /// Wheel position: lower bound on every pending entry's time.
    cur: u64,
    /// Entries scheduled further than `HORIZON` ahead of `cur`.
    overflow: Vec<Entry<E>>,
    /// Exact minimum `at` within `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
    /// The level-0 slot currently being drained, pre-sorted by seq. A slot
    /// is opened when its time is the global minimum; same-time schedules
    /// arriving mid-drain append here (their seq is necessarily larger than
    /// anything already draining, so sorted order is preserved).
    draining: VecDeque<Entry<E>>,
    /// Time of the open slot, if any.
    open: Option<u64>,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Self {
            levels: (0..LEVELS).map(|_| WheelLevel::new()).collect(),
            cur: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            draining: VecDeque::new(),
            open: None,
        }
    }

    /// File an entry into the level/slot its delta from `cur` selects.
    fn file(&mut self, e: Entry<E>) {
        let at = e.at.as_micros();
        debug_assert!(at >= self.cur, "entry filed behind the wheel position");
        let delta = at - self.cur;
        if delta >= HORIZON {
            self.overflow_min = self.overflow_min.min(at);
            self.overflow.push(e);
            return;
        }
        let mut level = 0u32;
        while delta >= 1u64 << (SLOT_BITS * (level + 1)) {
            level += 1;
        }
        let slot = ((at >> (SLOT_BITS * level)) & SLOT_MASK) as usize;
        let lv = &mut self.levels[level as usize];
        lv.occupied |= 1 << slot;
        lv.min[slot] = lv.min[slot].min(at);
        lv.slots[slot].push(e);
    }

    /// Schedule, routing same-time-as-open entries straight to the drain
    /// buffer (they must pop after everything already draining — FIFO).
    fn schedule(&mut self, e: Entry<E>) {
        if self.open == Some(e.at.as_micros()) {
            self.draining.push_back(e);
        } else {
            self.file(e);
        }
    }

    /// Exact time of the earliest occupied level-0 slot. Level 0 holds
    /// deltas `< 64`, so each occupied slot `s` is the single time `t` in
    /// `[cur, cur+64)` with `t ≡ s (mod 64)`.
    fn l0_min(&self) -> Option<u64> {
        let mut best = None;
        let mut bits = self.levels[0].occupied;
        let base = self.cur & !SLOT_MASK;
        while bits != 0 {
            let s = bits.trailing_zeros() as u64;
            bits &= bits - 1;
            let mut t = base + s;
            if t < self.cur {
                t += SLOTS as u64;
            }
            best = Some(best.map_or(t, |b: u64| b.min(t)));
        }
        best
    }

    /// The minimum pending time over all higher levels and the overflow
    /// list (exact, from the per-slot minima), with the (level, slot) to
    /// cascade. `level == LEVELS` encodes the overflow list.
    fn min_higher_bound(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for l in 1..LEVELS {
            let mut bits = self.levels[l].occupied;
            while bits != 0 {
                let s = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let b = self.levels[l].min[s];
                if best.is_none_or(|(bb, _, _)| b < bb) {
                    best = Some((b, l, s));
                }
            }
        }
        if !self.overflow.is_empty() && best.is_none_or(|(bb, _, _)| self.overflow_min < bb) {
            best = Some((self.overflow_min, LEVELS, 0));
        }
        best
    }

    /// Pop the earliest entry (time, then seq). Cascades higher-level
    /// slots down whenever their bound could precede (or tie) the earliest
    /// level-0 time — ties must cascade so that an early-scheduled entry
    /// parked at a high level keeps FIFO priority over a same-time
    /// late-scheduled one already in level 0.
    fn pop(&mut self) -> Option<Entry<E>> {
        if let Some(e) = self.draining.pop_front() {
            return Some(e);
        }
        self.open = None;
        loop {
            let l0 = self.l0_min();
            let higher = self.min_higher_bound();
            if let Some(t0) = l0 {
                if higher.is_none_or(|(b, _, _)| b > t0) {
                    // Level 0 wins outright: open slot t0 and drain it.
                    self.cur = t0;
                    let s = (t0 & SLOT_MASK) as usize;
                    let lv = &mut self.levels[0];
                    lv.occupied &= !(1 << s);
                    let slot = &mut lv.slots[s];
                    debug_assert!(slot.iter().all(|e| e.at.as_micros() == t0));
                    slot.sort_unstable_by_key(|e| e.seq);
                    self.draining.extend(slot.drain(..));
                    self.open = Some(t0);
                    return self.draining.pop_front();
                }
            }
            let (b, l, s) = higher?;
            // Advance the wheel to the global minimum `b` (keeping the
            // `cur ≤ every pending time` invariant) and cascade that
            // slot. The entry at `b` re-files with delta 0 — strictly
            // lower level — so every cascade makes progress even though
            // far-epoch slot-mates may re-file into the same slot.
            self.cur = b;
            if l == LEVELS {
                let spill = std::mem::take(&mut self.overflow);
                self.overflow_min = u64::MAX;
                for e in spill {
                    self.file(e);
                }
            } else {
                let lv = &mut self.levels[l];
                lv.occupied &= !(1 << s);
                lv.min[s] = u64::MAX;
                let drained = std::mem::take(&mut lv.slots[s]);
                for e in drained {
                    self.file(e);
                }
            }
        }
    }

    /// Exact earliest pending time without mutating the wheel (the
    /// per-slot minima make this a bitmap walk, no content scans).
    fn peek_time(&self) -> Option<u64> {
        if let Some(e) = self.draining.front() {
            return Some(e.at.as_micros());
        }
        let mut best = self.l0_min();
        if let Some((b, _, _)) = self.min_higher_bound() {
            best = Some(best.map_or(b, |t| t.min(b)));
        }
        best
    }
}

enum Backend<E> {
    Heap(BinaryHeap<Entry<E>>),
    Wheel(Box<Wheel<E>>),
}

impl<E> Backend<E> {
    fn push(&mut self, e: Entry<E>) {
        match self {
            Backend::Heap(h) => h.push(e),
            Backend::Wheel(w) => w.schedule(e),
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        match self {
            Backend::Heap(h) => h.pop(),
            Backend::Wheel(w) => w.pop(),
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        match self {
            Backend::Heap(h) => h.peek().map(|e| e.at),
            Backend::Wheel(w) => w.peek_time().map(SimTime),
        }
    }
}

/// One [`EventQueue::pop_run`]: `count` members of `event` at time `at`,
/// holding the contiguous sequence numbers `seq..seq + count`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Run<E> {
    /// The members' time (the clock after the pop).
    pub at: SimTime,
    /// Sequence number of the first member.
    pub seq: u64,
    /// The event every member carries.
    pub event: E,
    /// Number of members (at least 1).
    pub count: u32,
}

/// A deterministic priority queue of timed events.
pub struct EventQueue<E> {
    backend: Backend<E>,
    /// The most recently scheduled entry while it is still pending: the
    /// only entry a merging schedule may extend. It holds the largest seq
    /// of everything pending, so it pops first only when strictly earlier
    /// than the backend's minimum.
    last: Option<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    /// Pending members (a run counts each of its members).
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero (timer-wheel backend).
    pub fn new() -> Self {
        Self::with_kind(EventQueueKind::Wheel)
    }

    /// An empty queue using the chosen backend.
    pub fn with_kind(kind: EventQueueKind) -> Self {
        let backend = match kind {
            EventQueueKind::Heap => Backend::Heap(BinaryHeap::new()),
            EventQueueKind::Wheel => Backend::Wheel(Box::new(Wheel::new())),
        };
        Self {
            backend,
            last: None,
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> EventQueueKind {
        match self.backend {
            Backend::Heap(_) => EventQueueKind::Heap,
            Backend::Wheel(_) => EventQueueKind::Wheel,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events (each member of a run counts).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue exhausted?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// File a new entry of `count` members at `at` as the most recent one.
    fn push_new(&mut self, at: SimTime, event: E, count: u32) {
        let entry = Entry {
            at,
            seq: self.next_seq,
            count,
            event,
        };
        self.next_seq += u64::from(count);
        self.len += count as usize;
        if let Some(prev) = self.last.replace(entry) {
            self.backend.push(prev);
        }
    }

    /// Scheduling in the past is a logic error (caught in debug builds);
    /// release builds clamp to `now` so the simulation still makes progress.
    fn clamp(&self, at: SimTime) -> SimTime {
        debug_assert!(at >= self.now, "scheduled an event in the past");
        at.max(self.now)
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = self.clamp(at);
        self.push_new(at, event, 1);
    }

    /// Schedule `count` members of `event` at `at`, exactly as `count`
    /// back-to-back [`schedule`](Self::schedule) calls would, merging them
    /// into the most recently scheduled entry when that entry is still
    /// pending at the same time with an equal event.
    pub fn schedule_run(&mut self, at: SimTime, event: E, count: u32)
    where
        E: PartialEq,
    {
        debug_assert!(count > 0, "a run has at least one member");
        let at = self.clamp(at);
        if let Some(last) = &mut self.last {
            if last.at == at && last.event == event {
                last.count += count;
                self.next_seq += u64::from(count);
                self.len += count as usize;
                return;
            }
        }
        self.push_new(at, event, count);
    }

    /// Pop the next run, advancing the clock to its time.
    pub fn pop_run(&mut self) -> Option<Run<E>> {
        let last_first = self.last.as_ref().is_some_and(|l| {
            self.backend
                .peek_time()
                .is_none_or(|backend_min| l.at < backend_min)
        });
        let e = if last_first {
            self.last.take()
        } else {
            self.backend.pop()
        }?;
        self.len -= e.count as usize;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        Some(Run {
            at: e.at,
            seq: e.seq,
            event: e.event,
            count: e.count,
        })
    }

    /// The time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let backend = self.backend.peek_time();
        match &self.last {
            Some(l) => Some(backend.map_or(l.at, |b| b.min(l.at))),
            None => backend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn kinds() -> [EventQueueKind; 2] {
        [EventQueueKind::Wheel, EventQueueKind::Heap]
    }

    #[test]
    fn pops_in_time_order() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_ms(30), "c");
            q.schedule(SimTime::from_ms(10), "a");
            q.schedule(SimTime::from_ms(20), "b");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop_run().map(|r| r.event)).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{kind:?}");
        }
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_ms(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop_run().map(|r| r.event)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_ms(7), ());
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.peek_time(), Some(SimTime::from_ms(7)));
            q.pop_run();
            assert_eq!(q.now(), SimTime::from_ms(7));
            assert!(q.pop_run().is_none());
            assert!(q.is_empty());
        }
    }

    #[test]
    fn interleaved_scheduling_stays_ordered() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_ms(10), 1);
            let Run { at: t, event, .. } = q.pop_run().unwrap();
            assert_eq!(event, 1);
            // Schedule relative to the popped time.
            q.schedule(t + SimDuration::from_ms(5), 2);
            q.schedule(t + SimDuration::from_ms(1), 3);
            assert_eq!(q.pop_run().unwrap().event, 3);
            assert_eq!(q.pop_run().unwrap().event, 2);
            assert_eq!(q.len(), 0);
        }
    }

    /// The FIFO case the wheel must get right across levels: an event
    /// scheduled long in advance (parked at a high level, low seq) and a
    /// same-time event scheduled just before it fires (level 0, high seq)
    /// must still pop in seq order — the high-level slot cascades on a
    /// *tie* with the level-0 minimum, and the opened slot sorts by seq.
    #[test]
    fn cross_level_same_time_fifo() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            let far = SimTime(5_000_000); // parked at a high level from t=0
            q.schedule(far, "early");
            q.schedule(SimTime(4_999_990), "warm");
            assert_eq!(q.pop_run().unwrap().event, "warm"); // cur advances near `far`
            q.schedule(far, "late"); // lands directly in level 0
            assert_eq!(q.pop_run().unwrap().event, "early");
            assert_eq!(q.pop_run().unwrap().event, "late");
            assert!(q.is_empty());
        }
    }

    /// Events beyond the wheel horizon live in the overflow list and still
    /// drain in exact order, including against near events.
    #[test]
    fn overflow_events_order_correctly() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            let day = SimTime(86_400_000_000); // ≫ 64^6 µs horizon
            q.schedule(day, "far");
            q.schedule(day + SimDuration::from_micros(1), "farther");
            q.schedule(day, "far2");
            q.schedule(SimTime::from_ms(1), "near");
            assert_eq!(q.pop_run().unwrap().event, "near");
            assert_eq!(q.pop_run().unwrap().event, "far");
            assert_eq!(q.pop_run().unwrap().event, "far2");
            assert_eq!(q.pop_run().unwrap().event, "farther");
            assert!(q.is_empty());
            assert_eq!(q.now(), day + SimDuration::from_micros(1));
        }
    }

    /// Merging schedules extend only the most recent, still-pending entry
    /// with the same time and an equal event; seqs advance per member.
    #[test]
    fn runs_merge_only_into_the_most_recent_entry() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_ms(4);
            q.schedule_run(t, 'w', 1);
            q.schedule_run(t, 'w', 2); // merges: seqs 0..3
            q.schedule_run(t, 'x', 1); // different event: seq 3
            q.schedule_run(t, 'w', 1); // not the most recent 'w': seq 4
            q.schedule_run(SimTime::from_ms(5), 'w', 1); // other time: seq 5
            q.schedule(SimTime::from_ms(5), 'w'); // plain: seq 6, own entry
            q.schedule_run(SimTime::from_ms(5), 'w', 3); // merges into seq 6
            assert_eq!(q.len(), 10);
            let runs: Vec<(u64, char, u32)> = std::iter::from_fn(|| q.pop_run())
                .map(|r| (r.seq, r.event, r.count))
                .collect();
            assert_eq!(
                runs,
                vec![
                    (0, 'w', 3),
                    (3, 'x', 1),
                    (4, 'w', 1),
                    (5, 'w', 1),
                    (6, 'w', 4)
                ],
                "{kind:?}"
            );
            assert!(q.is_empty());
        }
    }

    /// A popped entry is gone: a later same-time merge starts a new run
    /// with the next seq instead of reviving it.
    #[test]
    fn runs_never_merge_into_a_popped_entry() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_ms(2);
            q.schedule_run(t, 7, 2);
            let r = q.pop_run().unwrap();
            assert_eq!((r.at, r.seq, r.count), (t, 0, 2));
            q.schedule_run(t, 7, 1);
            let r = q.pop_run().unwrap();
            assert_eq!((r.seq, r.count), (2, 1), "{kind:?}");
            assert!(q.pop_run().is_none());
        }
    }

    /// Mid-drain same-time scheduling keeps FIFO: while a slot is open,
    /// new events at the open time must pop after everything already
    /// draining.
    #[test]
    fn schedule_at_open_time_pops_last() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_ms(3);
            q.schedule(t, 0);
            q.schedule(t, 1);
            assert_eq!(q.pop_run().unwrap().event, 0);
            q.schedule(t, 2); // now == t: same-instant append mid-drain
            assert_eq!(q.pop_run().unwrap().event, 1);
            assert_eq!(q.pop_run().unwrap().event, 2);
            assert!(q.is_empty());
        }
    }
}
