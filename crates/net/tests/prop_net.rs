//! Property-based tests for the discrete-event kernel and network model.

use proptest::prelude::*;
use seve_net::event::{EventQueue, EventQueueKind};
use seve_net::link::Link;
use seve_net::stats::Summary;
use seve_net::time::{SimDuration, SimTime};

#[derive(Clone, Debug)]
enum Op {
    /// Schedule `count` members of `ev` at `now + delta`: one merging call,
    /// or `count` plain calls.
    Schedule {
        delta: u64,
        ev: u8,
        count: u32,
        merge: bool,
    },
    Pop,
}

proptest! {
    #[test]
    fn event_queue_pops_sorted_with_fifo_ties(times in prop::collection::vec(0u64..1000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some(r) = q.pop_run() {
            popped.push((r.at, r.event));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
    }

    /// The timer wheel and the binary-heap oracle must produce the exact
    /// same pop sequence under arbitrary interleavings of scheduling and
    /// popping, including same-instant ties, deltas spanning several wheel
    /// levels, and jumps past the overflow horizon.
    #[test]
    fn wheel_matches_heap_under_interleaving(
        ops in prop::collection::vec(
            prop_oneof![
                // Schedule `delta` past the current clock; deltas are
                // log-distributed so every wheel level (and the overflow
                // list) gets exercised.
                (0u32..37).prop_flat_map(|bits| (0u64..(1u64 << bits) + 1).prop_map(Some)),
                Just(None), // pop
            ],
            1..200,
        )
    ) {
        let mut wheel = EventQueue::with_kind(EventQueueKind::Wheel);
        let mut heap = EventQueue::with_kind(EventQueueKind::Heap);
        let mut id = 0u32;
        for op in ops {
            match op {
                Some(delta) => {
                    let at = SimTime(wheel.now().as_micros() + delta);
                    wheel.schedule(at, id);
                    heap.schedule(at, id);
                    id += 1;
                }
                None => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    prop_assert_eq!(wheel.pop_run(), heap.pop_run());
                    prop_assert_eq!(wheel.now(), heap.now());
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain whatever is left: the tails must agree too.
        loop {
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            let (w, h) = (wheel.pop_run(), heap.pop_run());
            prop_assert_eq!(&w, &h);
            if w.is_none() {
                break;
            }
        }
    }

    /// Merging schedules (runs) under random interleavings with plain
    /// schedules and pops, including zero-delay schedules at `now` that
    /// land in the wheel's open slot: wheel and heap pop identical
    /// `(time, seq, event)` streams, and expanding every run into its
    /// members reproduces a reference queue fed the same events one
    /// schedule call at a time.
    #[test]
    fn runs_match_one_at_a_time_scheduling(
        ops in prop::collection::vec(
            (
                0u8..5,
                prop_oneof![
                    Just(0u64),
                    0u64..4,
                    (0u32..25).prop_flat_map(|bits| 0u64..(1u64 << bits) + 1),
                ],
                0u8..3,
                1u32..4,
                any::<bool>(),
            )
                .prop_map(|(kind, delta, ev, count, merge)| match kind {
                    // Three in five ops schedule, so the queue fills up.
                    0..=2 => Op::Schedule { delta, ev, count, merge },
                    _ => Op::Pop,
                }),
            1..250,
        )
    ) {
        let mut wheel = EventQueue::with_kind(EventQueueKind::Wheel);
        let mut heap = EventQueue::with_kind(EventQueueKind::Heap);
        let mut reference = EventQueue::with_kind(EventQueueKind::Heap);
        let drain = ops.len();
        for op in ops.into_iter().chain(std::iter::repeat_n(Op::Pop, drain * 3)) {
            match op {
                Op::Schedule { delta, ev, count, merge } => {
                    let at = SimTime(wheel.now().as_micros() + delta);
                    if merge {
                        wheel.schedule_run(at, ev, count);
                        heap.schedule_run(at, ev, count);
                    } else {
                        for _ in 0..count {
                            wheel.schedule(at, ev);
                            heap.schedule(at, ev);
                        }
                    }
                    for _ in 0..count {
                        reference.schedule(at, ev);
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    prop_assert_eq!(wheel.peek_time(), reference.peek_time());
                    let (w, h) = (wheel.pop_run(), heap.pop_run());
                    prop_assert_eq!(&w, &h);
                    let Some(run) = w else {
                        prop_assert!(reference.pop_run().is_none());
                        continue;
                    };
                    for i in 0..u64::from(run.count) {
                        let one = reference.pop_run().expect("reference holds every member");
                        prop_assert_eq!(one.count, 1);
                        prop_assert_eq!((one.at, one.seq, one.event), (run.at, run.seq + i, run.event));
                    }
                }
            }
            prop_assert_eq!(wheel.now(), reference.now());
            prop_assert_eq!(heap.now(), reference.now());
            prop_assert_eq!(wheel.len(), reference.len());
            prop_assert_eq!(heap.len(), reference.len());
        }
        prop_assert!(wheel.is_empty() && heap.is_empty() && reference.is_empty());
    }

    #[test]
    fn link_deliveries_are_fifo_and_account_bytes(
        sends in prop::collection::vec((0u64..10_000, 1u32..5_000), 1..60),
        bps in prop::option::of(1_000u64..1_000_000),
        latency_ms in 0u64..500
    ) {
        let mut link = Link::new(SimDuration::from_ms(latency_ms), bps);
        let mut sorted = sends.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut last_delivery = SimTime::ZERO;
        let mut total = 0u64;
        for &(t, bytes) in &sorted {
            let d = link.send(SimTime(t), bytes);
            // FIFO: deliveries never reorder.
            prop_assert!(d >= last_delivery);
            // Causality: delivery is not before send + latency.
            prop_assert!(d >= SimTime(t) + SimDuration::from_ms(latency_ms));
            // With a bandwidth cap, serialization takes real time.
            if let Some(b) = bps {
                let min_transmit = u64::from(bytes) * 8 * 1_000_000 / b;
                prop_assert!(d.as_micros() >= t + min_transmit + latency_ms * 1000);
            }
            last_delivery = d;
            total += u64::from(bytes);
        }
        prop_assert_eq!(link.bytes_sent(), total);
        prop_assert_eq!(link.msgs_sent(), sorted.len() as u64);
    }

    #[test]
    fn summary_statistics_match_reference(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Summary::new();
        for &v in &samples {
            s.record(v);
        }
        let mean_ref = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((s.mean() - mean_ref).abs() <= 1e-6 * (1.0 + mean_ref.abs()));
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(s.min(), sorted[0]);
        prop_assert_eq!(s.max(), *sorted.last().unwrap());
        // Quantiles are actual samples, and the median splits the data.
        let med = s.median();
        prop_assert!(samples.contains(&med));
        let below = samples.iter().filter(|&&v| v <= med).count();
        prop_assert!(below * 2 >= samples.len());
    }

    #[test]
    fn summary_merge_equals_concatenation(
        a in prop::collection::vec(-100f64..100.0, 0..50),
        b in prop::collection::vec(-100f64..100.0, 0..50)
    ) {
        let mut sa = Summary::new();
        for &v in &a {
            sa.record(v);
        }
        let mut sb = Summary::new();
        for &v in &b {
            sb.record(v);
        }
        sa.merge(&sb);
        let mut sc = Summary::new();
        for &v in a.iter().chain(b.iter()) {
            sc.record(v);
        }
        prop_assert_eq!(sa.count(), sc.count());
        prop_assert_eq!(sa.mean(), sc.mean());
        prop_assert_eq!(sa.p95(), sc.p95());
    }
}
