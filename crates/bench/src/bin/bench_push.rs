//! `bench_push` — machine-readable perf trajectory for the push/closure
//! hot paths.
//!
//! Measures, on the Table I Manhattan world:
//!
//! * median wall-clock of one push-cycle candidate selection, indexed
//!   (grid-inverted) vs linear (pre-index reference), per fleet size;
//! * median wall-clock of one Algorithm 6 closure over a realistic queue,
//!   indexed (inverted write index) vs linear (pre-index reference);
//! * wall-clock of a fixed Manhattan People sweep (full simulated runs of
//!   the First and Information Bound servers).
//!
//! Writes `BENCH_push.json` (or the `--out` path) so later PRs have a
//! trajectory to regress against. `--smoke` runs a seconds-scale subset for
//! CI. Invoked by `scripts/bench.sh`.

use seve_bench::push_fixture;
use seve_core::closure::{closure_for, closure_for_linear, ActionQueue, ClientSet};
use seve_core::config::ServerMode;
use seve_net::event::EventQueueKind;
use seve_sim::experiment::{paper_protocol, paper_sim, paper_world, run_seve, Scale};
use seve_sim::SimConfig;
use seve_world::ids::ClientId;
use std::fmt::Write as _;
use std::time::Instant;

/// Median of the nanosecond samples collected by `measure`.
fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Time `f` for `iters` iterations, returning per-call nanos.
fn measure(iters: usize, mut f: impl FnMut()) -> Vec<u64> {
    // Warmup.
    for _ in 0..2 {
        f();
    }
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect()
}

struct SelectRow {
    clients: usize,
    window: usize,
    indexed_ns: u64,
    linear_ns: u64,
}

struct ClosureRow {
    queue_len: usize,
    indexed_ns: u64,
    linear_ns: u64,
    visited: usize,
    scanned: usize,
}

struct SweepRow {
    mode: &'static str,
    clients: usize,
    wall_ms: f64,
    server_compute_us: u64,
}

struct ScaleRow {
    clients: usize,
    wall_ms: f64,
    submitted: u64,
    dropped: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_push.json".to_string());

    let (sizes, sel_iters, closure_lens, closure_iters): (&[usize], usize, &[usize], usize) =
        if smoke {
            (&[16], 10, &[64], 10)
        } else {
            (&[32, 64, 128, 256], 60, &[64, 128, 256, 512], 200)
        };

    // --- Push-cycle candidate selection: indexed vs linear. -------------
    let mut select_rows = Vec::new();
    for &clients in sizes {
        let window = clients * 4;
        let fx = push_fixture::build(clients, window, ServerMode::FirstBound);
        let mut cands = Vec::new();
        let indexed_ns = median_ns(measure(sel_iters, || {
            fx.routing
                .select_candidates_indexed(&fx.st, fx.now, fx.horizon, &mut cands);
            std::hint::black_box(&cands);
        }));
        let linear_ns = median_ns(measure(sel_iters, || {
            fx.routing
                .select_candidates_linear(&fx.st, fx.now, fx.horizon, &mut cands);
            std::hint::black_box(&cands);
        }));
        eprintln!(
            "select clients={clients} window={window}: indexed {indexed_ns} ns, \
             linear {linear_ns} ns ({:.2}x)",
            linear_ns as f64 / indexed_ns.max(1) as f64
        );
        select_rows.push(SelectRow {
            clients,
            window,
            indexed_ns,
            linear_ns,
        });
    }

    // --- Algorithm 6 closure: indexed vs linear over a realistic queue. --
    // A fixed 64-avatar fleet with a growing un-pushed window: the queue
    // length is the variable under test, the contention level is not.
    // (Scaling the fleet *with* the window — the old fixture — thins each
    // avatar's neighborhood as the world fills, so longer queues measured
    // *less* conflict work and the table came out non-monotone.)
    let closure_clients = if smoke { 16 } else { 64 };
    let closure_warmup = 10;
    let mut closure_rows = Vec::new();
    for &len in closure_lens {
        let fx = push_fixture::build(closure_clients, len, ServerMode::FirstBound);
        let rebuild = || {
            let mut q = ActionQueue::new();
            for e in fx.st.queue.iter() {
                q.push((*e.action).clone(), e.submit_time);
            }
            q
        };
        let last = fx.horizon;
        // The queue and its index are long-lived on a real server, so each
        // variant runs against one steady-state queue; the per-call `sent`
        // marks are reset between samples, outside the timed region.
        let sample = |indexed: bool| {
            let mut q = rebuild();
            let mut samples = Vec::with_capacity(closure_iters);
            let mut result = None;
            for i in 0..closure_iters + closure_warmup {
                for e in q.iter_mut_rev() {
                    e.sent = ClientSet::new();
                }
                std::hint::black_box(&mut q);
                let t = Instant::now();
                let r = if indexed {
                    closure_for(&mut q, ClientId(0), std::hint::black_box(&[last]))
                } else {
                    closure_for_linear(&mut q, ClientId(0), std::hint::black_box(&[last]))
                };
                let dt = t.elapsed().as_nanos() as u64;
                if i >= closure_warmup {
                    samples.push(dt);
                }
                result = Some(std::hint::black_box(r));
            }
            (median_ns(samples), result.unwrap())
        };
        let (indexed_ns, ri) = sample(true);
        let (linear_ns, rl) = sample(false);
        // The differential the proptests run on synthetic queues, asserted
        // here on the real workload.
        assert_eq!(ri.send, rl.send, "indexed/linear closure divergence");
        assert_eq!(ri.blind_set, rl.blind_set, "blind-set divergence");
        assert_eq!(ri.scanned, rl.scanned, "linear-equivalent count drifted");
        eprintln!(
            "closure len={len}: indexed {indexed_ns} ns ({} visited), \
             linear {linear_ns} ns ({} scanned), {:.2}x",
            ri.visited,
            rl.scanned,
            linear_ns as f64 / indexed_ns.max(1) as f64
        );
        closure_rows.push(ClosureRow {
            queue_len: len,
            indexed_ns,
            linear_ns,
            visited: ri.visited,
            scanned: rl.scanned,
        });
    }

    // --- Thousand-client sim sweep over the timer wheel. -----------------
    // The O(1) event queue is what makes these affordable: the run is a
    // full Information Bound session (submissions, pushes, drops, oracle),
    // wall-clocked end to end, with the oracle cross-checking every
    // evaluation.
    let scale_sizes: &[usize] = if smoke { &[1024] } else { &[1024, 2048] };
    let mut scale_rows = Vec::new();
    for &clients in scale_sizes {
        let world = paper_world(clients, Scale::Quick);
        let sim = SimConfig {
            moves_per_client: 10,
            ..paper_sim(Scale::Quick)
        };
        let t = Instant::now();
        let r = run_seve(
            &world,
            ServerMode::InfoBound,
            paper_protocol(ServerMode::InfoBound),
            &sim,
        );
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.violations, 0, "Theorem 1 at {clients} clients");
        eprintln!(
            "sim-scale clients={clients}: {wall_ms:.0} ms wall, {} submitted, {} dropped",
            r.submitted, r.dropped
        );
        scale_rows.push(ScaleRow {
            clients,
            wall_ms,
            submitted: r.submitted,
            dropped: r.dropped,
        });
    }

    // --- Timer wheel vs binary heap: identical event sequence. -----------
    let event_queue_equiv = {
        let world = paper_world(16, Scale::Quick);
        let run = |kind: EventQueueKind| {
            let sim = SimConfig {
                moves_per_client: 10,
                event_queue: kind,
                ..paper_sim(Scale::Quick)
            };
            run_seve(
                &world,
                ServerMode::InfoBound,
                paper_protocol(ServerMode::InfoBound),
                &sim,
            )
        };
        let wheel = run(EventQueueKind::Wheel);
        let heap = run(EventQueueKind::Heap);
        assert_eq!(
            wheel.stable_digests, heap.stable_digests,
            "wheel/heap replica divergence"
        );
        assert_eq!(wheel.committed_digest, heap.committed_digest);
        assert_eq!(wheel.total_bytes, heap.total_bytes);
        assert_eq!(wheel.duration, heap.duration);
        eprintln!("event-queue equivalence: wheel == heap over a full run");
        true
    };

    // --- Fixed Manhattan People sweep (full simulated runs). -------------
    let sweep_clients = if smoke { 8 } else { 64 };
    let mut sweep_rows = Vec::new();
    for mode in [ServerMode::FirstBound, ServerMode::InfoBound] {
        let world = paper_world(sweep_clients, Scale::Quick);
        let sim = paper_sim(Scale::Quick);
        let t = Instant::now();
        let r = run_seve(&world, mode, paper_protocol(mode), &sim);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "sweep {} clients={sweep_clients}: {wall_ms:.1} ms wall",
            mode.name()
        );
        sweep_rows.push(SweepRow {
            mode: mode.name(),
            clients: sweep_clients,
            wall_ms,
            server_compute_us: r.server_compute_us,
        });
    }

    // --- Emit JSON (no serializer dependency: the shape is flat). --------
    let host_parallelism = std::thread::available_parallelism().map_or(1, |t| t.get());
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(
        j,
        "  \"meta\": {{\"bench\": \"push\", \"smoke\": {smoke}, \"world\": \"manhattan_people\", \"selection_iters\": {sel_iters}, \"host_parallelism\": {host_parallelism}, \"event_queue_equiv\": {event_queue_equiv}}},"
    );
    j.push_str("  \"push_cycle_select\": [\n");
    for (i, r) in select_rows.iter().enumerate() {
        let sep = if i + 1 < select_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"clients\": {}, \"window\": {}, \"indexed_median_ns\": {}, \"linear_median_ns\": {}, \"speedup\": {:.3}, \"indexed_entries_visited\": {}, \"linear_entries_visited\": {}}}{sep}",
            r.clients,
            r.window,
            r.indexed_ns,
            r.linear_ns,
            r.linear_ns as f64 / r.indexed_ns.max(1) as f64,
            r.window,
            r.clients * r.window,
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"closure\": [\n");
    for (i, r) in closure_rows.iter().enumerate() {
        let sep = if i + 1 < closure_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"queue_len\": {}, \"median_ns\": {}, \"entries_scanned\": {}}}{sep}",
            r.queue_len, r.indexed_ns, r.scanned,
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"closure_indexed\": [\n");
    for (i, r) in closure_rows.iter().enumerate() {
        let sep = if i + 1 < closure_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"queue_len\": {}, \"indexed_median_ns\": {}, \"linear_median_ns\": {}, \"speedup\": {:.3}, \"entries_visited\": {}, \"entries_scanned_linear\": {}}}{sep}",
            r.queue_len,
            r.indexed_ns,
            r.linear_ns,
            r.linear_ns as f64 / r.indexed_ns.max(1) as f64,
            r.visited,
            r.scanned,
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"sim_scale\": [\n");
    for (i, r) in scale_rows.iter().enumerate() {
        let sep = if i + 1 < scale_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"clients\": {}, \"wall_ms\": {:.1}, \"submitted\": {}, \"dropped\": {}}}{sep}",
            r.clients, r.wall_ms, r.submitted, r.dropped,
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"manhattan_sweep\": [\n");
    for (i, r) in sweep_rows.iter().enumerate() {
        let sep = if i + 1 < sweep_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"mode\": \"{}\", \"clients\": {}, \"wall_ms\": {:.1}, \"server_compute_us\": {}}}{sep}",
            r.mode, r.clients, r.wall_ms, r.server_compute_us,
        );
    }
    j.push_str("  ]\n}\n");
    std::fs::write(&out_path, &j).expect("write bench json");
    println!("wrote {out_path}");
}
