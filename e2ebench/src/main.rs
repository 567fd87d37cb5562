//! End-to-end SEVE session benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sim-overload-512|sim-dense-60|tcp-loopback-2> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs whole sessions back to back for `--seconds`, checks
//! every session's outputs, and prints its metrics by name and unit. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured on plain engines. With
//! `--trace 1` traced and plain sessions alternate: the metrics are the
//! per-layer ones from the traced sessions, plus the tracing overhead
//! against the plain ones, and every span is written to
//! `e2ebench/out/trace-<workload>.tsv`.
//!
//! Operations are submitted actions. One fails when it never resolved
//! (neither a stable response nor a drop notice) before the session
//! ended; a drop is a resolved outcome of Algorithm 7 and is reported as
//! `drop_pct`.

mod host;
mod session;
mod sim;
mod tcp;
mod trace;

use session::Session;
use sim::{Fingerprint, SimSpec};
use std::process::ExitCode;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    SimOverload,
    SimDense,
    TcpLoopback,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "sim-overload-512" => Some(Self::SimOverload),
            "sim-dense-60" => Some(Self::SimDense),
            "tcp-loopback-2" => Some(Self::TcpLoopback),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::SimOverload => "sim-overload-512",
            Self::SimDense => "sim-dense-60",
            Self::TcpLoopback => "tcp-loopback-2",
        }
    }

    /// The full-size sim session, or `None` for TCP.
    fn sim_spec(self) -> Option<SimSpec> {
        match self {
            Self::SimOverload => Some(SimSpec::overload(512, 10)),
            Self::SimDense => Some(SimSpec::dense(60, 150)),
            Self::TcpLoopback => None,
        }
    }

    /// A small version of the sim session for the transparency self-test.
    fn small_sim_spec(self) -> Option<SimSpec> {
        match self {
            Self::SimOverload => Some(SimSpec::overload(64, 3)),
            Self::SimDense => Some(SimSpec::dense(20, 20)),
            Self::TcpLoopback => None,
        }
    }
}

/// Moves per client in one TCP session (two seconds of offered load).
const TCP_MOVES: u32 = 2_000;

impl Workload {
    /// Host seconds one plain session takes on the reference host (2-core
    /// x86-64 container). It sizes a run: [`sessions_per_run`] depends on
    /// `--seconds` alone, so a seed's inputs, and every deterministic
    /// result, are the same on any host.
    fn nominal_session_s(self) -> f64 {
        match self {
            Self::SimOverload => 3.5,
            Self::SimDense => 1.2,
            Self::TcpLoopback => 2.05,
        }
    }
}

/// Distinct sub-seeds one run covers. A traced run makes each of them
/// twice (plain, then traced), so it gets half as many.
fn sessions_per_run(w: Workload, seconds: u64, trace: bool) -> usize {
    let k = (seconds as f64 / w.nominal_session_s()).round().max(1.0) as usize;
    if trace {
        (k / 2).max(1)
    } else {
        k
    }
}

/// The seed of a run's `i`-th session: SplitMix64 over the run seed, so
/// every session of every run gets an unrelated world and schedule.
fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run one session: of `spec` on the sim, else on TCP. Sim sessions also
/// return their fingerprint.
fn run_one(spec: Option<&SimSpec>, seed: u64, traced: bool) -> (Session, Option<Fingerprint>) {
    match spec {
        Some(spec) => {
            let (s, fp) = sim::run_session(spec, seed, traced);
            (s, Some(fp))
        }
        None => (tcp::run_session(seed, TCP_MOVES, traced), None),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no sessions");
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    clock: &'static str,
}

/// Sums over a run's sessions.
struct Pooled {
    submitted: u64,
    dropped: u64,
    bytes: u64,
    wall_s: f64,
}

fn pool(sessions: &[&Session]) -> Pooled {
    Pooled {
        submitted: sessions.iter().map(|s| s.submitted).sum(),
        dropped: sessions.iter().map(|s| s.dropped).sum(),
        bytes: sessions.iter().map(|s| s.bytes).sum(),
        wall_s: sessions.iter().map(|s| s.wall_s).sum(),
    }
}

fn drop_pct(p: &Pooled) -> f64 {
    100.0 * p.dropped as f64 / p.submitted as f64
}

/// The end-to-end metrics: each the median over the run's plain sessions
/// of that session's value, except bytes per action (pooled) and peak RSS
/// (the process's).
fn end_to_end(w: Workload, sessions: &[&Session]) -> Vec<Metric> {
    let p = pool(sessions);
    let response_clock = if w == Workload::TcpLoopback {
        "host"
    } else {
        "simulated"
    };
    let med = |f: &dyn Fn(&Session) -> f64| median(sessions.iter().map(|s| f(s)).collect());
    let m = |name, value, unit, clock| Metric {
        name,
        value,
        unit,
        clock,
    };
    vec![
        m("setup_s", med(&|s| s.setup_s), "s", "host"),
        m(
            "actions_per_s",
            med(&|s| s.resolved as f64 / s.wall_s),
            "1/s",
            "host",
        ),
        m(
            "cpu_us_per_action",
            med(&|s| s.cpu_s * 1e6 / s.submitted as f64),
            "us",
            "cpu",
        ),
        m(
            "response_p50_ms",
            med(&|s| s.response_ms.quantile(0.5)),
            "ms",
            response_clock,
        ),
        m(
            "response_p99_ms",
            med(&|s| s.response_ms.quantile(0.99)),
            "ms",
            response_clock,
        ),
        // Pooled, not a median: on TCP a session's bytes per action is
        // bimodal (whether the two avatars stay in each other's interest
        // set), and the median would flip between the modes.
        m(
            "bytes_per_action",
            p.bytes as f64 / p.submitted as f64,
            "B",
            "count",
        ),
        m("peak_rss_mb", host::peak_rss_mb(), "MiB", "host"),
    ]
}

/// Every per-layer metric with its unit; layers a workload does not run
/// report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("session.wall_s", "s"),
    ("driver.sim.self_s", "s"),
    ("world.next_action.self_s", "s"),
    ("core.client.submit.self_s", "s"),
    ("core.client.deliver.self_s", "s"),
    ("core.client.deliver.calls", "count"),
    ("core.replay.rebuilds", "count"),
    ("core.replay.entries_replayed", "count"),
    ("core.replay.skip_ratio", "ratio"),
    ("core.server.deliver.self_s", "s"),
    ("core.server.tick.self_s", "s"),
    ("core.server.push.self_s", "s"),
    ("core.server.stage.ingress_s", "s"),
    ("core.server.stage.serialize_s", "s"),
    ("core.server.stage.analyze_s", "s"),
    ("core.server.stage.route_s", "s"),
    ("core.server.stage.egress_s", "s"),
    ("core.closure.visit_ratio", "ratio"),
    ("core.analyze.visit_ratio", "ratio"),
    ("core.analyze.parallel_ticks", "count"),
    ("exec.tasks", "count"),
    ("exec.busy_s", "s"),
    ("rt.client.send.self_s", "s"),
    ("rt.client.recv.wait_s", "s"),
    ("driver.session.client.self_s", "s"),
    ("rt.egress.frames_reused_ratio", "ratio"),
    ("rt.egress.pool_hit_ratio", "ratio"),
    ("rt.egress.writev_batches", "count"),
    ("driver.node.move_lateness_p99_ms", "ms"),
    ("net.link.msgs", "count"),
    ("sim.server_utilization", "ratio"),
    ("drop_pct", "%"),
    ("trace.overhead_pct", "%"),
];

fn clock_of(name: &str) -> &'static str {
    match name {
        "sim.server_utilization" => "simulated",
        "drop_pct" => "count",
        n if n.ends_with("_s") || n.ends_with("_ms") || n.ends_with("_pct") => "host",
        _ => "count",
    }
}

/// The per-layer metrics: medians over the traced sessions, plus the
/// pooled drop share and the tracing overhead against the plain
/// sessions of the same sub-seeds.
fn per_layer(traced: &[&Session], plain: &[&Session]) -> Vec<Metric> {
    let (t, p) = (pool(traced), pool(plain));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.overhead_pct" => 100.0 * (t.wall_s / p.wall_s - 1.0),
                "drop_pct" => drop_pct(&t),
                _ => median(
                    traced
                        .iter()
                        .map(|s| s.layers.get(name).copied().unwrap_or(0.0))
                        .collect(),
                ),
            };
            Metric {
                name,
                value,
                unit,
                clock: clock_of(name),
            }
        })
        .collect()
}

/// The transparency self-test: a small version of the sim workload gives
/// the same deterministic outcome traced and plain.
fn self_test(w: Workload, seed: u64) -> Vec<String> {
    let Some(spec) = w.small_sim_spec() else {
        return Vec::new();
    };
    let (plain_s, plain) = sim::run_session(&spec, seed, false);
    let (traced_s, traced) = sim::run_session(&spec, seed, true);
    // The self-test's spans are not part of the measured trace.
    session::discard_spans();
    let mut errors: Vec<String> = plain_s.errors.into_iter().chain(traced_s.errors).collect();
    if plain != traced {
        errors.push(format!(
            "tracing perturbed the small session: plain {plain:?} vs traced {traced:?}"
        ));
    } else {
        println!(
            "  self-test: small session identical traced and plain ({} actions)",
            plain_s.submitted
        );
    }
    errors
}

fn report(i: usize, traced: bool, s: &Session) {
    println!(
        "  session {:>2}{}: setup {:.4} s, wall {:.3} s, {} submitted, {} resolved, {} dropped, {} B, response p50 {} ms p99 {} ms",
        i,
        if traced { " (traced)" } else { "" },
        s.setup_s,
        s.wall_s,
        s.submitted,
        s.resolved,
        s.dropped,
        s.bytes,
        s.response_ms.quantile(0.5),
        s.response_ms.quantile(0.99)
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let k = sessions_per_run(w, args.seconds, args.trace);
    println!(
        "e2ebench: workload {} seed {} seconds {} trace {}: {k} sub-seed session(s)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  host: nproc {}, {}",
        host::nproc(),
        env!("E2EBENCH_RUSTC")
    );

    let spec = w.sim_spec();
    let spec = spec.as_ref();
    let mut errors = Vec::new();
    let check = |s: &Session, errors: &mut Vec<String>| errors.extend(s.errors.iter().cloned());
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    if args.trace {
        errors.extend(self_test(w, args.seed));
        // Each sub-seed plain, then traced: the pair must agree exactly on
        // the sim, which proves the decorators perturb nothing at full size.
        for i in 0..k {
            let seed = sub_seed(args.seed, i);
            let (p, pf) = run_one(spec, seed, false);
            report(2 * i + 1, false, &p);
            let (t, tf) = run_one(spec, seed, true);
            report(2 * i + 2, true, &t);
            if pf != tf {
                errors.push(format!(
                    "sub-seed {seed}: traced outcome {tf:?} differs from plain {pf:?}"
                ));
            }
            check(&p, &mut errors);
            check(&t, &mut errors);
            plain.push(p);
            traced.push(t);
        }
    } else {
        let mut first = None;
        for i in 0..k {
            let (s, fp) = run_one(spec, sub_seed(args.seed, i), false);
            report(i + 1, false, &s);
            check(&s, &mut errors);
            if i == 0 {
                first = fp;
            }
            plain.push(s);
        }
        // Sim outcomes must repeat exactly: run the first sub-seed again
        // (outside the measurement) and compare.
        if let Some(first) = first {
            let (s, again) = run_one(spec, sub_seed(args.seed, 0), false);
            check(&s, &mut errors);
            match again {
                Some(fp) if fp == first => println!("  repeat: sub-seed 0 reproduced exactly"),
                other => errors.push(format!(
                    "sub-seed 0 repeat gave {other:?}, first run {first:?}"
                )),
            }
        }
    }

    let plain: Vec<&Session> = plain.iter().collect();
    let traced: Vec<&Session> = traced.iter().collect();
    let measured = if args.trace { &traced } else { &plain };
    let attempted: u64 = measured.iter().map(|s| s.submitted).sum();
    let failed: u64 = measured
        .iter()
        .map(|s| s.submitted.saturating_sub(s.resolved))
        .sum();
    println!(
        "  operations: {attempted} submitted, {failed} never resolved, drop_pct {:.4} % (Algorithm 7 drops, resolved by a drop notice)",
        drop_pct(&pool(measured))
    );

    let metrics = if args.trace {
        let path = std::path::PathBuf::from(format!("e2ebench/out/trace-{}.tsv", w.name()));
        match session::write_spans(&path) {
            Ok(rows) => println!("  trace: {rows} spans written to {}", path.display()),
            Err(e) => errors.push(format!("writing {}: {e}", path.display())),
        }
        per_layer(&traced, &plain)
    } else {
        end_to_end(w, &plain)
    };

    for m in &metrics {
        println!(
            "  {:<34} {:>16.6} {:<6} [{} clock]",
            m.name, m.value, m.unit, m.clock
        );
        if !m.value.is_finite() {
            errors.push(format!("metric {} is not finite", m.name));
        }
    }
    if errors.is_empty() {
        println!("  checks: all passed");
    }
    for e in &errors {
        println!("  check failed: {e}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
