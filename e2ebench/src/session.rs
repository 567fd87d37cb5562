//! What one whole session yields, whatever the backend.

use crate::trace::{Agg, ThreadSpans};
use seve::core::metrics::StageMetrics;
use seve::net::stats::Summary;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

/// Per-layer readings of one traced session, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One session's end-to-end readings and the failures its checks found.
pub struct Session {
    /// Host seconds to build the world, engines and workload (plus
    /// connect and handshake on TCP).
    pub setup_s: f64,
    /// Host seconds of the session itself, set-up excluded.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) over the session.
    pub cpu_s: f64,
    pub submitted: u64,
    pub dropped: u64,
    /// Actions that got a stable response or a drop notice.
    pub resolved: u64,
    /// Bytes over every link (sim) or socket (TCP).
    pub bytes: u64,
    /// Response times of clients' own actions: simulated ms on the sim,
    /// wall-clock ms on TCP.
    pub response_ms: Summary,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Per-layer readings (traced sessions only).
    pub layers: Layers,
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The wrapped engine and workload calls, by span name; each layer's
/// metric is its self time (`<span>.self_s`).
const ENGINE_SPANS: &[(&str, &str)] = &[
    ("world.next_action", "world.next_action.self_s"),
    ("core.client.submit", "core.client.submit.self_s"),
    ("core.client.deliver", "core.client.deliver.self_s"),
    ("core.server.deliver", "core.server.deliver.self_s"),
    ("core.server.tick", "core.server.tick.self_s"),
    ("core.server.push", "core.server.push.self_s"),
];

/// Self seconds of the spans named `name`.
pub fn self_s(agg: &BTreeMap<&'static str, Agg>, name: &str) -> f64 {
    agg.get(name).map_or(0.0, |a| a.self_ns as f64 / 1e9)
}

/// Total seconds of the spans named `name`.
pub fn total_s(agg: &BTreeMap<&'static str, Agg>, name: &str) -> f64 {
    agg.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e9)
}

/// The engine and workload layers every backend wraps, plus the replay
/// log's own counters.
pub fn engine_layers(
    layers: &mut Layers,
    agg: &BTreeMap<&'static str, Agg>,
    rebuilds: u64,
    entries_replayed: u64,
    commute_hits: u64,
) {
    for &(span, metric) in ENGINE_SPANS {
        layers.insert(metric, self_s(agg, span));
    }
    layers.insert(
        "core.client.deliver.calls",
        agg.get("core.client.deliver").map_or(0, |a| a.calls) as f64,
    );
    layers.insert("core.replay.rebuilds", rebuilds as f64);
    layers.insert("core.replay.entries_replayed", entries_replayed as f64);
    // Share of out-of-order arrivals absorbed by a commute splice rather
    // than a rebuild.
    layers.insert(
        "core.replay.skip_ratio",
        ratio(commute_hits, commute_hits + rebuilds),
    );
}

/// The pipeline's own stage profile and work counters, as layer metrics.
pub fn stage_layers(layers: &mut Layers, st: &StageMetrics) {
    layers.insert("core.server.stage.ingress_s", st.ingress.nanos as f64 / 1e9);
    layers.insert(
        "core.server.stage.serialize_s",
        st.serialize.nanos as f64 / 1e9,
    );
    layers.insert("core.server.stage.analyze_s", st.analyze.nanos as f64 / 1e9);
    layers.insert("core.server.stage.route_s", st.route.nanos as f64 / 1e9);
    layers.insert("core.server.stage.egress_s", st.egress.nanos as f64 / 1e9);
    layers.insert(
        "core.closure.visit_ratio",
        ratio(st.closure_entries_visited, st.closure_entries_linear),
    );
    layers.insert(
        "core.analyze.visit_ratio",
        ratio(st.analyze_entries_visited, st.analyze_entries_linear),
    );
    layers.insert(
        "core.analyze.parallel_ticks",
        st.analyze_parallel_ticks as f64,
    );
    layers.insert("exec.tasks", st.exec_tasks as f64);
    layers.insert("exec.busy_s", st.exec_busy_nanos as f64 / 1e9);
}

static KEPT: Mutex<Vec<(usize, ThreadSpans)>> = Mutex::new(Vec::new());

/// Keep one traced session's spans until the run ends.
pub fn keep_spans(spans: Vec<ThreadSpans>) {
    let mut kept = KEPT
        .lock()
        .expect("span store poisoned by a panicked thread");
    let session = kept.last().map_or(0, |(s, _)| s + 1);
    kept.extend(spans.into_iter().map(|t| (session, t)));
}

/// Forget the spans kept so far.
pub fn discard_spans() {
    KEPT.lock()
        .expect("span store poisoned by a panicked thread")
        .clear();
}

/// Write every kept span as tab-separated rows:
/// `session thread id parent name start_ns end_ns self_ns`.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let kept = KEPT
        .lock()
        .expect("span store poisoned by a panicked thread");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "session\tthread\tid\tparent\tname\tstart_ns\tend_ns\tself_ns"
    )?;
    let mut rows = 0;
    for (session, t) in kept.iter() {
        for s in &t.spans {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{session}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                t.thread, s.id, s.name, s.start_ns, s.end_ns, s.self_ns
            )?;
            rows += 1;
        }
    }
    out.flush()?;
    Ok(rows)
}
