//! The two simulator workloads: whole SEVE sessions on the discrete-event
//! backend, built from the repository's own experiment definitions.

use crate::host;
use crate::session::{engine_layers, keep_spans, self_s, stage_layers, total_s, Layers, Session};
use crate::trace::{self, TracedSuite, TracedWorkload};
use seve::core::config::{ProtocolConfig, ServerMode};
use seve::core::engine::ProtocolSuite;
use seve::core::server::SeveSuite;
use seve::driver::{RunResult, SimConfig, Simulation};
use seve::net::time::SimDuration;
use seve::sim::experiment::{
    dense_protocol, dense_world, paper_protocol, paper_sim, paper_world, Scale,
};
use seve::world::worlds::manhattan::{ManhattanConfig, ManhattanWorkload, ManhattanWorld};
use seve::world::worlds::Workload;
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A sim workload: world, protocol and testbed settings. Each session's
/// seed drives the move schedule (`SimConfig::seed`) and, when
/// `vary_world`, the world too (`ManhattanConfig::seed`: walls, spawns,
/// initial headings).
#[derive(Clone)]
pub struct SimSpec {
    world: ManhattanConfig,
    vary_world: bool,
    proto: ProtocolConfig,
    sim: SimConfig,
}

impl SimSpec {
    /// The Table I Manhattan People world at `clients` clients (Scale::Quick
    /// walls and move cost), SEVE Information Bound, Table I network.
    pub fn overload(clients: usize, moves: u32) -> Self {
        Self {
            world: paper_world(clients, Scale::Quick).config().clone(),
            vary_world: true,
            proto: paper_protocol(ServerMode::InfoBound),
            sim: SimConfig {
                moves_per_client: moves,
                ..paper_sim(Scale::Quick)
            },
        }
    }

    /// The Figure 8 dense crowd (60 avatars, visibility 30, effect range
    /// 6, spacing 7) under Information Bound dropping, optionally shrunk
    /// to `clients` avatars for the transparency self-test.
    ///
    /// The crowd keeps the experiment's own world (its seed fixes the
    /// initial headings): across world seeds the crowd either disperses or
    /// jams, and the drop share ranges from 0.5% to 29% per session, so
    /// only the move schedule is drawn from the run seed. The drain window
    /// is long enough for every backlogged action to resolve.
    pub fn dense(clients: usize, moves: u32) -> Self {
        let (vis, range) = (30.0, 6.0);
        Self {
            world: ManhattanConfig {
                clients,
                ..dense_world(vis, range, 7.0, Scale::Quick).config().clone()
            },
            vary_world: false,
            proto: dense_protocol(ServerMode::InfoBound, vis, range),
            sim: SimConfig {
                moves_per_client: moves,
                drain: SimDuration::from_secs(60),
                ..SimConfig::default()
            },
        }
    }
}

/// Everything a sim run must reproduce exactly for one seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    submitted: u64,
    dropped: u64,
    total_bytes: u64,
    total_msgs: u64,
    stable_digests: u64,
    committed_digest: Option<u64>,
    response_ms: u64,
    drop_notice_ms: u64,
}

fn hash_samples(samples: &[f64]) -> u64 {
    let mut h = DefaultHasher::new();
    for s in samples {
        s.to_bits().hash(&mut h);
    }
    h.finish()
}

impl Fingerprint {
    fn of(r: &RunResult) -> Self {
        let mut h = DefaultHasher::new();
        r.stable_digests.hash(&mut h);
        Self {
            submitted: r.submitted,
            dropped: r.dropped,
            total_bytes: r.total_bytes,
            total_msgs: r.total_msgs,
            stable_digests: h.finish(),
            committed_digest: r.committed_digest,
            response_ms: hash_samples(r.response_ms.samples()),
            drop_notice_ms: hash_samples(r.drop_notice_ms.samples()),
        }
    }
}

/// Times engine construction, which the simulator performs inside `run`,
/// so it can be booked as set-up rather than session time.
struct BuildTimer<P> {
    inner: P,
    wall: Cell<Duration>,
    cpu: Cell<Duration>,
}

impl<P: ProtocolSuite<ManhattanWorld>> ProtocolSuite<ManhattanWorld> for BuildTimer<P> {
    type Up = P::Up;
    type Down = P::Down;
    type Client = P::Client;
    type Server = P::Server;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(&self, world: Arc<ManhattanWorld>) -> (Self::Server, Vec<Self::Client>) {
        let (t0, c0) = (Instant::now(), host::cpu_time());
        let built = self.inner.build(world);
        self.wall.set(t0.elapsed());
        self.cpu.set(host::cpu_time().saturating_sub(c0));
        built
    }
}

/// Run one whole session of `spec` with `seed`, traced or plain.
pub fn run_session(spec: &SimSpec, seed: u64, traced: bool) -> (Session, Fingerprint) {
    let t0 = Instant::now();
    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        seed: if spec.vary_world {
            seed
        } else {
            spec.world.seed
        },
        ..spec.world.clone()
    }));
    let cfg = SimConfig {
        seed,
        ..spec.sim.clone()
    };
    let suite = SeveSuite::new(spec.proto.clone());
    let mut workload = ManhattanWorkload::new(&world);
    let world_setup = t0.elapsed();

    let run = if traced {
        let run = {
            let _s = trace::span("driver.sim");
            run_timed(
                world,
                TracedSuite(suite),
                cfg,
                &mut TracedWorkload::new(workload),
            )
        };
        trace::flush("sim");
        run
    } else {
        run_timed(world, suite, cfg, &mut workload)
    };
    let result = run.result;

    let mut session = Session {
        setup_s: (world_setup + run.build_wall).as_secs_f64(),
        wall_s: run.wall.saturating_sub(run.build_wall).as_secs_f64(),
        cpu_s: run.cpu.saturating_sub(run.build_cpu).as_secs_f64(),
        submitted: result.submitted,
        dropped: result.dropped,
        resolved: (result.response_ms.count() + result.drop_notice_ms.count()) as u64,
        bytes: result.total_bytes,
        response_ms: result.response_ms.clone(),
        errors: Vec::new(),
        layers: Layers::new(),
    };
    if result.violations != 0 {
        session
            .errors
            .push(format!("{} Theorem-1 oracle violations", result.violations));
    }
    if result.replay_divergences != 0 {
        session
            .errors
            .push(format!("{} replay divergences", result.replay_divergences));
    }
    if result.session.coping() != 0 {
        session.errors.push(format!(
            "session coping counters non-zero: {:?}",
            result.session
        ));
    }
    if traced {
        sim_layers(&mut session.layers, &result);
    }
    (session, Fingerprint::of(&result))
}

/// One simulator run, with engine construction booked apart.
struct TimedRun {
    result: RunResult,
    wall: Duration,
    cpu: Duration,
    build_wall: Duration,
    build_cpu: Duration,
}

/// Run `suite` over `world`, timing the whole run and, inside it, the
/// engine construction the simulator performs.
fn run_timed<P: ProtocolSuite<ManhattanWorld>>(
    world: Arc<ManhattanWorld>,
    suite: P,
    cfg: SimConfig,
    workload: &mut dyn Workload<ManhattanWorld>,
) -> TimedRun {
    let suite = BuildTimer {
        inner: suite,
        wall: Cell::default(),
        cpu: Cell::default(),
    };
    let (t0, c0) = (Instant::now(), host::cpu_time());
    let result = Simulation::new(world, &suite, cfg).run(workload);
    TimedRun {
        result,
        wall: t0.elapsed(),
        cpu: host::cpu_time().saturating_sub(c0),
        build_wall: suite.wall.get(),
        build_cpu: suite.cpu.get(),
    }
}

/// The per-layer readings of one traced sim session: span self times plus
/// the counters the simulator already reports.
fn sim_layers(layers: &mut Layers, r: &RunResult) {
    let spans = trace::take();
    let agg = trace::aggregate(&spans);
    layers.insert(
        "session.wall_s",
        total_s(&agg, "driver.sim") - total_s(&agg, "setup.build"),
    );
    layers.insert("driver.sim.self_s", self_s(&agg, "driver.sim"));
    engine_layers(
        layers,
        &agg,
        r.replay_rebuilds,
        r.replay_entries_replayed,
        r.replay_commute_hits,
    );
    stage_layers(layers, &r.server.stage);
    layers.insert("net.link.msgs", r.total_msgs as f64);
    layers.insert("sim.server_utilization", r.server_utilization);
    keep_spans(spans);
}
