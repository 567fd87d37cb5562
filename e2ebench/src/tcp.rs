//! The loopback-TCP workload: the `realnet` world and protocol over
//! supervised TCP sessions, driven as an open loop.
//!
//! The client stack is the one `seve::rt::run_client_with` builds (engine,
//! socket transport, fault decorator with no faults, session supervisor,
//! all under `NodeDriver::run_client`), assembled here from its public
//! parts so the connect/handshake can be timed as set-up and each layer
//! can be wrapped. The server is `seve::rt::run_server_with`, given a
//! wrapped engine when traced.

use crate::host;
use crate::session::{
    engine_layers, keep_spans, ratio, self_s, stage_layers, total_s, Layers, Session,
};
use crate::trace::{self, TracedClient, TracedServer, TracedTransport, TracedWorkload};
use seve::core::config::{ProtocolConfig, ServerMode};
use seve::core::consistency::ConsistencyOracle;
use seve::core::msg::{ToClient, ToServer};
use seve::core::pipeline::PipelineServer;
use seve::core::SeveClient;
use seve::driver::{
    session_token, ClientReport, FaultPlan, FaultyClientTransport, NodeDriver, ServerReport,
    SessionDown, SessionParams, SessionUp, SupervisedClientTransport,
};
use seve::net::stats::Summary;
use seve::net::time::SimDuration;
use seve::rt::{run_server_with, TcpClientTransport};
use seve::world::ids::ClientId;
use seve::world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, MoveAction, SpawnPattern,
};
use seve::world::GameWorld;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Clients in the session.
pub const CLIENTS: usize = 2;
/// Open-loop cadence: one move per client per period.
pub const MOVE_PERIOD: Duration = Duration::from_millis(1);
/// Server τ-tick and push cycles (the `realnet` settings).
const CYCLE: Duration = Duration::from_millis(5);

type Up = SessionUp<ToServer<MoveAction>>;
type Down = SessionDown<ToClient<MoveAction>>;

/// The `realnet` example's world at `clients` avatars.
fn world_config(seed: u64) -> ManhattanConfig {
    ManhattanConfig {
        clients: CLIENTS,
        walls: 500,
        width: 300.0,
        height: 300.0,
        spawn: SpawnPattern::Grid { spacing: 12.0 },
        seed,
        ..ManhattanConfig::default()
    }
}

/// The `realnet` example's protocol: loopback RTT is microseconds, so the
/// cycles are scaled down to rtt 20 ms, tick 5 ms.
fn protocol() -> ProtocolConfig {
    let mut cfg = ProtocolConfig::with_mode(ServerMode::InfoBound);
    cfg.rtt = SimDuration::from_ms(20);
    cfg.tick = SimDuration::from_ms(5);
    cfg
}

/// What one client thread brings back.
struct ClientRun {
    report: ClientReport,
    lateness_ms: Vec<f64>,
}

/// Run one session of `moves` moves per client, traced or plain.
pub fn run_session(seed: u64, moves: u32, traced: bool) -> Session {
    let t0 = Instant::now();
    let world = Arc::new(ManhattanWorld::new(world_config(seed)));
    let cfg = protocol();
    let digest = world.initial_state().digest();
    let params = SessionParams::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let lo_before = host::loopback_tx_bytes();

    let server = {
        let engine = PipelineServer::new(Arc::clone(&world), cfg.clone());
        std::thread::spawn(move || {
            if traced {
                let r = run_server_with(
                    TracedServer(engine),
                    listener,
                    CLIENTS,
                    CYCLE,
                    CYCLE,
                    digest,
                    params,
                );
                trace::flush("server");
                r
            } else {
                run_server_with(engine, listener, CLIENTS, CYCLE, CYCLE, digest, params)
            }
        })
    };

    // Build every client engine and workload, connect and present the
    // hello before the clock starts: all of it is set-up.
    let links: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let id = ClientId(i as u16);
            let engine = SeveClient::new(id, Arc::clone(&world), &cfg);
            let workload = ManhattanWorkload::new(&world);
            let t = TcpClientTransport::<Up, Down>::connect(
                addr,
                id,
                digest,
                session_token(params.seed, id),
            )
            .expect("connect to the loopback server");
            let hello = t.handshake_bytes();
            (id, engine, workload, t, hello)
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();

    let (run_t0, cpu0) = (Instant::now(), host::cpu_time());
    let clients: Vec<_> = links
        .into_iter()
        .map(|(id, engine, workload, socket, hello)| {
            std::thread::spawn(move || {
                let driver = NodeDriver::client(moves, MOVE_PERIOD);
                let mut run = if traced {
                    let socket = TracedTransport::new(socket, &trace::RT_CLIENT);
                    let faulty = FaultyClientTransport::new(socket, &FaultPlan::none(), id.index());
                    let mut stack = TracedTransport::new(
                        SupervisedClientTransport::new(faulty, id, params),
                        &trace::SESSION_CLIENT,
                    );
                    let mut wl =
                        TracedWorkload::new(workload).with_schedule(Instant::now(), MOVE_PERIOD);
                    let report = driver
                        .run_client(TracedClient(engine), &mut wl, &mut stack)
                        .expect("client session");
                    drop(stack);
                    trace::flush(&format!("client{}", id.0));
                    ClientRun {
                        report,
                        lateness_ms: wl.lateness_ms().to_vec(),
                    }
                } else {
                    let faulty = FaultyClientTransport::new(socket, &FaultPlan::none(), id.index());
                    let mut stack = SupervisedClientTransport::new(faulty, id, params);
                    let mut wl = workload;
                    let report = driver
                        .run_client(engine, &mut wl, &mut stack)
                        .expect("client session");
                    ClientRun {
                        report,
                        lateness_ms: Vec::new(),
                    }
                };
                run.report.bytes_out += hello.load(Ordering::Relaxed);
                run
            })
        })
        .collect();
    let clients: Vec<ClientRun> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    let server: ServerReport = server
        .join()
        .expect("server thread panicked")
        .expect("server session");
    let wall_s = run_t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_time().saturating_sub(cpu0).as_secs_f64();
    let lo_after = host::loopback_tx_bytes();

    summarize(
        setup_s,
        wall_s,
        cpu_s,
        clients,
        server,
        lo_before.zip(lo_after),
        traced,
    )
}

fn summarize(
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    mut clients: Vec<ClientRun>,
    server: ServerReport,
    lo: Option<(u64, u64)>,
    traced: bool,
) -> Session {
    let mut errors = Vec::new();
    let mut oracle = ConsistencyOracle::new();
    let mut response_ms = Summary::new();
    let (mut submitted, mut dropped, mut resolved, mut bytes) = (0, 0, 0, server.bytes_out);
    let mut lateness = Summary::new();
    for c in &mut clients {
        let m = &mut c.report.metrics;
        response_ms.merge(&m.response_ms);
        submitted += m.submitted;
        dropped += m.dropped;
        resolved += (m.response_ms.count() + m.drop_notice_ms.count()) as u64;
        bytes += c.report.bytes_out;
        if m.replay_divergences != 0 {
            errors.push(format!(
                "client {}: {} replay divergences",
                m.owner, m.replay_divergences
            ));
        }
        for rec in m.take_eval_records() {
            oracle.observe(&rec);
        }
        if c.report.crashed {
            errors.push(format!("client {} crashed", m.owner));
        }
        if c.report.session.coping() != 0 {
            errors.push(format!(
                "client {} session coping counters: {:?}",
                m.owner, c.report.session
            ));
        }
        for &l in &c.lateness_ms {
            lateness.record(l);
        }
    }
    if !oracle.is_consistent() {
        errors.push(format!(
            "{} Theorem-1 oracle violations",
            oracle.violations().len()
        ));
    }
    let st = &server.metrics.stage;
    if st.pool_outstanding != 0 {
        errors.push(format!(
            "{} pooled buffers outstanding",
            st.pool_outstanding
        ));
    }
    let coping =
        st.session_retransmits + st.session_reconnects + st.session_reaps + st.session_sheds;
    if coping != 0 {
        errors.push(format!("server session coping counters sum to {coping}"));
    }
    match lo {
        Some((before, after)) if after.saturating_sub(before) < bytes => errors.push(format!(
            "loopback interface moved {} bytes, fewer than the {bytes} the sockets wrote",
            after.saturating_sub(before)
        )),
        Some((before, after)) => println!(
            "  loopback: interface lo moved {} bytes during the session; the sockets wrote {bytes}",
            after - before
        ),
        None => println!("  loopback: /proc/net/dev not readable; lo byte count unchecked"),
    }

    let mut layers = Layers::new();
    if traced {
        let spans = trace::take();
        let agg = trace::aggregate(&spans);
        layers.insert("session.wall_s", wall_s);
        let (rebuilds, replayed, commutes) = clients.iter().fold((0, 0, 0), |acc, c| {
            let m = &c.report.metrics;
            (
                acc.0 + m.replay_rebuilds,
                acc.1 + m.replay_entries_replayed,
                acc.2 + m.replay_commute_hits,
            )
        });
        engine_layers(&mut layers, &agg, rebuilds, replayed, commutes);
        stage_layers(&mut layers, st);
        layers.insert("rt.client.send.self_s", self_s(&agg, "rt.client.send"));
        // The socket transport's recv is a blocking channel wait.
        layers.insert("rt.client.recv.wait_s", total_s(&agg, "rt.client.recv"));
        layers.insert(
            "driver.session.client.self_s",
            self_s(&agg, "driver.session.client.send")
                + self_s(&agg, "driver.session.client.recv")
                + self_s(&agg, "driver.session.client.other"),
        );
        layers.insert(
            "rt.egress.frames_reused_ratio",
            ratio(st.frames_reused, st.frames_encoded + st.frames_reused),
        );
        // Supervised envelopes carry a per-lane sequence number, so every
        // message is encoded on its own and takes one pooled buffer.
        layers.insert(
            "rt.egress.pool_hit_ratio",
            ratio(st.pool_hits, st.frames_encoded + st.frames_reused),
        );
        layers.insert("rt.egress.writev_batches", st.writev_batches as f64);
        layers.insert("driver.node.move_lateness_p99_ms", lateness.quantile(0.99));
        keep_spans(spans);
    }

    Session {
        setup_s,
        wall_s,
        cpu_s,
        submitted,
        dropped,
        resolved,
        bytes,
        response_ms,
        errors,
        layers,
    }
}
