//! The node driver: the one place that owns the scheduling every threaded
//! node needs.
//!
//! Before this layer existed the cadence logic lived twice — once in the
//! simulator's event loop and once, hand-rolled, in the TCP runtime. The
//! [`NodeDriver`] is the threaded half of the unification: the server's
//! τ-tick and ω·RTT push cycles, the client's move-period submission, the
//! drain and linger phases, and message dispatch into the engines, written
//! once against the [`Clock`] and transport traits. The TCP runtime and the
//! in-process backend both run these exact loops; only the transport
//! differs. (The simulator keeps its discrete-event structure in
//! [`crate::sim`], bit-identical to the pre-driver harness.)
//!
//! Timer discipline: the server cycles use the **clamped** catch-up policy
//! (`next = now + period`) — a server descheduled by the OS resumes its
//! cadence from the present instead of firing a burst of make-up ticks.
//! The client move timer stays on the nominal grid: its submission quota is
//! part of the workload's definition.

use crate::clock::{Clock, WallClock};
use crate::report::{ClientReport, ServerReport};
use crate::timer::{MoveTimer, PeriodicTimer, Timer};
use crate::transport::{ClientEvent, ClientTransport, ServerEvent, ServerTransport};
use seve_core::engine::{ClientNode, ServerNode};
use seve_net::time::SimDuration;
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::time::Duration;

/// Convert a wall-clock span to protocol microseconds.
fn to_sim(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// Cadence parameters for driving one node (server or client side).
#[derive(Clone, Debug)]
pub struct NodeDriver {
    /// Server simulation tick τ.
    pub tick: Duration,
    /// Server push cycle (used only when the engine pushes).
    pub push: Duration,
    /// Client move-generation period.
    pub move_period: Duration,
    /// Client submission quota.
    pub moves: u32,
    /// Extra drain time beyond ten move periods before the client gives up
    /// waiting for its pending actions to resolve.
    pub drain_grace: Duration,
    /// How long the client lingers after its goodbye, relaying completions
    /// for other clients, before assuming the server is gone.
    pub linger: Duration,
    /// Fault injection: abort the client abruptly after this many
    /// submissions — no drain, no goodbye (Section III-C crash scenario).
    pub crash_after_moves: Option<u32>,
    /// Fault injection: partition the client's link for the given span
    /// after this many submissions. A supervised transport buffers
    /// up-traffic, loses down-traffic, then reconnects and resumes; an
    /// unsupervised one no-ops.
    pub partition_after_moves: Option<(u32, Duration)>,
}

impl Default for NodeDriver {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(50),
            push: Duration::from_millis(50),
            move_period: Duration::from_millis(300),
            moves: 0,
            drain_grace: Duration::from_secs(2),
            linger: Duration::from_secs(10),
            crash_after_moves: None,
            partition_after_moves: None,
        }
    }
}

impl NodeDriver {
    /// A driver for the server side with the given cycle periods.
    pub fn server(tick: Duration, push: Duration) -> Self {
        Self {
            tick,
            push,
            ..Self::default()
        }
    }

    /// A driver for a client submitting `moves` actions at `period`.
    pub fn client(moves: u32, period: Duration) -> Self {
        Self {
            moves,
            move_period: period,
            ..Self::default()
        }
    }

    /// Run `engine` over `transport` until all `n` clients have finished.
    ///
    /// The loop interleaves the wall-clock tick and push cycles with
    /// inbound message dispatch, exactly once per substrate-independent
    /// step: fire due timers, compute the earliest next deadline, block on
    /// the transport until then.
    pub fn run_server<W, S, T>(
        &self,
        mut engine: S,
        transport: &mut T,
        n: usize,
    ) -> Result<ServerReport, T::Error>
    where
        W: GameWorld,
        S: ServerNode<W>,
        T: ServerTransport<S::Up, S::Down>,
    {
        let clock = WallClock::new();
        let mut tick_t = PeriodicTimer::clamped(clock.now(), to_sim(self.tick));
        let pushes = engine.push_period().is_some();
        let mut push_t = PeriodicTimer::clamped(clock.now(), to_sim(self.push));
        let mut done = 0usize;
        let mut bytes_out = 0u64;
        let mut out: Vec<(seve_world::ids::ClientId, S::Down)> = Vec::new();

        while done < n {
            let now = clock.now();
            if tick_t.due(now) {
                out.clear();
                engine.tick(now, &mut out);
                bytes_out += transport.send_batch(&out)?;
                tick_t.advance(clock.now());
            }
            if pushes && push_t.due(now) {
                out.clear();
                engine.push_tick(now, &mut out);
                bytes_out += transport.send_batch(&out)?;
                push_t.advance(clock.now());
            }
            let tick_next = tick_t.next_deadline().expect("clamped timers never end");
            let deadline = if pushes {
                tick_next.min(push_t.next_deadline().expect("clamped timers never end"))
            } else {
                tick_next
            };
            match transport.recv(clock.wait_until(deadline))? {
                ServerEvent::Msg(from, msg) => {
                    out.clear();
                    engine.deliver(clock.now(), from, msg, &mut out);
                    bytes_out += transport.send_batch(&out)?;
                }
                // An unsupervised transport surfaces abrupt loss (`Gone`)
                // directly; the driver retires the seat either way, exactly
                // the pre-supervision semantics. A supervised transport
                // absorbs `Gone` internally (resume window, then reap) and
                // emits `Done` once per seat.
                ServerEvent::Done(_) | ServerEvent::Gone(_) => done += 1,
                ServerEvent::Timeout => {}
                ServerEvent::Closed => break,
            }
        }

        // End-of-run drain: routing policies flush queue tails on cycle
        // boundaries (e.g. the broadcast catch-up on tick), so a session
        // that ends right after the last submission would otherwise strand
        // the tail on the server. Fire one final cycle before Stop so
        // replicas that have stopped submitting still converge.
        let now = clock.now();
        out.clear();
        engine.tick(now, &mut out);
        bytes_out += transport.send_batch(&out)?;
        if pushes {
            out.clear();
            engine.push_tick(now, &mut out);
            bytes_out += transport.send_batch(&out)?;
        }

        transport.stop_all()?;
        // Fold the transport's wire-path work (invisible to the engine)
        // into the stage profile alongside the engine's logical counters.
        let wire = transport.egress_stats();
        let mut metrics = engine.metrics().clone();
        metrics.stage.pool_hits += wire.pool_hits;
        metrics.stage.writev_batches += wire.writev_batches;
        metrics.stage.pool_outstanding += wire.pool_outstanding;
        metrics.stage.session_retransmits += wire.session.retransmits;
        metrics.stage.session_acks += wire.session.acks;
        metrics.stage.session_reconnects += wire.session.reconnects;
        metrics.stage.session_reaps += wire.session.reaps;
        metrics.stage.session_sheds += wire.session.sheds;
        metrics.stage.exec_tasks = wire.drain_lanes;
        metrics.stage.exec_busy_nanos = wire.drain_nanos;
        Ok(ServerReport {
            metrics,
            committed_digest: engine.committed().map(|s| s.digest()),
            bytes_out,
        })
    }

    /// Drive `engine` with `workload` over `transport`: submit one action
    /// per move period, apply whatever arrives in between, drain, say
    /// goodbye, then linger relaying completions until the server stops the
    /// session. With [`NodeDriver::crash_after_moves`] set, the client
    /// aborts mid-workload instead — the transport's disposal signals the
    /// loss to the server, as a dead socket would.
    pub fn run_client<W, C, T>(
        &self,
        mut engine: C,
        workload: &mut dyn Workload<W>,
        transport: &mut T,
    ) -> Result<ClientReport, T::Error>
    where
        W: GameWorld,
        C: ClientNode<W>,
        T: ClientTransport<C::Up, C::Down>,
    {
        let clock = WallClock::new();
        let id = engine.id();
        let mut mover = MoveTimer::new(clock.now(), to_sim(self.move_period), self.moves);
        let mut out: Vec<C::Up> = Vec::new();
        let mut bytes_out = 0u64;
        let mut crashed = false;

        // Phase 1: the workload. The move timer is checked explicitly
        // before blocking on the transport, so a steady stream of inbound
        // batches can never starve submissions.
        'workload: while let Some(deadline) = mover.next_deadline() {
            let now = clock.now();
            if now >= deadline {
                let seq = engine.next_seq();
                if let Some(action) =
                    workload.next_action(id, seq, engine.optimistic(), now.as_ms())
                {
                    out.clear();
                    engine.submit(now, action, &mut out);
                    for m in out.drain(..) {
                        bytes_out += transport.send(m)?;
                    }
                }
                mover.advance(now);
                if self.crash_after_moves.is_some_and(|k| mover.fired() >= k) {
                    crashed = true;
                    break 'workload;
                }
                if let Some((k, span)) = self.partition_after_moves {
                    if mover.fired() == k {
                        transport.partition(span)?;
                    }
                }
                continue;
            }
            match transport.recv(clock.wait_until(deadline))? {
                ClientEvent::Msg(msg) => {
                    out.clear();
                    engine.deliver(clock.now(), msg, &mut out);
                    for m in out.drain(..) {
                        bytes_out += transport.send(m)?;
                    }
                }
                ClientEvent::Stop | ClientEvent::Closed => break 'workload,
                ClientEvent::Timeout => {}
            }
        }

        if !crashed {
            // Phase 2: drain until our pending queue empties (or we give
            // up).
            let drain_deadline = clock.now() + to_sim(self.move_period * 10 + self.drain_grace);
            'drain: while engine.pending_len() > 0 && clock.now() < drain_deadline {
                match transport.recv(Duration::from_millis(50))? {
                    ClientEvent::Msg(msg) => {
                        out.clear();
                        engine.deliver(clock.now(), msg, &mut out);
                        for m in out.drain(..) {
                            bytes_out += transport.send(m)?;
                        }
                    }
                    ClientEvent::Stop | ClientEvent::Closed => break 'drain,
                    ClientEvent::Timeout => {}
                }
            }

            bytes_out += transport.finish()?;

            // Phase 3: keep applying traffic until the server stops us —
            // other clients may still need our completions.
            'linger: loop {
                match transport.recv(self.linger)? {
                    ClientEvent::Msg(msg) => {
                        out.clear();
                        engine.deliver(clock.now(), msg, &mut out);
                        for m in out.drain(..) {
                            bytes_out += transport.send(m)?;
                        }
                    }
                    ClientEvent::Stop | ClientEvent::Closed | ClientEvent::Timeout => break 'linger,
                }
            }
        }

        let stable_digest = engine.stable().digest();
        let metrics = std::mem::take(engine.metrics_mut());
        Ok(ClientReport {
            metrics,
            stable_digest,
            bytes_out,
            crashed,
            session: transport.session_stats(),
        })
    }
}
