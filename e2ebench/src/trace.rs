//! Spans and timing decorators, applied from outside the library.
//!
//! Each decorator wraps one public trait the session already accepts
//! (`ProtocolSuite`, `ClientNode`, `ServerNode`, `Workload`,
//! `ClientTransport`) and records a span around every call into the layer
//! behind it. Spans live in a per-thread buffer: a thread hands its buffer
//! over with [`flush`] when its part of the session ends, and the benchmark
//! writes every span out when it exits. Self time is computed as spans
//! close: a span's duration minus the part its child spans cover.
//!
//! Untraced runs never construct a decorator, so they run the plain
//! engines.

use seve::core::engine::{ClientNode, ProtocolSuite, ServerNode};
use seve::core::metrics::{ClientMetrics, ServerMetrics};
use seve::driver::{ClientEvent, ClientTransport, SessionStats};
use seve::net::time::{SimDuration, SimTime};
use seve::world::ids::ClientId;
use seve::world::state::WorldState;
use seve::world::worlds::Workload;
use seve::world::GameWorld;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One closed span. `id` numbers the thread's spans in opening order;
/// `parent` is the id of the span that was open around it (`u32::MAX` for
/// a root span).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
}

/// Every span one thread recorded, in closing order.
pub struct ThreadSpans {
    pub thread: String,
    pub spans: Vec<Span>,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    id: u32,
}

#[derive(Default)]
struct Local {
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static FLUSHED: Mutex<Vec<ThreadSpans>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open a span; it closes when the guard drops.
pub fn span(name: &'static str) -> Guard {
    let start_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let id = l.next_id;
        l.next_id += 1;
        l.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            id,
        });
    });
    Guard
}

/// Closes the innermost open span of this thread on drop.
pub struct Guard;

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // Every guard was pushed by `span` on this thread, so the stack
            // is never empty here; a drop must not panic regardless.
            let Some(open) = l.stack.pop() else {
                return;
            };
            let dur = end_ns.saturating_sub(open.start_ns);
            let parent = match l.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.id
                }
                None => u32::MAX,
            };
            l.spans.push(Span {
                name: open.name,
                id: open.id,
                parent,
                start_ns: open.start_ns,
                end_ns,
                self_ns: dur.saturating_sub(open.child_ns),
            });
        });
    }
}

/// Hand this thread's closed spans to the collector. Call once the
/// thread's share of the session is over.
pub fn flush(thread: &str) {
    let spans = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        assert!(l.stack.is_empty(), "flush with open spans");
        std::mem::take(&mut l.spans)
    });
    FLUSHED
        .lock()
        .expect("span collector poisoned by a panicked thread")
        .push(ThreadSpans {
            thread: thread.to_string(),
            spans,
        });
}

/// Take every span flushed so far (one session's worth).
pub fn take() -> Vec<ThreadSpans> {
    std::mem::take(
        &mut *FLUSHED
            .lock()
            .expect("span collector poisoned by a panicked thread"),
    )
}

/// Totals per span name over every thread.
pub fn aggregate(threads: &[ThreadSpans]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for t in threads {
        for s in &t.spans {
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.total_ns += s.end_ns - s.start_ns;
            a.self_ns += s.self_ns;
        }
    }
    out
}

// ---------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------

/// A suite whose engines are wrapped in [`TracedClient`]/[`TracedServer`].
/// Engine construction is itself a span (`setup.build`), so a session can
/// tell set-up apart from the run.
pub struct TracedSuite<P>(pub P);

impl<W: GameWorld, P: ProtocolSuite<W>> ProtocolSuite<W> for TracedSuite<P> {
    type Up = P::Up;
    type Down = P::Down;
    type Client = TracedClient<P::Client>;
    type Server = TracedServer<P::Server>;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn build(&self, world: Arc<W>) -> (Self::Server, Vec<Self::Client>) {
        let _s = span("setup.build");
        let (server, clients) = self.0.build(world);
        (
            TracedServer(server),
            clients.into_iter().map(TracedClient).collect(),
        )
    }
}

/// Client engine decorator: `core.client.submit` / `core.client.deliver`.
pub struct TracedClient<C>(pub C);

impl<W: GameWorld, C: ClientNode<W>> ClientNode<W> for TracedClient<C> {
    type Up = C::Up;
    type Down = C::Down;

    fn id(&self) -> ClientId {
        self.0.id()
    }
    fn next_seq(&self) -> u32 {
        self.0.next_seq()
    }
    fn optimistic(&self) -> &WorldState {
        self.0.optimistic()
    }
    fn stable(&self) -> &WorldState {
        self.0.stable()
    }
    fn submit(&mut self, now: SimTime, action: W::Action, out: &mut Vec<Self::Up>) -> u64 {
        let _s = span("core.client.submit");
        self.0.submit(now, action, out)
    }
    fn deliver(&mut self, now: SimTime, msg: Self::Down, out: &mut Vec<Self::Up>) -> u64 {
        let _s = span("core.client.deliver");
        self.0.deliver(now, msg, out)
    }
    fn metrics_mut(&mut self) -> &mut ClientMetrics {
        self.0.metrics_mut()
    }
    fn metrics(&self) -> &ClientMetrics {
        self.0.metrics()
    }
    fn pending_len(&self) -> usize {
        self.0.pending_len()
    }
}

/// Server engine decorator: `core.server.{deliver,tick,push}`.
pub struct TracedServer<S>(pub S);

impl<W: GameWorld, S: ServerNode<W>> ServerNode<W> for TracedServer<S> {
    type Up = S::Up;
    type Down = S::Down;

    fn deliver(
        &mut self,
        now: SimTime,
        from: ClientId,
        msg: Self::Up,
        out: &mut Vec<(ClientId, Self::Down)>,
    ) -> u64 {
        let _s = span("core.server.deliver");
        self.0.deliver(now, from, msg, out)
    }
    fn tick(&mut self, now: SimTime, out: &mut Vec<(ClientId, Self::Down)>) -> u64 {
        let _s = span("core.server.tick");
        self.0.tick(now, out)
    }
    fn push_tick(&mut self, now: SimTime, out: &mut Vec<(ClientId, Self::Down)>) -> u64 {
        let _s = span("core.server.push");
        self.0.push_tick(now, out)
    }
    fn push_period(&self) -> Option<SimDuration> {
        self.0.push_period()
    }
    fn metrics_mut(&mut self) -> &mut ServerMetrics {
        self.0.metrics_mut()
    }
    fn metrics(&self) -> &ServerMetrics {
        self.0.metrics()
    }
    fn committed(&self) -> Option<&WorldState> {
        self.0.committed()
    }
}

/// Workload decorator: `world.next_action`. With a move schedule it also
/// records how late each call came against its nominal due time (the
/// open-loop generator's lag).
pub struct TracedWorkload<L> {
    inner: L,
    schedule: Option<(Instant, Duration)>,
    calls: u32,
    lateness_ms: Vec<f64>,
}

impl<L> TracedWorkload<L> {
    pub fn new(inner: L) -> Self {
        Self {
            inner,
            schedule: None,
            calls: 0,
            lateness_ms: Vec::new(),
        }
    }

    /// Moves are due at `first + k · period` for the k-th call.
    pub fn with_schedule(mut self, first: Instant, period: Duration) -> Self {
        self.schedule = Some((first, period));
        self
    }

    pub fn lateness_ms(&self) -> &[f64] {
        &self.lateness_ms
    }
}

impl<W: GameWorld, L: Workload<W>> Workload<W> for TracedWorkload<L> {
    fn next_action(
        &mut self,
        client: ClientId,
        seq: u32,
        view: &WorldState,
        now_ms: u64,
    ) -> Option<W::Action> {
        if let Some((first, period)) = self.schedule {
            let due = first + period * self.calls;
            let late = Instant::now().saturating_duration_since(due);
            self.lateness_ms.push(late.as_secs_f64() * 1e3);
        }
        self.calls += 1;
        let _s = span("world.next_action");
        self.inner.next_action(client, seq, view, now_ms)
    }
}

/// Client transport decorator: one span per `send`/`recv`/`finish`, named
/// by the layer it wraps (`rt.client.*` around the socket transport,
/// `driver.session.client.*` around the supervised stack).
pub struct TracedTransport<T> {
    inner: T,
    names: &'static TransportSpans,
}

/// The span names one [`TracedTransport`] records.
pub struct TransportSpans {
    pub send: &'static str,
    pub recv: &'static str,
    pub other: &'static str,
}

pub const RT_CLIENT: TransportSpans = TransportSpans {
    send: "rt.client.send",
    recv: "rt.client.recv",
    other: "rt.client.other",
};

pub const SESSION_CLIENT: TransportSpans = TransportSpans {
    send: "driver.session.client.send",
    recv: "driver.session.client.recv",
    other: "driver.session.client.other",
};

impl<T> TracedTransport<T> {
    pub fn new(inner: T, names: &'static TransportSpans) -> Self {
        Self { inner, names }
    }
}

impl<U, D, T: ClientTransport<U, D>> ClientTransport<U, D> for TracedTransport<T> {
    type Error = T::Error;

    fn recv(&mut self, timeout: Duration) -> Result<ClientEvent<D>, T::Error> {
        let _s = span(self.names.recv);
        self.inner.recv(timeout)
    }
    fn send(&mut self, msg: U) -> Result<u64, T::Error> {
        let _s = span(self.names.send);
        self.inner.send(msg)
    }
    fn finish(&mut self) -> Result<u64, T::Error> {
        let _s = span(self.names.other);
        self.inner.finish()
    }
    fn reconnect(&mut self) -> Result<bool, T::Error> {
        let _s = span(self.names.other);
        self.inner.reconnect()
    }
    fn partition(&mut self, d: Duration) -> Result<(), T::Error> {
        let _s = span(self.names.other);
        self.inner.partition(d)
    }
    fn session_stats(&self) -> SessionStats {
        self.inner.session_stats()
    }
}
