//! Session supervision: the acked resume protocol, reconnect with backoff,
//! liveness reaping, and overload eviction.
//!
//! The protocol engines assume a reliable FIFO down-lane and clients that
//! say goodbye (the replay log reconciles *out-of-order item arrival*, not
//! transport loss). This module supplies that assumption on top of lossy or
//! interrupted substrates. The protocol lives once, in a pure sans-IO core
//! that takes events and a time (a [`Duration`] since session start) and
//! gives back frames to send and timer deadlines:
//!
//! * [`ServerSession`] — sequence-numbers every down-lane message, keeps
//!   each client's unacked window, trims it on cumulative acks, resends it
//!   go-back-N on RTO expiry, reaps lanes that exhaust their resends or
//!   stay detached past the liveness deadline, and answers
//!   [`SessionUp::Resume`] with exactly the frames the client missed.
//! * [`ClientSession`] — resequences the down lane (in-order delivery,
//!   duplicate suppression) and reports cumulative-ack advances; while its
//!   link is partitioned it loses down frames and buffers up messages, and
//!   at heal it produces the resume handshake plus the buffered traffic.
//!
//! Every substrate drives these two halves with one rule set. The
//! simulator calls them from its event loop ([`crate::sim`]); the threaded
//! backends wrap them in transport decorators that add only I/O glue:
//!
//! * [`SupervisedServerTransport`] — envelopes, releasing reaped lanes,
//!   synthetic goodbyes, and eviction of a client whose window passes
//!   [`SessionParams::ring`].
//! * [`SupervisedClientTransport`] — envelopes, idle heartbeats, and the
//!   reconnect under seeded exponential [`Backoff`] before resuming.
//!
//! Retransmitted bytes are wire-path overhead, not protocol traffic: they
//! are excluded from the threaded drivers' byte accounting (which therefore
//! stays comparable with a fault-free run) and surface in [`SessionStats`]
//! instead, which flows through the stage profile into every report.
//!
//! Fault-free sessions are pass-through: the envelopes cost zero extra
//! wire bytes (control frames are modelled as piggybacked), no retransmit
//! timers fire, and every counter except `acks` stays zero.

use crate::transport::{ClientEvent, ClientTransport, EgressStats, ServerEvent, ServerTransport};
use serde::{Deserialize, Serialize};
use seve_core::engine::{ShareKey, WireSize};
use seve_world::ids::ClientId;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// splitmix64, the same mixer the fault verdicts use: deterministic,
/// stream-independent draws from (seed, counter).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The session token a client presents when resuming: a pure function of
/// (session seed, client id), so both sides derive it independently and a
/// resume from the wrong peer (or the wrong session) is rejected.
pub fn session_token(seed: u64, id: ClientId) -> u64 {
    splitmix64(seed ^ 0x5E55_1014_u64.wrapping_mul(id.0 as u64 + 1)).max(1)
}

/// Exponential-backoff shape for the reconnect loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffParams {
    /// First delay.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Attempts before [`Backoff::next`] returns
    /// [`RetryBudgetExhausted`].
    pub budget: u32,
}

/// The vendored serde derive handles only plain field types, so the param
/// structs serialize through mirror structs carrying durations as
/// microsecond counts.
#[derive(Serialize, Deserialize)]
struct BackoffParamsWire {
    base_us: u64,
    cap_us: u64,
    budget: u32,
}

impl Serialize for BackoffParams {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        BackoffParamsWire {
            base_us: self.base.as_micros() as u64,
            cap_us: self.cap.as_micros() as u64,
            budget: self.budget,
        }
        .serialize(s)
    }
}

impl<'de> Deserialize<'de> for BackoffParams {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let w = BackoffParamsWire::deserialize(d)?;
        Ok(Self {
            base: Duration::from_micros(w.base_us),
            cap: Duration::from_micros(w.cap_us),
            budget: w.budget,
        })
    }
}

impl Default for BackoffParams {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(1),
            budget: 8,
        }
    }
}

/// The reconnect retry budget ran out. A typed, recoverable condition:
/// the supervised client maps it to [`ClientEvent::Closed`], never a
/// panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryBudgetExhausted {
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for RetryBudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "retry budget exhausted after {} attempts", self.attempts)
    }
}

impl std::error::Error for RetryBudgetExhausted {}

/// A seeded exponential-backoff schedule: `min(cap, base·2^k)` scaled by a
/// deterministic jitter factor in `[0.5, 1.0)`. Same seed, same schedule —
/// chaos runs replay exactly.
#[derive(Clone, Debug)]
pub struct Backoff {
    params: BackoffParams,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A schedule with `params`, jittered from `seed`.
    pub fn new(params: BackoffParams, seed: u64) -> Self {
        Self {
            params,
            seed,
            attempt: 0,
        }
    }

    /// The next delay, or the typed exhaustion error once the budget is
    /// spent. (Named to mirror a schedule, not `Iterator`: the error-on-
    /// exhaustion contract doesn't fit `Option`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Duration, RetryBudgetExhausted> {
        if self.attempt >= self.params.budget {
            return Err(RetryBudgetExhausted {
                attempts: self.attempt,
            });
        }
        let exp = self
            .params
            .base
            .saturating_mul(1u32 << self.attempt.min(20))
            .min(self.params.cap);
        let draw = splitmix64(self.seed ^ (self.attempt as u64 + 1));
        let jitter = 0.5 + 0.5 * ((draw >> 11) as f64 / (1u64 << 53) as f64);
        self.attempt += 1;
        Ok(exp.mul_f64(jitter))
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Start over (after a successful reconnect).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Knobs of the supervision layer; embedded in every backend's config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionParams {
    /// Supervise at all? `false` restores the PR-5 detection-only
    /// behaviour (faults surface as divergence, crashes as lost seats).
    pub supervised: bool,
    /// Unacked-window high-water mark per client: the threaded supervisors
    /// evict a client whose window passes it, so one stuck peer cannot pin
    /// server memory.
    pub ring: usize,
    /// Retransmit timeout: the oldest unacked frame older than this
    /// triggers a go-back-N retransmission of the window.
    pub rto: Duration,
    /// Go-back-N resends a window gets without progress: after `give_up`
    /// of them the next RTO expiry declares the lane unreachable and reaps
    /// it. Progress (an ack advance or a resume) restarts the count.
    pub give_up: u32,
    /// Client-side idle heartbeat period.
    pub heartbeat: Duration,
    /// How long a detached client (lost connection, no resume) keeps its
    /// lane before the server reaps it.
    pub liveness: Duration,
    /// Reconnect backoff shape.
    pub backoff: BackoffParams,
    /// Session seed: derives the per-client tokens and the backoff jitter.
    pub seed: u64,
}

/// Serde mirror of [`SessionParams`] (see [`BackoffParamsWire`]).
#[derive(Serialize, Deserialize)]
struct SessionParamsWire {
    supervised: bool,
    ring: usize,
    rto_us: u64,
    give_up: u32,
    heartbeat_us: u64,
    liveness_us: u64,
    backoff: BackoffParams,
    seed: u64,
}

impl Serialize for SessionParams {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        SessionParamsWire {
            supervised: self.supervised,
            ring: self.ring,
            rto_us: self.rto.as_micros() as u64,
            give_up: self.give_up,
            heartbeat_us: self.heartbeat.as_micros() as u64,
            liveness_us: self.liveness.as_micros() as u64,
            backoff: self.backoff,
            seed: self.seed,
        }
        .serialize(s)
    }
}

impl<'de> Deserialize<'de> for SessionParams {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let w = SessionParamsWire::deserialize(d)?;
        Ok(Self {
            supervised: w.supervised,
            ring: w.ring,
            rto: Duration::from_micros(w.rto_us),
            give_up: w.give_up,
            heartbeat: Duration::from_micros(w.heartbeat_us),
            liveness: Duration::from_micros(w.liveness_us),
            backoff: w.backoff,
            seed: w.seed,
        })
    }
}

impl Default for SessionParams {
    fn default() -> Self {
        Self {
            supervised: true,
            ring: 1024,
            rto: Duration::from_millis(200),
            give_up: 16,
            heartbeat: Duration::from_secs(1),
            liveness: Duration::from_secs(3),
            backoff: BackoffParams::default(),
            seed: 0x005E_5510,
        }
    }
}

impl SessionParams {
    /// Detection-only parameters (the unsupervised PR-5 envelope).
    pub fn unsupervised() -> Self {
        Self {
            supervised: false,
            ..Self::default()
        }
    }

    /// Parameters scaled for fast tests: short RTO, short liveness.
    pub fn fast() -> Self {
        Self {
            rto: Duration::from_millis(40),
            liveness: Duration::from_millis(600),
            heartbeat: Duration::from_millis(200),
            backoff: BackoffParams {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(100),
                budget: 8,
            },
            ..Self::default()
        }
    }
}

/// Counters of everything the supervision layer did. All-zero (except
/// `acks`) on a clean run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames retransmitted (RTO expiry or resume catch-up).
    pub retransmits: u64,
    /// Cumulative-ack advances (acks that trimmed a window).
    pub acks: u64,
    /// Resume handshakes completed (client: heals; server: resumes
    /// accepted).
    pub reconnects: u64,
    /// Lanes reaped: retries exhausted, liveness expired, or evicted.
    pub reaps: u64,
    /// Lanes evicted for passing the `ring` high-water mark.
    pub sheds: u64,
    /// Duplicate down-lane frames suppressed by the resequencer.
    pub dups_dropped: u64,
    /// Out-of-order frames parked in the reorder buffer.
    pub holds: u64,
}

impl SessionStats {
    /// The fault-coping counters — exactly zero on a clean run (acks and
    /// resequencer bookkeeping flow even without faults).
    pub fn coping(&self) -> u64 {
        self.retransmits + self.reconnects + self.reaps + self.sheds
    }

    /// Merge another side's counters in.
    pub fn absorb(&mut self, other: &SessionStats) {
        self.retransmits += other.retransmits;
        self.acks += other.acks;
        self.reconnects += other.reconnects;
        self.reaps += other.reaps;
        self.sheds += other.sheds;
        self.dups_dropped += other.dups_dropped;
        self.holds += other.holds;
    }
}

/// Client → server supervision envelope.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SessionUp<U> {
    /// A protocol message.
    Msg(U),
    /// Cumulative acknowledgement: every down-lane seq ≤ this arrived.
    Ack(u64),
    /// Resume after a reconnect: prove identity, report the last
    /// contiguous seq delivered, so the server retransmits the rest.
    Resume {
        /// The session token ([`session_token`]).
        token: u64,
        /// Last cumulatively acked down-lane sequence number.
        last_acked: u64,
    },
    /// Liveness signal while otherwise idle.
    Heartbeat,
}

/// Server → client supervision envelope: every protocol message carries a
/// per-client sequence number (1-based, contiguous).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SessionDown<D> {
    /// Sequenced protocol message.
    Seq(u64, D),
}

// Control frames are modelled as piggybacked on the substrate (a few bytes
// of header amortized into the existing frame overhead), so byte accounting
// stays identical across {sim, inproc, tcp} and with pre-supervision runs.
impl<U: WireSize> WireSize for SessionUp<U> {
    fn wire_bytes(&self) -> u32 {
        match self {
            SessionUp::Msg(u) => u.wire_bytes(),
            _ => 0,
        }
    }
}

impl<D: WireSize> WireSize for SessionDown<D> {
    fn wire_bytes(&self) -> u32 {
        match self {
            SessionDown::Seq(_, d) => d.wire_bytes(),
        }
    }
}

// Per-client sequence numbers make otherwise-identical payloads distinct on
// the wire, so sequenced frames never share an encoded buffer. An accepted
// trade-off: supervision targets lossy real links, encode-once fan-out
// still applies below the wrapper per frame sent.
impl<D> ShareKey for SessionDown<D> {}

/// One server lane's go-back-N state.
#[derive(Debug)]
struct Lane<D> {
    /// Sequence number the next frame gets (1-based).
    next_seq: u64,
    /// Highest cumulative ack processed.
    acked: u64,
    /// Sent-but-unacked frames: seqs `acked + 1 .. next_seq`, in order.
    window: VecDeque<D>,
    /// Go-back-N resends since the last progress.
    attempts: u32,
    /// When the RTO clock of the oldest unacked frame started.
    since: Duration,
    /// Liveness deadline of a lane whose connection was lost.
    detached_until: Option<Duration>,
    finished: bool,
    reaped: bool,
}

/// What one server-half step asks of its substrate.
#[derive(Debug)]
pub struct ServerOut<D> {
    /// Frames to transmit, in order.
    pub frames: Vec<(ClientId, SessionDown<D>)>,
    /// Lanes reaped by the step. The substrate releases each; `true` means
    /// the client never said goodbye, so its driver needs a synthetic one.
    pub reaped: Vec<(ClientId, bool)>,
}

impl<D> Default for ServerOut<D> {
    fn default() -> Self {
        Self {
            frames: Vec::new(),
            reaped: Vec::new(),
        }
    }
}

/// The server half of the session core: every client's lane, driven by
/// events and an injected time, with no I/O of its own.
#[derive(Debug)]
pub struct ServerSession<D> {
    params: SessionParams,
    lanes: Vec<Lane<D>>,
    stats: SessionStats,
}

impl<D: Clone> ServerSession<D> {
    /// Lanes for `n` client seats under `params`.
    pub fn new(n: usize, params: SessionParams) -> Self {
        Self {
            params,
            lanes: (0..n)
                .map(|_| Lane {
                    next_seq: 1,
                    acked: 0,
                    window: VecDeque::new(),
                    attempts: 0,
                    since: Duration::ZERO,
                    detached_until: None,
                    finished: false,
                    reaped: false,
                })
                .collect(),
            stats: SessionStats::default(),
        }
    }

    /// Sequence one protocol message for `c`: it joins the unacked window
    /// and comes back as the frame to transmit. `None` on a reaped lane —
    /// nothing is sent, nothing buffers.
    pub fn send(&mut self, now: Duration, c: ClientId, msg: D) -> Option<SessionDown<D>> {
        let lane = &mut self.lanes[c.index()];
        if lane.reaped {
            return None;
        }
        if lane.window.is_empty() {
            lane.since = now;
        }
        lane.window.push_back(msg.clone());
        let seq = lane.next_seq;
        lane.next_seq += 1;
        Some(SessionDown::Seq(seq, msg))
    }

    /// Process a cumulative ack from `c`: every seq ≤ `cum` arrived. An
    /// advance trims the window, restarts the RTO clock and the resend
    /// count, and counts as one ack; a stale or repeated ack is a no-op.
    pub fn ack(&mut self, now: Duration, c: ClientId, cum: u64) {
        let lane = &mut self.lanes[c.index()];
        // A peer cannot ack what was never sent.
        let cum = cum.min(lane.next_seq - 1);
        if lane.reaped || cum <= lane.acked {
            return;
        }
        lane.window.drain(..(cum - lane.acked) as usize);
        lane.acked = cum;
        lane.attempts = 0;
        lane.since = now;
        self.stats.acks += 1;
    }

    /// Handle one up-lane envelope from `c`; returns the protocol message
    /// for the engine, if it carried one. Any traffic re-attaches a
    /// detached lane; a reaped lane swallows everything. A resume with the
    /// right token acks `last_acked`, resets the resend count and queues
    /// the rest of the window in `out`.
    pub fn recv<U>(
        &mut self,
        now: Duration,
        c: ClientId,
        up: SessionUp<U>,
        out: &mut ServerOut<D>,
    ) -> Option<U> {
        let lane = &mut self.lanes[c.index()];
        if lane.reaped {
            return None;
        }
        lane.detached_until = None;
        match up {
            SessionUp::Msg(u) => return Some(u),
            SessionUp::Ack(cum) => self.ack(now, c, cum),
            SessionUp::Heartbeat => {}
            SessionUp::Resume { token, last_acked } => {
                if token == session_token(self.params.seed, c) {
                    self.ack(now, c, last_acked);
                    self.stats.reconnects += 1;
                    self.lanes[c.index()].attempts = 0;
                    self.resend(now, c, out);
                }
            }
        }
        None
    }

    /// The client said goodbye. `false` when the lane was already reaped or
    /// finished: the driver must not count the seat twice.
    pub fn finish(&mut self, c: ClientId) -> bool {
        let lane = &mut self.lanes[c.index()];
        let first = !lane.reaped && !lane.finished;
        lane.finished = true;
        first
    }

    /// The connection to `c` was lost abruptly: hold the lane for a resume
    /// until the liveness deadline, which is returned when newly set.
    pub fn detach(&mut self, now: Duration, c: ClientId) -> Option<Duration> {
        let lane = &mut self.lanes[c.index()];
        if lane.reaped || lane.finished || lane.detached_until.is_some() {
            return None;
        }
        let until = now + self.params.liveness;
        lane.detached_until = Some(until);
        Some(until)
    }

    /// Fire `c`'s due timers: a detached lane past its liveness deadline
    /// is reaped; on RTO expiry a lane that already had its `give_up`
    /// resends is reaped, any other resends its window (go-back-N).
    pub fn expire(&mut self, now: Duration, c: ClientId, out: &mut ServerOut<D>) {
        let lane = &mut self.lanes[c.index()];
        if lane.reaped {
            return;
        }
        if lane.detached_until.is_some_and(|t| now >= t) {
            self.reap(c, out);
        } else if !lane.window.is_empty() && now >= lane.since + self.params.rto {
            if lane.attempts >= self.params.give_up {
                self.reap(c, out);
            } else {
                lane.attempts += 1;
                self.resend(now, c, out);
            }
        }
    }

    /// [`ServerSession::expire`] on every lane.
    pub fn expire_all(&mut self, now: Duration, out: &mut ServerOut<D>) {
        for i in 0..self.lanes.len() {
            self.expire(now, ClientId(i as u16), out);
        }
    }

    /// When `c`'s RTO next expires; `None` while nothing is unacked.
    pub fn rto_deadline(&self, c: ClientId) -> Option<Duration> {
        let lane = &self.lanes[c.index()];
        (!lane.reaped && !lane.window.is_empty()).then(|| lane.since + self.params.rto)
    }

    /// Evict every client still in session whose unacked window passed
    /// the `ring` high-water mark.
    pub fn evict_overfull(&mut self, out: &mut ServerOut<D>) {
        for i in 0..self.lanes.len() {
            let lane = &self.lanes[i];
            if !lane.reaped && !lane.finished && lane.window.len() > self.params.ring {
                self.stats.sheds += 1;
                self.reap(ClientId(i as u16), out);
            }
        }
    }

    /// Has `c`'s lane been reaped?
    pub fn is_reaped(&self, c: ClientId) -> bool {
        self.lanes[c.index()].reaped
    }

    /// Frames sent to `c` and not yet acked.
    pub fn unacked(&self, c: ClientId) -> usize {
        self.lanes[c.index()].window.len()
    }

    /// Does any lane still hold unacked frames?
    pub fn in_flight(&self) -> bool {
        self.lanes.iter().any(|l| !l.window.is_empty())
    }

    /// Counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Queue every unacked frame on `c`'s lane and restart its RTO clock.
    fn resend(&mut self, now: Duration, c: ClientId, out: &mut ServerOut<D>) {
        let lane = &mut self.lanes[c.index()];
        lane.since = now;
        self.stats.retransmits += lane.window.len() as u64;
        let first = lane.acked + 1;
        out.frames.extend(
            (first..)
                .zip(&lane.window)
                .map(|(seq, d)| (c, SessionDown::Seq(seq, d.clone()))),
        );
    }

    fn reap(&mut self, c: ClientId, out: &mut ServerOut<D>) {
        let lane = &mut self.lanes[c.index()];
        lane.reaped = true;
        lane.window = VecDeque::new();
        self.stats.reaps += 1;
        out.reaped.push((c, !lane.finished));
    }
}

/// The client half of the session core: resequencing, cumulative acks, and
/// the partition/heal state of the link, with no I/O of its own.
#[derive(Debug)]
pub struct ClientSession<U, D> {
    token: u64,
    /// The next seq to deliver: every seq below it was delivered in order.
    next: u64,
    /// Frames that arrived ahead of a gap.
    held: BTreeMap<u64, D>,
    dark_until: Option<Duration>,
    buffered: Vec<U>,
    stats: SessionStats,
}

impl<U, D> ClientSession<U, D> {
    /// The client half for seat `id` of the session seeded `seed`.
    pub fn new(id: ClientId, seed: u64) -> Self {
        Self {
            token: session_token(seed, id),
            next: 1,
            held: BTreeMap::new(),
            dark_until: None,
            buffered: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// Accept one down frame in any order: `out` receives every message
    /// now deliverable, in sequence order, and the cumulative ack to send
    /// comes back when it advanced. A duplicate is suppressed but its ack
    /// repeated (a resend means the earlier ack may have been lost). While
    /// the link is dark the frame is lost (the server's window resends it
    /// after resume).
    pub fn accept(&mut self, now: Duration, seq: u64, msg: D, out: &mut Vec<D>) -> Option<u64> {
        if self.dark_until.is_some_and(|t| now < t) {
            return None;
        }
        if seq < self.next || self.held.contains_key(&seq) {
            self.stats.dups_dropped += 1;
            return Some(self.next - 1);
        }
        if seq > self.next {
            self.stats.holds += 1;
            self.held.insert(seq, msg);
            return None;
        }
        out.push(msg);
        self.next += 1;
        while let Some(m) = self.held.remove(&self.next) {
            out.push(m);
            self.next += 1;
        }
        Some(self.next - 1)
    }

    /// An up message to transmit now, or `None` when it was buffered
    /// because the link has not been healed yet.
    pub fn send(&mut self, msg: U) -> Option<U> {
        if self.dark_until.is_some() {
            self.buffered.push(msg);
            None
        } else {
            Some(msg)
        }
    }

    /// The link goes dark for `d` from `now`; returns when it heals.
    pub fn partition(&mut self, now: Duration, d: Duration) -> Duration {
        let until = now + d;
        self.dark_until = Some(until);
        until
    }

    /// When a partitioned link heals (`None` while connected).
    pub fn dark_until(&self) -> Option<Duration> {
        self.dark_until
    }

    /// The link is back: returns the resume handshake to send first, and
    /// moves the up messages buffered while dark into `out`, in order.
    pub fn resume(&mut self, out: &mut Vec<U>) -> SessionUp<U> {
        self.dark_until = None;
        self.stats.reconnects += 1;
        out.append(&mut self.buffered);
        SessionUp::Resume {
            token: self.token,
            last_acked: self.next - 1,
        }
    }

    /// Counters so far (reconnects and resequencing work).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

/// The server-side supervisor: wraps any [`ServerTransport`] carrying the
/// session envelopes and presents the plain protocol transport the
/// [`crate::node::NodeDriver`] expects. The protocol is the
/// [`ServerSession`]; this layer moves its frames, releases the lanes it
/// reaps, and evicts clients whose window passes `ring`.
pub struct SupervisedServerTransport<T, U, D> {
    inner: T,
    core: ServerSession<D>,
    rto: Duration,
    epoch: Instant,
    out: ServerOut<D>,
    batch: Vec<(ClientId, SessionDown<D>)>,
    ready: VecDeque<ServerEvent<U>>,
}

impl<T, U, D> SupervisedServerTransport<T, U, D>
where
    T: ServerTransport<SessionUp<U>, SessionDown<D>>,
    D: Clone,
{
    /// Supervise `inner` for `n` client seats under `params`.
    pub fn new(inner: T, n: usize, params: SessionParams) -> Self {
        Self {
            inner,
            core: ServerSession::new(n, params),
            rto: params.rto,
            epoch: Instant::now(),
            out: ServerOut::default(),
            batch: Vec::new(),
            ready: VecDeque::new(),
        }
    }

    /// Carry out what the core asked for: transmit its frames (resends,
    /// deliberately left out of the driver's byte totals), release reaped
    /// lanes, and queue the synthetic goodbye that keeps the driver's seat
    /// count converging.
    fn flush(&mut self) -> Result<(), T::Error> {
        if !self.out.frames.is_empty() {
            self.inner.send_batch(&self.out.frames)?;
            self.out.frames.clear();
        }
        for (c, goodbye) in self.out.reaped.drain(..) {
            self.inner.release(c)?;
            if goodbye {
                self.ready.push_back(ServerEvent::Done(c));
            }
        }
        Ok(())
    }

    /// Fire every lane's due timers (at least once per driver recv, i.e.
    /// at tick resolution).
    fn supervise(&mut self) -> Result<(), T::Error> {
        self.core.expire_all(self.epoch.elapsed(), &mut self.out);
        self.flush()
    }

    /// Feed one inbound envelope to the core; the protocol message, if any.
    fn handle(&mut self, c: ClientId, up: SessionUp<U>) -> Result<Option<U>, T::Error> {
        let u = self.core.recv(self.epoch.elapsed(), c, up, &mut self.out);
        self.flush()?;
        Ok(u)
    }
}

impl<T, U, D> ServerTransport<U, D> for SupervisedServerTransport<T, U, D>
where
    T: ServerTransport<SessionUp<U>, SessionDown<D>>,
    D: Clone,
{
    type Error = T::Error;

    fn recv(&mut self, timeout: Duration) -> Result<ServerEvent<U>, T::Error> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(e) = self.ready.pop_front() {
                return Ok(e);
            }
            self.supervise()?;
            if let Some(e) = self.ready.pop_front() {
                return Ok(e);
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.inner.recv(wait)? {
                ServerEvent::Msg(c, up) => {
                    if let Some(u) = self.handle(c, up)? {
                        return Ok(ServerEvent::Msg(c, u));
                    }
                }
                ServerEvent::Done(c) => {
                    if self.core.finish(c) {
                        return Ok(ServerEvent::Done(c));
                    }
                }
                // Abrupt loss: the core holds the lane open for a resume
                // until its liveness deadline.
                ServerEvent::Gone(c) => {
                    self.core.detach(self.epoch.elapsed(), c);
                }
                ServerEvent::Timeout => {
                    if Instant::now() >= deadline {
                        return Ok(ServerEvent::Timeout);
                    }
                }
                ServerEvent::Closed => return Ok(ServerEvent::Closed),
            }
        }
    }

    fn send_batch(&mut self, out: &[(ClientId, D)]) -> Result<u64, T::Error> {
        let now = self.epoch.elapsed();
        self.batch.clear();
        for (dest, d) in out {
            if let Some(frame) = self.core.send(now, *dest, d.clone()) {
                self.batch.push((*dest, frame));
            }
        }
        let bytes = self.inner.send_batch(&self.batch)?;
        // Overload: a window past its high-water mark means the client is
        // not draining what we send.
        self.core.evict_overfull(&mut self.out);
        self.flush()?;
        Ok(bytes)
    }

    fn stop_all(&mut self) -> Result<(), T::Error> {
        // Graceful close: give in-flight retransmissions a bounded window
        // to drain, so a drop right before shutdown is still recovered.
        let deadline = Instant::now() + self.rto * 2 + Duration::from_millis(500);
        while self.core.in_flight() && Instant::now() < deadline {
            self.supervise()?;
            match self.inner.recv(Duration::from_millis(10))? {
                // Engine traffic past the session end is dropped; acks and
                // resumes still count.
                ServerEvent::Msg(c, up) => {
                    self.handle(c, up)?;
                }
                ServerEvent::Done(c) => {
                    self.core.finish(c);
                }
                ServerEvent::Gone(c) => {
                    self.core.detach(self.epoch.elapsed(), c);
                }
                ServerEvent::Timeout => {}
                ServerEvent::Closed => break,
            }
        }
        self.inner.stop_all()
    }

    fn egress_stats(&self) -> EgressStats {
        let mut s = self.inner.egress_stats();
        s.session = self.core.stats();
        s
    }
}

/// The client-side supervisor: the [`ClientSession`] plus its I/O glue —
/// envelopes, idle heartbeats, and the reconnect under backoff that
/// precedes each resume.
pub struct SupervisedClientTransport<T, U, D> {
    inner: T,
    core: ClientSession<U, D>,
    heartbeat: Duration,
    backoff: Backoff,
    epoch: Instant,
    ready: VecDeque<D>,
    scratch: Vec<D>,
    last_send: Instant,
    dead: bool,
}

impl<T, U, D> SupervisedClientTransport<T, U, D>
where
    T: ClientTransport<SessionUp<U>, SessionDown<D>>,
{
    /// Supervise `inner` for client `id` under `params`.
    pub fn new(inner: T, id: ClientId, params: SessionParams) -> Self {
        let now = Instant::now();
        Self {
            inner,
            core: ClientSession::new(id, params.seed),
            heartbeat: params.heartbeat,
            backoff: Backoff::new(params.backoff, params.seed ^ session_token(params.seed, id)),
            epoch: now,
            ready: VecDeque::new(),
            scratch: Vec::new(),
            last_send: now,
            dead: false,
        }
    }

    /// If a partition has elapsed, reconnect the substrate under backoff,
    /// then resume the session from the last acked seq and flush the
    /// up-lane traffic buffered while the link was down.
    fn heal_if_due(&mut self) -> Result<(), T::Error> {
        let due = self
            .core
            .dark_until()
            .is_some_and(|t| self.epoch.elapsed() >= t);
        if self.dead || !due {
            return Ok(());
        }
        self.backoff.reset();
        while self.inner.reconnect().is_err() {
            match self.backoff.next() {
                Ok(delay) => std::thread::sleep(delay),
                Err(_exhausted) => {
                    // Typed give-up, not a panic: the session is over.
                    self.dead = true;
                    return Ok(());
                }
            }
        }
        let mut ups = Vec::new();
        let resume = self.core.resume(&mut ups);
        self.inner.send(resume)?;
        for m in ups {
            self.inner.send(SessionUp::Msg(m))?;
        }
        self.last_send = Instant::now();
        Ok(())
    }
}

impl<T, U, D> ClientTransport<U, D> for SupervisedClientTransport<T, U, D>
where
    T: ClientTransport<SessionUp<U>, SessionDown<D>>,
{
    type Error = T::Error;

    fn recv(&mut self, timeout: Duration) -> Result<ClientEvent<D>, T::Error> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(d) = self.ready.pop_front() {
                return Ok(ClientEvent::Msg(d));
            }
            self.heal_if_due()?;
            if self.dead {
                return Ok(ClientEvent::Closed);
            }
            let now = Instant::now();
            let mut wait = deadline.saturating_duration_since(now);
            if let Some(until) = self.core.dark_until() {
                wait = wait.min(until.saturating_sub(self.epoch.elapsed()));
            } else if now.duration_since(self.last_send) >= self.heartbeat {
                self.inner.send(SessionUp::Heartbeat)?;
                self.last_send = now;
            }
            match self.inner.recv(wait)? {
                ClientEvent::Msg(SessionDown::Seq(seq, d)) => {
                    let now = self.epoch.elapsed();
                    let acked = self.core.accept(now, seq, d, &mut self.scratch);
                    self.ready.extend(self.scratch.drain(..));
                    if let Some(cum) = acked {
                        self.inner.send(SessionUp::Ack(cum))?;
                        self.last_send = Instant::now();
                    }
                }
                ClientEvent::Stop => return Ok(ClientEvent::Stop),
                ClientEvent::Closed => {
                    if self.core.dark_until().is_none() {
                        return Ok(ClientEvent::Closed);
                    }
                    // The substrate connection died while the link is
                    // dark — expected (a TCP partition kills the socket).
                    // The heal path reconnects; meanwhile don't busy-spin
                    // on the dead channel.
                    std::thread::sleep(wait.min(Duration::from_millis(5)));
                    if Instant::now() >= deadline {
                        return Ok(ClientEvent::Timeout);
                    }
                }
                ClientEvent::Timeout => {
                    if Instant::now() >= deadline {
                        return Ok(ClientEvent::Timeout);
                    }
                }
            }
        }
    }

    fn send(&mut self, msg: U) -> Result<u64, T::Error> {
        self.heal_if_due()?;
        // While dark the message is held, modelled as zero wire bytes now
        // and sent (uncounted) at resume.
        let Some(msg) = self.core.send(msg) else {
            return Ok(0);
        };
        self.last_send = Instant::now();
        self.inner.send(SessionUp::Msg(msg))
    }

    fn finish(&mut self) -> Result<u64, T::Error> {
        self.heal_if_due()?;
        if self.dead {
            return Ok(0);
        }
        self.inner.finish()
    }

    fn reconnect(&mut self) -> Result<bool, T::Error> {
        self.inner.reconnect()
    }

    fn partition(&mut self, d: Duration) -> Result<(), T::Error> {
        self.core.partition(self.epoch.elapsed(), d);
        // Let the substrate realize the outage (a TCP transport drops the
        // connection so the server observes the loss; channels are no-ops).
        self.inner.partition(d)
    }

    fn session_stats(&self) -> SessionStats {
        self.core.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let p = BackoffParams {
            base: Duration::from_millis(50),
            cap: Duration::from_millis(400),
            budget: 6,
        };
        let run = |seed| {
            let mut b = Backoff::new(p, seed);
            std::iter::from_fn(|| b.next().ok()).collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same schedule");
        assert_ne!(a, run(8), "different seed, different jitter");
        assert_eq!(a.len(), 6, "budget bounds the schedule");
        for (k, d) in a.iter().enumerate() {
            let exp = Duration::from_millis(50)
                .saturating_mul(1 << k as u32)
                .min(Duration::from_millis(400));
            assert!(*d <= exp, "attempt {k}: {d:?} above nominal {exp:?}");
            assert!(*d >= exp / 2, "attempt {k}: {d:?} below half nominal");
        }
        // Later delays hit the cap region.
        assert!(a[5] >= Duration::from_millis(200));
    }

    #[test]
    fn backoff_exhaustion_is_a_typed_error_not_a_panic() {
        let mut b = Backoff::new(
            BackoffParams {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                budget: 2,
            },
            3,
        );
        assert!(b.next().is_ok());
        assert!(b.next().is_ok());
        let err = b.next().expect_err("budget spent");
        assert_eq!(err, RetryBudgetExhausted { attempts: 2 });
        assert_eq!(err.to_string(), "retry budget exhausted after 2 attempts");
        // Still exhausted, still no panic.
        assert!(b.next().is_err());
        b.reset();
        assert!(b.next().is_ok(), "reset restores the budget");
    }

    #[test]
    fn resequencer_reorders_dedups_and_acks_cumulatively() {
        let mut r: ClientSession<(), u32> = ClientSession::new(ClientId(0), 1);
        let mut out = Vec::new();
        let mut accept = |seq, msg, out: &mut Vec<u32>| r.accept(Duration::ZERO, seq, msg, out);
        assert_eq!(accept(2, 20, &mut out), None, "gap holds delivery");
        assert!(out.is_empty());
        assert_eq!(accept(1, 10, &mut out), Some(2), "cumulative ack");
        assert_eq!(out, vec![10, 20], "contiguous prefix released in order");
        out.clear();
        assert_eq!(
            accept(2, 20, &mut out),
            Some(2),
            "a duplicate repeats the ack"
        );
        assert_eq!(accept(1, 10, &mut out), Some(2));
        assert!(out.is_empty(), "duplicates suppressed");
        assert_eq!(accept(4, 40, &mut out), None);
        assert_eq!(accept(4, 40, &mut out), Some(2), "held duplicate too");
        assert_eq!(accept(3, 30, &mut out), Some(4));
        assert_eq!(out, vec![30, 40]);
        assert_eq!((r.stats().dups_dropped, r.stats().holds), (3, 2));
        assert!(r.held.is_empty());
    }

    #[test]
    fn tokens_are_per_client_and_nonzero() {
        let a = session_token(1, ClientId(0));
        let b = session_token(1, ClientId(1));
        let c = session_token(2, ClientId(0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, 0);
        assert_eq!(a, session_token(1, ClientId(0)), "pure function");
    }

    #[test]
    fn envelopes_cost_no_extra_wire_bytes() {
        struct Fixed;
        impl WireSize for Fixed {
            fn wire_bytes(&self) -> u32 {
                17
            }
        }
        assert_eq!(SessionUp::Msg(Fixed).wire_bytes(), 17);
        assert_eq!(SessionUp::<Fixed>::Ack(5).wire_bytes(), 0);
        assert_eq!(SessionUp::<Fixed>::Heartbeat.wire_bytes(), 0);
        assert_eq!(
            SessionUp::<Fixed>::Resume {
                token: 1,
                last_acked: 0
            }
            .wire_bytes(),
            0
        );
        assert_eq!(SessionDown::Seq(9, Fixed).wire_bytes(), 17);
        use seve_core::engine::ShareKey;
        assert_eq!(SessionDown::Seq(9, Fixed).share_key(), None);
    }

    const MS: Duration = Duration::from_millis(1);

    fn params(rto_ms: u64, give_up: u32) -> SessionParams {
        SessionParams {
            rto: MS * rto_ms as u32,
            give_up,
            ..SessionParams::default()
        }
    }

    fn seqs<D>(out: &ServerOut<D>) -> Vec<u64> {
        out.frames
            .iter()
            .map(|(_, SessionDown::Seq(s, _))| *s)
            .collect()
    }

    #[test]
    fn server_lane_tracks_acks_and_rto() {
        let c = ClientId(0);
        let mut s: ServerSession<u32> = ServerSession::new(1, params(10, 16));
        let t0 = Duration::ZERO;
        for (v, want) in [(10, 1), (20, 2), (30, 3)] {
            assert!(
                matches!(s.send(t0, c, v), Some(SessionDown::Seq(seq, m)) if seq == want && m == v)
            );
        }
        assert_eq!(s.unacked(c), 3);
        s.ack(t0, c, 2);
        assert_eq!(s.unacked(c), 1, "cumulative ack trims the prefix");
        assert_eq!(s.rto_deadline(c), Some(10 * MS), "clock restarted");
        let mut out = ServerOut::default();
        s.expire(9 * MS, c, &mut out);
        assert!(out.frames.is_empty(), "not due before the RTO");
        s.expire(11 * MS, c, &mut out);
        assert_eq!(seqs(&out), vec![3], "go-back-N resends the window");
        assert_eq!(s.rto_deadline(c), Some(21 * MS));
        s.ack(t0, c, 3);
        assert_eq!(s.unacked(c), 0);
        assert_eq!(s.rto_deadline(c), None, "an empty window has no timer");
        assert!(!s.in_flight());
        assert_eq!(s.stats().retransmits, 1);
    }

    #[test]
    fn give_up_resends_then_reaps_at_next_expiry() {
        let c = ClientId(0);
        let mut s: ServerSession<u32> = ServerSession::new(1, params(10, 3));
        s.send(Duration::ZERO, c, 7);
        let mut out = ServerOut::default();
        let mut bursts = 0;
        let mut t = Duration::ZERO;
        while !s.is_reaped(c) {
            t = s.rto_deadline(c).expect("an unacked frame keeps the timer");
            out.frames.clear();
            s.expire(t, c, &mut out);
            bursts += usize::from(!out.frames.is_empty());
        }
        assert_eq!(bursts, 3, "exactly give_up resends");
        assert_eq!(t, 40 * MS, "reaped at the expiry after the last resend");
        assert_eq!(
            out.reaped,
            vec![(c, true)],
            "no goodbye yet: synthesize one"
        );
        assert_eq!(s.stats().reaps, 1);
        assert_eq!(
            s.send(t, c, 8).map(|_| ()),
            None,
            "a reaped lane sends nothing"
        );
    }

    #[test]
    fn resume_resets_the_attempt_count() {
        let c = ClientId(0);
        let p = params(10, 2);
        let mut s: ServerSession<u32> = ServerSession::new(1, p);
        let mut out = ServerOut::default();
        s.send(Duration::ZERO, c, 1);
        s.send(Duration::ZERO, c, 2);
        s.expire(10 * MS, c, &mut out);
        s.expire(20 * MS, c, &mut out);
        // Both resends spent. A resume that brings no ack progress still
        // resends the window without spending an attempt...
        out.frames.clear();
        let resume = SessionUp::<()>::Resume {
            token: session_token(p.seed, c),
            last_acked: 0,
        };
        s.recv(25 * MS, c, resume, &mut out);
        assert_eq!(seqs(&out), vec![1, 2], "the frames past last_acked");
        assert_eq!(s.stats().reconnects, 1);
        // ...and the count restarts: two more resends before the reap.
        for t in [35, 45] {
            s.expire(t * MS, c, &mut out);
            assert!(!s.is_reaped(c), "resend at {t} ms");
        }
        s.expire(55 * MS, c, &mut out);
        assert!(s.is_reaped(c));
        // A resume with the wrong token is ignored.
        let mut s: ServerSession<u32> = ServerSession::new(1, p);
        s.send(Duration::ZERO, c, 1);
        let forged = SessionUp::<()>::Resume {
            token: session_token(p.seed ^ 1, c),
            last_acked: 1,
        };
        s.recv(MS, c, forged, &mut out);
        assert_eq!((s.unacked(c), s.stats().reconnects), (1, 0));
        // A resume acks what the client already has: only the rest comes.
        s.send(Duration::ZERO, c, 2);
        out.frames.clear();
        let resume = SessionUp::<()>::Resume {
            token: session_token(p.seed, c),
            last_acked: 1,
        };
        s.recv(2 * MS, c, resume, &mut out);
        assert_eq!(seqs(&out), vec![2], "exactly the frames past last_acked");
    }

    #[test]
    fn server_timers_run_through_a_client_partition() {
        // The server never sees the client's partition: its RTO keeps
        // resending into the dark link and spending attempts, the client
        // loses those frames, and the resume at heal catches it up.
        let c = ClientId(0);
        let p = params(10, 16);
        let mut s: ServerSession<u32> = ServerSession::new(1, p);
        let mut cl: ClientSession<(), u32> = ClientSession::new(c, p.seed);
        let mut out = ServerOut::default();
        let mut got = Vec::new();
        let heal = cl.partition(Duration::ZERO, 35 * MS);
        let Some(SessionDown::Seq(seq, m)) = s.send(Duration::ZERO, c, 5) else {
            unreachable!()
        };
        assert_eq!(cl.accept(MS, seq, m, &mut got), None, "lost in the dark");
        assert_eq!(cl.send(()), None, "up traffic buffers while dark");
        for t in [10, 20, 30] {
            s.expire(t * MS, c, &mut out);
        }
        for (_, SessionDown::Seq(seq, m)) in out.frames.drain(..) {
            assert_eq!(cl.accept(31 * MS, seq, m, &mut got), None);
        }
        assert_eq!(s.stats().retransmits, 3, "resends counted while dark");
        let mut ups = Vec::new();
        let resume = cl.resume(&mut ups);
        assert_eq!(heal, 35 * MS);
        assert_eq!(ups, vec![()], "the buffered up message flushes at heal");
        s.recv(heal, c, resume, &mut out);
        for (_, SessionDown::Seq(seq, m)) in out.frames.drain(..) {
            if let Some(cum) = cl.accept(heal, seq, m, &mut got) {
                s.ack(heal, c, cum);
            }
        }
        assert_eq!(got, vec![5]);
        assert!(!s.in_flight());
        assert_eq!(cl.stats().reconnects, 1);
    }

    #[test]
    fn acks_count_cumulative_advances_only() {
        let c = ClientId(0);
        let mut s: ServerSession<u32> = ServerSession::new(1, params(10, 16));
        let mut out = ServerOut::default();
        for v in 0..4 {
            s.send(Duration::ZERO, c, v);
        }
        for cum in [1, 1, 0, 3, 2, 99] {
            s.recv(MS, c, SessionUp::<()>::Ack(cum), &mut out);
        }
        assert_eq!(s.stats().acks, 3, "1, 3 and the clamped 99 advance");
        assert_eq!(s.unacked(c), 0);
        s.send(MS, c, 9);
        assert_eq!(s.unacked(c), 1, "an over-ack cannot pre-ack later frames");
    }

    #[test]
    fn eviction_reaps_only_lanes_past_the_ring() {
        let p = SessionParams {
            ring: 2,
            ..SessionParams::default()
        };
        let mut s: ServerSession<u32> = ServerSession::new(3, p);
        let mut out = ServerOut::default();
        for v in 0..3 {
            s.send(Duration::ZERO, ClientId(0), v);
            s.send(Duration::ZERO, ClientId(2), v);
        }
        s.send(Duration::ZERO, ClientId(1), 0);
        s.finish(ClientId(2));
        s.evict_overfull(&mut out);
        assert_eq!(
            out.reaped,
            vec![(ClientId(0), true)],
            "finished lanes are not evicted"
        );
        assert_eq!((s.stats().sheds, s.stats().reaps), (1, 1));
        assert!(!s.finish(ClientId(0)), "a reaped seat is not counted twice");
    }

    #[test]
    fn detached_lane_is_reaped_at_the_liveness_deadline() {
        let c = ClientId(0);
        let p = SessionParams::default();
        let mut s: ServerSession<u32> = ServerSession::new(1, p);
        let mut out = ServerOut::default();
        let until = s.detach(MS, c).expect("newly detached");
        assert_eq!(
            s.detach(2 * MS, c),
            None,
            "the first loss sets the deadline"
        );
        s.expire(until - MS, c, &mut out);
        assert!(!s.is_reaped(c));
        s.recv(2 * MS, c, SessionUp::<()>::Heartbeat, &mut out);
        s.expire(until, c, &mut out);
        assert!(!s.is_reaped(c), "traffic re-attaches the lane");
        let until = s.detach(3 * MS, c).expect("detached again");
        s.expire(until, c, &mut out);
        assert_eq!(out.reaped, vec![(c, true)]);
    }

    #[test]
    fn default_params_are_supervised() {
        let p = SessionParams::default();
        assert!(p.supervised);
        assert!(!SessionParams::unsupervised().supervised);
        assert!(SessionParams::fast().rto < p.rto);
        assert!(SessionParams::fast().supervised);
    }
}
