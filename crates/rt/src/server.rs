//! The threaded TCP server host.
//!
//! Hosts any [`ServerNode`] engine — the exact state machines the
//! simulator drives — over real sockets. The socket machinery lives here
//! (accept + hello handshake, one reader thread per client feeding a
//! channel, framed fan-out back to the clients), packaged as a
//! [`TcpServerTransport`]; the engine loop itself — wall-clock tick (τ)
//! and push (ω·RTT) timers interleaved with message dispatch — is the
//! driver layer's [`NodeDriver::run_server`], shared with the in-process
//! backend.

use crate::frame::{encode_frame_into, write_msg, FrameError, FrameReader};
use crate::wire::BufferPool;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use seve_core::engine::{ServerNode, ShareId, ShareKey};
use seve_driver::{
    session_token, EgressStats, NodeDriver, ServerEvent, ServerTransport, SessionParams, SessionUp,
    SupervisedServerTransport,
};
use seve_world::ids::ClientId;
use seve_world::GameWorld;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, IoSlice, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use seve_driver::ServerReport;

/// Client → server transport envelope.
#[derive(Serialize, Deserialize, Debug)]
pub enum RtUp<M> {
    /// Identify the connecting client.
    Hello {
        /// The client index.
        client: u16,
        /// Digest of the client's initial world state. Replicas built from
        /// different world parameters can never converge; the server
        /// rejects mismatches at the door instead of diverging silently.
        world_digest: u64,
        /// The session token (see [`session_token`]). Lets a reconnecting
        /// client reclaim its seat mid-run; a connection presenting the
        /// wrong token for an occupied seat is refused.
        token: u64,
    },
    /// A protocol message.
    Msg(M),
    /// The client has finished its workload and drained.
    Bye,
}

/// Server → client transport envelope.
#[derive(Serialize, Deserialize, Debug)]
pub enum RtDown<M> {
    /// A protocol message.
    Msg(M),
    /// Session over; the client may disconnect.
    Stop,
}

/// Borrowing encoder for [`RtDown::Msg`]: serializes byte-identically to
/// `RtDown::Msg(msg)` — same variant index, same payload — without moving
/// or cloning the message into the envelope. This is what lets the fan-out
/// encode each outbound message exactly once, straight from the engine's
/// batch slice.
struct RtDownMsgRef<'a, M>(&'a M);

impl<M: Serialize> Serialize for RtDownMsgRef<'_, M> {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_newtype_variant("RtDown", 0, "Msg", self.0)
    }
}

enum Inbound<M> {
    Msg(ClientId, M),
    /// Orderly goodbye.
    Done(ClientId),
    /// Connection lost without a goodbye (read error / EOF).
    Gone(ClientId),
}

/// Writer sockets shared between the transport (fan-out) and the acceptor
/// thread (seat installs and mid-run re-attaches).
type SharedWriters = Arc<Mutex<Vec<Option<TcpStream>>>>;

/// The server's side of a framed-TCP session: the merged inbound channel
/// the reader threads feed, plus one writer socket per seated client
/// (shared with the acceptor thread, which swaps sockets on resume).
/// Implements [`ServerTransport`] so [`NodeDriver::run_server`] can drive
/// any engine over it.
pub struct TcpServerTransport<U, D> {
    rx: Receiver<Inbound<U>>,
    writers: SharedWriters,
    /// Recycled encode buffers: after warm-up, every frame encodes into a
    /// buffer from a previous batch instead of a fresh allocation.
    pool: BufferPool,
    /// Wire-path counters summed over every [`fan_out`] so far.
    drained: FanOut,
    _down: PhantomData<D>,
}

impl<U, D> TcpServerTransport<U, D> {
    fn new(rx: Receiver<Inbound<U>>, writers: SharedWriters) -> Self {
        TcpServerTransport {
            rx,
            writers,
            pool: BufferPool::new(),
            drained: FanOut::default(),
            _down: PhantomData,
        }
    }
}

impl<U, D: Serialize + ShareKey> ServerTransport<U, D> for TcpServerTransport<U, D> {
    type Error = FrameError;

    fn recv(&mut self, timeout: Duration) -> Result<ServerEvent<U>, FrameError> {
        Ok(match self.rx.recv_timeout(timeout) {
            Ok(Inbound::Msg(from, m)) => ServerEvent::Msg(from, m),
            Ok(Inbound::Done(c)) => ServerEvent::Done(c),
            Ok(Inbound::Gone(c)) => ServerEvent::Gone(c),
            Err(RecvTimeoutError::Timeout) => ServerEvent::Timeout,
            Err(RecvTimeoutError::Disconnected) => ServerEvent::Closed,
        })
    }

    fn send_batch(&mut self, out: &[(ClientId, D)]) -> Result<u64, FrameError> {
        let mut writers = self.writers.lock().expect("writer seats");
        let f = fan_out(&mut writers, out, D::share_key, &mut self.pool)?;
        self.drained.writev_batches += f.writev_batches;
        self.drained.lanes += f.lanes;
        self.drained.drain_nanos += f.drain_nanos;
        Ok(f.bytes)
    }

    fn stop_all(&mut self) -> Result<(), FrameError> {
        // Best effort: a client that already vanished is not an error.
        let mut writers = self.writers.lock().expect("writer seats");
        for w in writers.iter_mut().flatten() {
            let _ = write_msg(w, &RtDown::<D>::Stop);
        }
        Ok(())
    }

    fn release(&mut self, c: ClientId) -> Result<(), FrameError> {
        // Reap: retire the egress lane NOW. `shutdown(Both)` (not just a
        // drop) also unblocks the client's reader thread mid-`read`, so a
        // crashed client can no longer strand its session — its lane, its
        // pooled frames, and its reader all release here.
        let mut writers = self.writers.lock().expect("writer seats");
        if let Some(s) = writers[c.index()].take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        Ok(())
    }

    fn egress_stats(&self) -> EgressStats {
        EgressStats {
            pool_hits: self.pool.hits(),
            pool_misses: self.pool.misses(),
            writev_batches: self.drained.writev_batches,
            pool_outstanding: self.pool.outstanding(),
            drain_lanes: self.drained.lanes,
            drain_nanos: self.drained.drain_nanos,
            ..EgressStats::default()
        }
    }
}

/// Handle to the background accept/handshake thread. It outlives the
/// initial seating round so clients that lose their connection mid-run can
/// reconnect and resume their session.
struct Acceptor {
    stop: Arc<AtomicBool>,
    writers: SharedWriters,
    handle: std::thread::JoinHandle<()>,
}

impl Acceptor {
    /// Stop accepting, retire every seated writer (`shutdown(Both)` also
    /// unblocks readers stuck in `read`), and join the acceptor thread —
    /// which joins its reader threads on the way out.
    fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        for w in self.writers.lock().expect("writer seats").iter_mut() {
            if let Some(s) = w.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let _ = self.handle.join();
    }
}

/// Spawn the accept/handshake thread for an `n`-seat session.
///
/// `tokens` selects the seating policy: `Some(per-seat tokens)` means a
/// supervised session — a connection presenting the right token may take
/// an *occupied* seat (mid-run resume; the stale socket is shut down and
/// its reader silenced via a generation counter) — while `None` means
/// plain sessions where an occupied seat refuses newcomers.
fn spawn_acceptor<U>(
    listener: TcpListener,
    n: usize,
    world_digest: u64,
    tokens: Option<Arc<Vec<u64>>>,
    tx: Sender<Inbound<U>>,
) -> io::Result<Acceptor>
where
    U: DeserializeOwned + Send + 'static,
{
    // Nonblocking accept so the thread can notice the stop flag; seated
    // streams are flipped back to blocking before the handshake.
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let writers: SharedWriters = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let gens: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let handle = {
        let stop = Arc::clone(&stop);
        let writers = Arc::clone(&writers);
        std::thread::spawn(move || {
            let mut readers = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let stream = match listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                };
                if let Ok(Some(r)) = seat_client::<U>(
                    stream,
                    n,
                    world_digest,
                    tokens.as_deref(),
                    &writers,
                    &gens,
                    &tx,
                ) {
                    readers.push(r);
                }
            }
            for r in readers {
                let _ = r.join();
            }
        })
    };
    Ok(Acceptor {
        stop,
        writers,
        handle,
    })
}

/// Handshake one freshly accepted connection and, if it checks out, seat
/// it: install its writer, bump the seat's generation, and spawn its
/// reader thread. Returns `Ok(None)` for rejected connections.
fn seat_client<U>(
    stream: TcpStream,
    n: usize,
    world_digest: u64,
    tokens: Option<&Vec<u64>>,
    writers: &SharedWriters,
    gens: &Arc<Vec<AtomicU64>>,
    tx: &Sender<Inbound<U>>,
) -> io::Result<Option<std::thread::JoinHandle<()>>>
where
    U: DeserializeOwned + Send + 'static,
{
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    // A peer that connects but never completes its hello must not wedge
    // the acceptor — bound the handshake read, then lift the bound for
    // the session proper.
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    let mut reader = FrameReader::new(stream.try_clone()?);
    // The first frame must identify the client.
    let Ok(RtUp::Hello {
        client,
        world_digest: theirs,
        token,
    }) = reader.read_msg::<RtUp<U>>()
    else {
        return Ok(None);
    };
    if theirs != world_digest {
        // Incompatible world build: replicas built from different world
        // parameters can never converge, so refuse at the door.
        eprintln!(
            "seve-rt: rejecting client {client}: world digest {theirs:x} != \
             ours {world_digest:x} (mismatched parameters?)"
        );
        return Ok(None);
    }
    if client as usize >= n {
        eprintln!("seve-rt: rejecting client {client}: id out of range (session has {n} seats)");
        return Ok(None);
    }
    match tokens {
        Some(tokens) => {
            if token != tokens[client as usize] {
                eprintln!("seve-rt: rejecting client {client}: bad session token");
                return Ok(None);
            }
        }
        None => {
            if writers.lock().expect("writer seats")[client as usize].is_some() {
                eprintln!("seve-rt: rejecting client {client}: seat already taken");
                return Ok(None);
            }
        }
    }
    stream.set_read_timeout(None)?;

    let id = ClientId(client);
    // Bump the seat generation BEFORE retiring the old socket, so the old
    // reader — woken by the shutdown — observes a newer generation and
    // stays quiet instead of reporting a spurious loss.
    let gen = gens[id.index()].fetch_add(1, Ordering::SeqCst) + 1;
    let old = writers.lock().expect("writer seats")[id.index()].replace(stream);
    if let Some(old) = old {
        let _ = old.shutdown(Shutdown::Both);
    }
    let tx = tx.clone();
    let gens = Arc::clone(gens);
    Ok(Some(std::thread::spawn(move || loop {
        match reader.read_msg::<RtUp<U>>() {
            Ok(RtUp::Msg(m)) => {
                if tx.send(Inbound::Msg(id, m)).is_err() {
                    break;
                }
            }
            Ok(RtUp::Bye) => {
                // Count the goodbye but keep reading: the client still
                // relays completions for tail actions it receives while
                // other clients finish (its phase 3). The thread ends
                // when the client closes the socket after Stop.
                let _ = tx.send(Inbound::Done(id));
            }
            Ok(RtUp::Hello { .. }) => {
                // Duplicate hello: ignore.
            }
            Err(_) => {
                // Only the connection currently holding the seat reports
                // the loss; a reader whose socket was replaced by a
                // resume stays quiet.
                if gens[id.index()].load(Ordering::SeqCst) == gen {
                    let _ = tx.send(Inbound::Gone(id));
                }
                break;
            }
        }
    })))
}

/// Block until every seat has a writer installed (the initial full house).
fn wait_for_full_house(writers: &SharedWriters) {
    loop {
        if writers
            .lock()
            .expect("writer seats")
            .iter()
            .all(Option::is_some)
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Accept `n` clients on `listener` and run `engine` until every client
/// says goodbye. `tick` and `push` are the wall-clock cycle periods (push
/// ignored when the engine does not push). `world_digest` is the digest of
/// the initial world state; clients presenting a different digest are
/// rejected (their replicas could never converge). Runs a supervised
/// session with [`SessionParams::default`]; see [`run_server_with`].
pub fn run_server<W, S>(
    engine: S,
    listener: TcpListener,
    n: usize,
    tick: Duration,
    push: Duration,
    world_digest: u64,
) -> Result<ServerReport, FrameError>
where
    W: GameWorld,
    S: ServerNode<W>,
    S::Up: DeserializeOwned + Send + 'static,
    S::Down: Serialize + ShareKey + Clone,
{
    run_server_with(
        engine,
        listener,
        n,
        tick,
        push,
        world_digest,
        SessionParams::default(),
    )
}

/// [`run_server`] with explicit [`SessionParams`].
///
/// When `session.supervised`, the TCP transport carries sequence-numbered
/// session envelopes and is wrapped in a [`SupervisedServerTransport`]:
/// down-lane frames are resent past the client's last cumulative ack on
/// RTO, crashed clients are reaped after the liveness deadline, and a
/// reconnecting client may reclaim its seat mid-run by presenting its
/// session token. With `session.supervised == false` the wire format is
/// the bare protocol messages, byte-identical to the pre-session host.
pub fn run_server_with<W, S>(
    engine: S,
    listener: TcpListener,
    n: usize,
    tick: Duration,
    push: Duration,
    world_digest: u64,
    session: SessionParams,
) -> Result<ServerReport, FrameError>
where
    W: GameWorld,
    S: ServerNode<W>,
    S::Up: DeserializeOwned + Send + 'static,
    S::Down: Serialize + ShareKey + Clone,
{
    let tick_driver = NodeDriver::server(tick, push);
    if session.supervised {
        let (tx, rx) = mpsc::channel::<Inbound<SessionUp<S::Up>>>();
        let tokens: Arc<Vec<u64>> = Arc::new(
            (0..n as u16)
                .map(|c| session_token(session.seed, ClientId(c)))
                .collect(),
        );
        let acceptor = spawn_acceptor(listener, n, world_digest, Some(tokens), tx.clone())?;
        wait_for_full_house(&acceptor.writers);
        let inner = TcpServerTransport::new(rx, Arc::clone(&acceptor.writers));
        let mut transport = SupervisedServerTransport::new(inner, n, session);
        let report = tick_driver.run_server(engine, &mut transport, n);
        drop(transport);
        drop(tx);
        acceptor.shutdown();
        report
    } else {
        let (tx, rx) = mpsc::channel::<Inbound<S::Up>>();
        let acceptor = spawn_acceptor(listener, n, world_digest, None, tx.clone())?;
        wait_for_full_house(&acceptor.writers);
        let mut transport = TcpServerTransport::new(rx, Arc::clone(&acceptor.writers));
        let report = tick_driver.run_server(engine, &mut transport, n);
        drop(transport);
        drop(tx);
        acceptor.shutdown();
        report
    }
}

/// Coalescing threshold: the most frames handed to one `write_vectored`
/// call. Past this the syscall savings are already banked and the iovec
/// itself starts costing.
const WRITEV_MAX_FRAMES: usize = 64;

/// Is this write error the peer being gone (as opposed to a local fault)?
/// A vanished peer is a liveness event for the supervision layer, not a
/// fatal transport error: the lane is unseated and the tick goes on.
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WriteZero
    )
}

/// What one [`fan_out`] call put on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FanOut {
    /// Bytes written across every lane.
    pub bytes: u64,
    /// Vectored-write batches (syscalls) issued.
    pub writev_batches: u64,
    /// Client lanes that had frames to drain.
    pub lanes: u64,
    /// Wall-clock nanoseconds spent in the drain phase.
    pub drain_nanos: u64,
}

/// Write one engine step's outbound batch to the client sockets.
///
/// The encode-once egress stage of the real-time host, in two phases:
///
/// 1. **Encode.** Each message is framed exactly once into a buffer from
///    `pool` (length prefix back-patched — see
///    [`crate::frame::encode_frame_into`]). Messages whose `share_key`
///    matches an earlier message in the same batch — broadcast payloads
///    like GC notices and shared-span batches — reuse the earlier frame
///    (its index) instead of re-encoding; `share_key` returning `None`
///    always encodes individually. Frame boundaries on the wire are one
///    frame per message, identical to the per-message `write_msg` path.
/// 2. **Drain.** Each busy destination's ordered frame list is written on
///    the calling thread, in client-index order, through `write_vectored`
///    in chunks of up to [`WRITEV_MAX_FRAMES`] frames. Successive
///    `fan_out` calls are sequential, so per-client FIFO delivery (the
///    ordering contract the replay log depends on) is preserved. A
///    destination that stops reading blocks the call in its `write`, and
///    with it every later lane, until it reads again.
///
/// Afterwards every frame buffer returns to `pool`, so the steady state
/// allocates nothing.
pub fn fan_out<M: Serialize>(
    writers: &mut [Option<TcpStream>],
    out: &[(ClientId, M)],
    share_key: impl Fn(&M) -> Option<ShareId>,
    pool: &mut BufferPool,
) -> Result<FanOut, FrameError> {
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(out.len());
    let result = encode_and_drain(writers, out, share_key, pool, &mut frames);
    // Recycle unconditionally — also when encode or drain bailed early —
    // so buffers taken this batch are never leaked and the pool's miss
    // counter stays truthful on the next one.
    for buf in frames {
        pool.put(buf);
    }
    result
}

/// [`fan_out`]'s encode + drain phases, with the frame list owned by the
/// caller so it can recycle it on both the `Ok` and `Err` paths.
fn encode_and_drain<M: Serialize>(
    writers: &mut [Option<TcpStream>],
    out: &[(ClientId, M)],
    share_key: impl Fn(&M) -> Option<ShareId>,
    pool: &mut BufferPool,
    frames: &mut Vec<Vec<u8>>,
) -> Result<FanOut, FrameError> {
    // Phase 1: encode each distinct frame once; build per-lane lists of
    // frame indices (order preserved within each lane).
    let mut lanes: Vec<Vec<usize>> = (0..writers.len()).map(|_| Vec::new()).collect();
    let mut cache: HashMap<ShareId, usize> = HashMap::new();
    for (dest, msg) in out {
        if writers[dest.index()].is_none() {
            continue;
        }
        let mut encode = || -> Result<usize, FrameError> {
            let mut buf = pool.take();
            if let Err(e) = encode_frame_into(&RtDownMsgRef(msg), &mut buf) {
                // Hand the partially-written buffer straight back so a
                // failed encode doesn't count as a leaked allocation.
                pool.put(buf);
                return Err(e);
            }
            frames.push(buf);
            Ok(frames.len() - 1)
        };
        let frame = match share_key(msg) {
            Some(k) => match cache.entry(k) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(v) => *v.insert(encode()?),
            },
            None => encode()?,
        };
        lanes[dest.index()].push(frame);
    }

    // Phase 2: drain each busy lane. A lane whose peer vanished mid-write
    // is unseated (its writer taken and shut down), never fatal: the
    // supervised layer still holds the frames in its resend window and
    // will retransmit once the client resumes — or reap the lane at the
    // liveness deadline.
    let started = Instant::now();
    let mut stats = FanOut::default();
    for (w, lane) in writers.iter_mut().zip(&lanes) {
        let Some(sock) = w.as_mut().filter(|_| !lane.is_empty()) else {
            continue;
        };
        let (bytes, batches, gone) = drain_lane(sock, frames, lane)?;
        stats.bytes += bytes;
        stats.writev_batches += batches;
        stats.lanes += 1;
        if gone {
            if let Some(s) = w.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
    stats.drain_nanos = started.elapsed().as_nanos() as u64;
    Ok(stats)
}

/// Drain one client's ordered lane (indices into `frames`) through
/// vectored writes, chunked at [`WRITEV_MAX_FRAMES`]; partial writes
/// re-slice from the first unwritten byte. Returns `(bytes written, write
/// batches issued, peer gone)` — a disconnect ends the lane quietly (see
/// [`is_disconnect`]); only local faults surface as errors.
fn drain_lane(
    w: &mut TcpStream,
    frames: &[Vec<u8>],
    lane: &[usize],
) -> Result<(u64, u64, bool), FrameError> {
    let mut bytes = 0u64;
    let mut batches = 0u64;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(lane.len().min(WRITEV_MAX_FRAMES));
    for chunk in lane.chunks(WRITEV_MAX_FRAMES) {
        let total: usize = chunk.iter().map(|&f| frames[f].len()).sum();
        // (chunk position, byte offset) of the first unwritten byte.
        let mut at = (0usize, 0usize);
        let mut written = 0usize;
        while written < total {
            slices.clear();
            slices.push(IoSlice::new(&frames[chunk[at.0]][at.1..]));
            for &f in &chunk[at.0 + 1..] {
                slices.push(IoSlice::new(&frames[f]));
            }
            let n = match w.write_vectored(&slices) {
                Ok(0) => return Ok((bytes, batches, true)),
                Ok(n) => n,
                Err(e) if is_disconnect(&e) => return Ok((bytes, batches, true)),
                Err(e) => return Err(FrameError::Io(e)),
            };
            batches += 1;
            written += n;
            // Advance (position, offset) past the bytes just written.
            let mut rem = n;
            while rem > 0 {
                let avail = frames[chunk[at.0]].len() - at.1;
                if rem >= avail {
                    rem -= avail;
                    at = (at.0 + 1, 0);
                } else {
                    at.1 += rem;
                    rem = 0;
                }
            }
        }
        bytes += total as u64;
    }
    match w.flush() {
        Ok(()) => Ok((bytes, batches, false)),
        Err(e) if is_disconnect(&e) => Ok((bytes, batches, true)),
        Err(e) => Err(FrameError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    #[test]
    fn borrowed_envelope_encodes_like_the_owned_variant() {
        let msg = ("payload".to_string(), vec![1u64, 2, 3]);
        let owned = wire::to_bytes(&RtDown::Msg(msg.clone())).unwrap();
        let borrowed = wire::to_bytes(&RtDownMsgRef(&msg)).unwrap();
        assert_eq!(owned, borrowed);
    }
}
