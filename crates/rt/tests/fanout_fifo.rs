//! Per-client FIFO delivery under the egress fan-out.
//!
//! The replay contract requires that each client observe its messages in
//! the order the server emitted them. `fan_out` regroups each batch into
//! per-client lanes and drains them one after another, so these tests
//! hammer it with interleaved multi-client batches over real loopback
//! sockets and assert that every client reads its own stream back in exact
//! emission order — and that nothing is lost, duplicated, or
//! cross-delivered, also when a client stalls or vanishes.

use seve_core::engine::ShareId;
use seve_rt::frame::FrameReader;
use seve_rt::server::{fan_out, RtDown};
use seve_rt::wire::BufferPool;
use seve_world::ids::ClientId;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const CLIENTS: usize = 4;
const FLUSHES: u32 = 16;
const PER_CLIENT_PER_FLUSH: u32 = 8;

/// Tag a payload with its destination and emission sequence so the reader
/// can verify ordering and ownership from the payload alone.
fn payload(client: u16, seq: u32) -> u64 {
    (u64::from(client) << 32) | u64::from(seq)
}

#[test]
fn fan_out_preserves_per_client_fifo_order() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();

    // Connect one reader socket per client and accept the server ends in
    // connection order.
    let mut reader_handles = Vec::new();
    for c in 0..CLIENTS as u16 {
        let stream = TcpStream::connect(addr).expect("connect");
        reader_handles.push(std::thread::spawn(move || {
            let mut reader = FrameReader::new(stream);
            let mut seen: Vec<u64> = Vec::new();
            for _ in 0..(FLUSHES * PER_CLIENT_PER_FLUSH) {
                match reader.read_msg::<RtDown<u64>>().expect("read frame") {
                    RtDown::Msg(v) => seen.push(v),
                    RtDown::Stop => break,
                }
            }
            (c, seen)
        }));
    }
    let mut writers: Vec<Option<TcpStream>> = Vec::new();
    for _ in 0..CLIENTS {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        writers.push(Some(stream));
    }

    // Emit interleaved batches: every flush carries messages for all
    // clients, round-robin, while each client's sequence numbers strictly
    // ascend across flushes.
    let mut seqs = [0u32; CLIENTS];
    let mut total_bytes = 0u64;
    let mut pool = BufferPool::new();
    for _ in 0..FLUSHES {
        let mut out: Vec<(ClientId, u64)> = Vec::new();
        for round in 0..PER_CLIENT_PER_FLUSH {
            for c in 0..CLIENTS as u16 {
                // Vary the interleaving pattern between rounds.
                let c = (c + round as u16) % CLIENTS as u16;
                out.push((ClientId(c), payload(c, seqs[c as usize])));
                seqs[c as usize] += 1;
            }
        }
        let f = fan_out(&mut writers, &out, |_| None, &mut pool).expect("fan out");
        assert_eq!(f.lanes, CLIENTS as u64, "every client has a busy lane");
        total_bytes += f.bytes;
    }
    assert!(total_bytes > 0);
    // Frame buffers recycle across flushes: after warm-up every encode is
    // a pool hit (the steady state allocates nothing).
    assert!(pool.hits() > 0, "expected recycled encode buffers");
    drop(writers); // close the sockets so lagging readers fail loudly

    for h in reader_handles {
        let (c, seen) = h.join().expect("reader thread");
        assert_eq!(
            seen.len(),
            (FLUSHES * PER_CLIENT_PER_FLUSH) as usize,
            "client {c} lost or gained messages"
        );
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(
                *v,
                payload(c, i as u32),
                "client {c} message {i} out of order or misrouted"
            );
        }
    }
}

#[test]
fn fan_out_single_destination_stays_sequential_and_ordered() {
    // One busy lane among empty and unseated ones (the common
    // solicited-reply case) must keep its order too.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).expect("connect");
    let (server_end, _) = listener.accept().expect("accept");
    let mut writers = vec![Some(server_end), None, None];

    let out: Vec<(ClientId, u64)> = (0..32u64).map(|i| (ClientId(0), i)).collect();
    let mut pool = BufferPool::new();
    let f = fan_out(&mut writers, &out, |_| None, &mut pool).expect("fan out");
    assert_eq!(f.lanes, 1);
    drop(writers);

    let mut reader = FrameReader::new(client);
    for i in 0..32u64 {
        match reader.read_msg::<RtDown<u64>>().expect("read frame") {
            RtDown::Msg(v) => assert_eq!(v, i),
            RtDown::Stop => panic!("unexpected stop"),
        }
    }
}

/// Connect `n` loopback clients; returns (client ends, server writer
/// slots) in connection order.
fn connect(n: usize) -> (Vec<TcpStream>, Vec<Option<TcpStream>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let clients: Vec<TcpStream> = (0..n)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let writers = (0..n)
        .map(|_| Some(listener.accept().expect("accept").0))
        .collect();
    (clients, writers)
}

/// Read `count` frames from `stream` and check each payload.
fn expect_frames(stream: TcpStream, count: usize, check: impl Fn(usize, &[u8])) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reader = FrameReader::new(stream);
    for i in 0..count {
        match reader.read_msg::<RtDown<Vec<u8>>>().expect("read frame") {
            RtDown::Msg(v) => check(i, &v),
            RtDown::Stop => panic!("unexpected stop"),
        }
    }
}

#[test]
fn stalled_destination_delays_later_lanes_until_it_reads() {
    // Lanes drain on the calling thread in client-index order, so a
    // client that stops reading holds up every higher-index lane and the
    // caller until it reads again. We stall client 0 by not reading it and
    // shipping it far more bytes than loopback socket buffering absorbs,
    // then require that clients 1 and 2 see nothing and `fan_out` has not
    // returned; once client 0 drains, every client must hold all of its
    // frames in emission order.
    const STALL_FRAMES: usize = 8;
    const STALL_FRAME_BYTES: usize = 4 * 1024 * 1024;
    const SMALL_FRAMES: u8 = 3;

    let (mut clients, mut writers) = connect(3);
    let mut out: Vec<(ClientId, Vec<u8>)> = Vec::new();
    for _ in 0..STALL_FRAMES {
        out.push((ClientId(0), vec![0xCC; STALL_FRAME_BYTES]));
    }
    for seq in 0..SMALL_FRAMES {
        out.push((ClientId(1), vec![0x10 + seq; 64]));
        out.push((ClientId(2), vec![0x20 + seq; 64]));
    }

    let writer = std::thread::spawn(move || {
        let mut pool = BufferPool::new();
        let f = fan_out(&mut writers, &out, |_| None, &mut pool).expect("fan out");
        assert!(writers.iter().all(Option::is_some), "no lane unseated");
        f
    });

    // While client 0 is stalled, nothing reaches the later lanes.
    for c in &clients[1..] {
        c.set_read_timeout(Some(Duration::from_millis(300)))
            .expect("set timeout");
        let err = c.peek(&mut [0u8; 1]).expect_err("later lane written early");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected peek error {err}"
        );
    }
    assert!(
        !writer.is_finished(),
        "fan_out returned past a stalled lane"
    );

    // Unstall client 0; the fan-out finishes and the later lanes follow.
    let late: Vec<TcpStream> = clients.drain(1..).collect();
    expect_frames(clients.pop().unwrap(), STALL_FRAMES, |_, v| {
        assert_eq!(v.len(), STALL_FRAME_BYTES)
    });
    let f = writer.join().expect("fan-out thread");
    assert_eq!(f.lanes, 3);
    assert!(f.bytes as usize > STALL_FRAMES * STALL_FRAME_BYTES);
    for (tag, stream) in [0x10u8, 0x20].into_iter().zip(late) {
        expect_frames(stream, SMALL_FRAMES.into(), |i, v| {
            assert_eq!(v, vec![tag + i as u8; 64], "frame {i} lost or reordered")
        });
    }
}

#[test]
fn vanished_peer_is_unseated_without_error() {
    // A client whose socket is closed is a liveness event, not a transport
    // fault: its lane is unseated, `fan_out` returns `Ok`, and the other
    // lanes still drain in full.
    const DEAD_FRAMES: usize = 16;
    const DEAD_FRAME_BYTES: usize = 1024 * 1024;
    const LIVE_FRAMES: u8 = 4;

    let (mut clients, mut writers) = connect(2);
    drop(clients.remove(0));
    // Wait for the close to reach the server end, so the writes below
    // meet a peer that is already gone.
    let mut probe = writers[0].as_ref().unwrap().try_clone().expect("clone");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    assert_eq!(
        std::io::Read::read(&mut probe, &mut [0u8; 1]).expect("read EOF"),
        0
    );
    drop(probe);

    let mut out: Vec<(ClientId, Vec<u8>)> = Vec::new();
    for seq in 0..LIVE_FRAMES {
        out.push((ClientId(0), vec![0xDD; DEAD_FRAME_BYTES]));
        out.push((ClientId(1), vec![seq; 64]));
    }
    for _ in LIVE_FRAMES as usize..DEAD_FRAMES {
        out.push((ClientId(0), vec![0xDD; DEAD_FRAME_BYTES]));
    }
    let mut pool = BufferPool::new();
    let f = fan_out(&mut writers, &out, |_| None, &mut pool).expect("disconnect is not an error");
    assert!(writers[0].is_none(), "dead lane still seated");
    assert!(writers[1].is_some(), "live lane unseated");
    assert_eq!(f.lanes, 2);
    assert_eq!(pool.outstanding(), 0, "frame buffers recycled");

    expect_frames(clients.pop().unwrap(), LIVE_FRAMES.into(), |i, v| {
        assert_eq!(v, vec![i as u8; 64], "frame {i} lost or reordered")
    });
}

#[test]
fn shared_payloads_encode_once_and_reach_every_client() {
    // Broadcast semantics: N copies of the same logical message, keyed to
    // one ShareId, must produce one encode and N byte-identical frames.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut reader_handles = Vec::new();
    for c in 0..CLIENTS as u16 {
        let stream = TcpStream::connect(addr).expect("connect");
        reader_handles.push(std::thread::spawn(move || {
            let mut reader = FrameReader::new(stream);
            let v = match reader.read_msg::<RtDown<u64>>().expect("read frame") {
                RtDown::Msg(v) => v,
                RtDown::Stop => panic!("unexpected stop"),
            };
            (c, v)
        }));
    }
    let mut writers: Vec<Option<TcpStream>> = Vec::new();
    for _ in 0..CLIENTS {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        writers.push(Some(stream));
    }

    let out: Vec<(ClientId, u64)> = (0..CLIENTS as u16)
        .map(|c| (ClientId(c), 0xFEED_u64))
        .collect();
    let mut pool = BufferPool::new();
    fan_out(&mut writers, &out, |_| Some(ShareId::Gc(7)), &mut pool).expect("fan out");
    drop(writers);

    // One encode for the whole broadcast: exactly one buffer was drawn
    // from the (empty) pool, and it came back for reuse.
    assert_eq!(pool.misses(), 1, "broadcast should encode exactly once");
    for h in reader_handles {
        let (c, v) = h.join().expect("reader thread");
        assert_eq!(v, 0xFEED, "client {c} got the wrong payload");
    }
}
