//! Model-based tests of the sans-IO session core.
//!
//! A [`ServerSession`] and a [`ClientSession`] exchange frames over a
//! modelled network that drops, duplicates and reorders down frames, loses
//! and reorders acks, and partitions the client's link, all under random
//! schedules. The reference model is in-order, exactly-once delivery of
//! everything the server sent: whatever the schedule, the client must
//! deliver a prefix of it, and once the network calms down, all of it.

use proptest::prelude::*;
use seve_driver::session::{
    ClientSession, ServerOut, ServerSession, SessionDown, SessionParams, SessionUp,
};
use seve_world::ids::ClientId;
use std::time::Duration;

const C: ClientId = ClientId(0);
const RTO_MS: u64 = 10;

#[derive(Clone, Debug)]
enum Op {
    /// The server sends the next message.
    Send,
    /// The client receives in-flight frame `pick`, leaving a copy behind
    /// when `dup` (duplication).
    Deliver { pick: usize, dup: bool },
    /// In-flight frame `pick` is lost.
    Drop { pick: usize },
    /// In-flight ack `pick` reaches the server, or is lost.
    Ack { pick: usize, lost: bool },
    /// Time passes; the server's timers fire.
    Tick { ms: u64 },
    /// The client's link goes dark.
    Partition { ms: u64 },
    /// A healed link resumes.
    Heal,
    /// The client sends an up message.
    Up,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, 0usize..64, any::<bool>()).prop_map(|(k, n, b)| match k {
        0 => Op::Send,
        1 => Op::Deliver { pick: n, dup: b },
        2 => Op::Drop { pick: n },
        3 => Op::Ack { pick: n, lost: b },
        4 => Op::Tick { ms: n as u64 % 25 },
        5 => Op::Partition { ms: n as u64 },
        6 => Op::Heal,
        _ => Op::Up,
    })
}

/// Both halves, the network between them, and the reference model.
struct World {
    now: Duration,
    server: ServerSession<u64>,
    client: ClientSession<u64, u64>,
    out: ServerOut<u64>,
    /// Down frames in flight.
    down: Vec<(u64, u64)>,
    /// Cumulative acks in flight.
    acks: Vec<u64>,
    /// Messages the server sent, which is also the next value.
    sent: u64,
    /// Highest cumulative ack the server processed.
    acked: u64,
    /// What the client delivered, in order.
    got: Vec<u64>,
    /// Up messages submitted, and those that crossed the wire, in order.
    ups: u64,
    ups_sent: Vec<u64>,
}

impl World {
    fn new() -> Self {
        let params = SessionParams {
            rto: Duration::from_millis(RTO_MS),
            // The reference model is full delivery: never give up.
            give_up: u32::MAX,
            ..SessionParams::default()
        };
        Self {
            now: Duration::ZERO,
            server: ServerSession::new(1, params),
            client: ClientSession::new(C, params.seed),
            out: ServerOut::default(),
            down: Vec::new(),
            acks: Vec::new(),
            sent: 0,
            acked: 0,
            got: Vec::new(),
            ups: 0,
            ups_sent: Vec::new(),
        }
    }

    /// Put the frames the server asked for on the network.
    fn drain_out(&mut self) {
        for (_, SessionDown::Seq(seq, m)) in self.out.frames.drain(..) {
            self.down.push((seq, m));
        }
        assert!(
            self.out.reaped.is_empty(),
            "nothing is reaped without give-up"
        );
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Send => {
                let SessionDown::Seq(seq, m) = self.server.send(self.now, C, self.sent).unwrap();
                self.down.push((seq, m));
                self.sent += 1;
            }
            Op::Deliver { pick, dup } if !self.down.is_empty() => {
                let i = pick % self.down.len();
                let (seq, m) = if dup {
                    self.down[i]
                } else {
                    self.down.remove(i)
                };
                if let Some(cum) = self.client.accept(self.now, seq, m, &mut self.got) {
                    self.acks.push(cum);
                }
            }
            Op::Drop { pick } if !self.down.is_empty() => {
                self.down.remove(pick % self.down.len());
            }
            Op::Ack { pick, lost } if !self.acks.is_empty() => {
                let cum = self.acks.remove(pick % self.acks.len());
                if !lost {
                    self.ack(cum);
                }
            }
            Op::Tick { ms } => {
                self.now += Duration::from_millis(ms);
                self.server.expire(self.now, C, &mut self.out);
                self.drain_out();
            }
            Op::Partition { ms } if self.client.dark_until().is_none() => {
                self.client.partition(self.now, Duration::from_millis(ms));
            }
            Op::Heal if self.client.dark_until().is_some_and(|t| t <= self.now) => {
                let mut flushed = Vec::new();
                let resume = self.client.resume(&mut flushed);
                self.ups_sent.extend(flushed);
                let last_acked = match resume {
                    SessionUp::Resume { last_acked, .. } => last_acked,
                    _ => unreachable!("resume hands back the handshake"),
                };
                self.server.recv(self.now, C, resume, &mut self.out);
                self.acked = self.acked.max(last_acked);
                self.drain_out();
            }
            Op::Up => {
                if let Some(u) = self.client.send(self.ups) {
                    self.ups_sent.push(u);
                }
                self.ups += 1;
            }
            _ => {}
        }
    }

    fn ack(&mut self, cum: u64) {
        self.server.ack(self.now, C, cum);
        self.acked = self.acked.max(cum);
    }

    /// The model's invariants, checked after every step.
    fn check(&self) -> Result<(), TestCaseError> {
        let want: Vec<u64> = (0..self.got.len() as u64).collect();
        prop_assert_eq!(&self.got, &want, "exactly-once, in-order prefix");
        prop_assert!(self.got.len() as u64 <= self.sent);
        prop_assert!(
            self.server.unacked(C) as u64 <= self.sent - self.acked,
            "window {} past sent {} − acked {}",
            self.server.unacked(C),
            self.sent,
            self.acked
        );
        let ups: Vec<u64> = (0..self.ups_sent.len() as u64).collect();
        prop_assert_eq!(
            &self.ups_sent,
            &ups,
            "up messages cross in order, none lost"
        );
        Ok(())
    }

    /// Calm the network: heal, then deliver and ack everything, letting
    /// the RTO resend what was lost, until nothing is in flight.
    fn settle(&mut self) {
        if let Some(t) = self.client.dark_until() {
            self.now = self.now.max(t);
            self.apply(&Op::Heal);
        }
        for _ in 0..64 {
            while !self.down.is_empty() {
                self.apply(&Op::Deliver {
                    pick: 0,
                    dup: false,
                });
            }
            while let Some(cum) = self.acks.pop() {
                self.ack(cum);
            }
            if !self.server.in_flight() {
                return;
            }
            self.apply(&Op::Tick { ms: RTO_MS });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_faults_deliver_exactly_once_in_order(ops in prop::collection::vec(op(), 1..200)) {
        let mut w = World::new();
        for op in &ops {
            w.apply(op);
            w.check()?;
        }
        w.settle();
        w.check()?;
        prop_assert_eq!(w.got.len() as u64, w.sent, "everything sent is delivered");
        prop_assert_eq!(w.ups_sent.len() as u64, w.ups, "every up message crossed");
        prop_assert!(!w.server.in_flight());
    }

    /// A clean schedule — every frame delivered in order and acked before
    /// its RTO — costs no coping work at all.
    #[test]
    fn clean_schedules_cope_with_nothing(
        steps in prop::collection::vec((0u64..4, 0u64..RTO_MS), 1..100)
    ) {
        let mut w = World::new();
        for &(sends, ms) in &steps {
            for _ in 0..sends {
                w.apply(&Op::Send);
                w.apply(&Op::Deliver { pick: 0, dup: false });
                w.apply(&Op::Ack { pick: 0, lost: false });
            }
            w.apply(&Op::Tick { ms });
            w.apply(&Op::Up);
            w.check()?;
        }
        prop_assert_eq!(w.got.len() as u64, w.sent);
        let server = w.server.stats();
        let client = w.client.stats();
        prop_assert_eq!(server.coping() + client.coping(), 0);
        prop_assert_eq!(client.dups_dropped + client.holds, 0);
        prop_assert_eq!(server.acks, w.sent, "one ack advance per in-order frame");
    }
}
