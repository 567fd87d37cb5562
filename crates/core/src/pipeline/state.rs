//! The mutable server state every pipeline stage operates on.
//!
//! One struct owns everything the stages share — the uncommitted action
//! queue, the authoritative state ζ_S, the per-client version tables, and
//! the metrics sink. Stages are functions (and policy objects) over this
//! state rather than owners of slices of it: the serializer pipeline is a
//! flow of control, not a partition of data, because the queue is touched
//! by every stage (ingress appends, serialize pops, analyze marks drops,
//! route reads spheres, egress clones actions and flips `sent` bits).

use crate::closure::ActionQueue;
use crate::config::ProtocolConfig;
use crate::metrics::ServerMetrics;
use seve_world::ids::{ActionId, ObjectId, QueuePos};
use seve_world::state::WorldState;
use seve_world::GameWorld;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Shared state of the staged server pipeline.
pub struct PipelineState<W: GameWorld> {
    /// The world definition (for semantics and positions).
    pub world: Arc<W>,
    /// The protocol configuration.
    pub cfg: ProtocolConfig,
    /// ζ_S — the authoritative committed state (Algorithm 5 step 1).
    pub zeta_s: WorldState,
    /// The last position installed into ζ_S.
    pub last_committed: QueuePos,
    /// The queue of uncommitted actions.
    pub queue: ActionQueue<W::Action>,
    /// Metrics sink.
    pub metrics: ServerMetrics,
    /// The last position for which a GC notice was broadcast.
    pub(crate) last_gc_sent: QueuePos,
    /// Position of the last *installed* writer of each object — the
    /// committed version used to suppress redundant blind writes.
    pub(crate) committed_version: HashMap<ObjectId, QueuePos>,
    /// Per client: the newest writer position (action sent or blind write)
    /// whose value for an object the client is known to hold. Lets egress
    /// skip blind writes for values the client already has.
    pub(crate) client_known: Vec<HashMap<ObjectId, QueuePos>>,
    /// Every action id ever admitted. Serialization assigns one queue
    /// position per action, so a submission redelivered by an
    /// at-least-once transport must be ignored, not enqueued again.
    pub(crate) admitted: HashSet<ActionId>,
}

impl<W: GameWorld> PipelineState<W> {
    /// Fresh state over `world`.
    pub fn new(world: Arc<W>, cfg: ProtocolConfig) -> Self {
        let n = world.num_clients();
        Self {
            zeta_s: world.initial_state(),
            last_committed: 0,
            queue: ActionQueue::new(),
            metrics: ServerMetrics::default(),
            last_gc_sent: 0,
            committed_version: HashMap::new(),
            client_known: vec![HashMap::new(); n],
            admitted: HashSet::new(),
            world,
            cfg,
        }
    }

    /// Number of participating clients.
    pub fn num_clients(&self) -> usize {
        self.world.num_clients()
    }

    /// Charge the scan-cost model for `entries` queue entries examined.
    pub fn scan_cost(&self, entries: usize) -> u64 {
        (self.cfg.scan_cost_us_per_entry * entries as f64) as u64
    }
}
