//! The synchronous round engine.
//!
//! # Architecture: the snapshot-free, event-driven hot path
//!
//! The engine is built so that the per-round cost is `O(active nodes)`
//! protocol decisions plus work proportional to what actually *happens* —
//! never a rescan of global state, and never a decision loop over nodes that
//! have promised they cannot act:
//!
//! * **Acquisition logs.**  Alongside its rumor bitset, every node keeps an
//!   append-only log of the rumors it learned, in learn order.  A node's
//!   rumor set at any past instant is exactly a *prefix* of that log, so an
//!   exchange records only `(node, log length)` at initiation — an `O(1)`
//!   snapshot instead of an `O(n/64)` bitset clone — and a completion merges
//!   the peer's log prefix.  A per-edge watermark remembers how much of the
//!   peer's log already arrived over that edge, so repeated exchanges over
//!   the same edge never rescan old entries.
//! * **Round-segment logs, truncated.**  A log ([`AcquisitionLog`]) stores
//!   what a node learned in one merge phase as one *round segment*, encoded
//!   as whichever is smaller: interval runs (maximal stretches of
//!   consecutive rumor ids, 8 bytes each) or a dense `⌈n/64⌉`-word bitset.
//!   Words win exactly when the phase brought more runs than the universe
//!   has words — random-order arrival on expanders, which defeats interval
//!   compression — while bursty orders (star hubs relaying `leaf 1, leaf 2,
//!   …`, spanner relays) keep the run encoding and its code path.  The
//!   choice depends only on the input.  It is sound because every log read
//!   falls on a phase boundary — flight snapshots, per-edge watermarks,
//!   shadow targets and initial seeds all do — so order *inside* a segment
//!   is unobservable.  Paths that meet a word segment work on whole words:
//!   a merge ORs it into the destination and hands the new bits on as words,
//!   the append updates counts and termination counters by popcount and bit
//!   tests, and shadow advancement ORs it into the shadow.  And because
//!   every snapshot in flight was taken at most `max_latency` rounds ago,
//!   only the trailing `max_latency + 1` rounds of each log are ever read:
//!   each node keeps a *delayed bitset shadow* — its rumor set as of the
//!   oldest possibly-outstanding snapshot — advanced lazily through a
//!   calendar ring, and segments behind the shadow frontier are truncated.
//!   A merge whose watermark falls at or behind the frontier unions the
//!   shadow bitset directly and replays only the retained tail.  Together
//!   these break the old `Θ(Σ|final rumor sets|)` log-memory wall (~4 GB for
//!   all-to-all at 32768 nodes); the peak footprint is reported in
//!   [`RunReport::mem`](crate::report::MemStats).
//! * **Paged rumor sets + saturation collapse.**  Rumor sets are adaptive
//!   paged bitsets ([`RumorSet`]): 4096-bit pages stored sparsely, with a
//!   zero-allocation *full* sentinel for saturated pages, so per-node cost
//!   tracks what the node actually knows instead of the dense `n/8`-byte
//!   floor.  When a node's set goes full it collapses to the canonical
//!   page-free full representation, and one calendar lap later — once no
//!   outstanding snapshot can reference its history — the engine frees its
//!   shadow, truncates its entire log, and marks it *collapsed*: every
//!   future merge from it short-circuits to an `O(dst pages)` "peer is
//!   saturated" union, and its edges become merge-complete after one such
//!   union.  In the knowledge-saturating all-to-all regime this removes both
//!   the `2·n²/8` dense-bitset wall (~4.3 GB at 131072 nodes) and the
//!   endgame's redundant log replays.
//! * **Calendar queue.**  In-flight exchanges live in a ring of
//!   `max_latency + 1` buckets indexed by `completes_at % (max_latency + 1)`.
//!   Since every latency is in `1..=max_latency`, the bucket drained at the
//!   start of a round holds exactly the exchanges completing that round, in
//!   initiation order — delivery is `O(completions)`, not `O(in flight)`.
//! * **Event-driven active-set scheduling.**  Protocols report per-node
//!   quiescence through [`Protocol::activity`]: a node whose `on_round` just
//!   returned `None` and whose `activity` answers
//!   [`IdleUntilWoken`](Activity::IdleUntilWoken) or
//!   [`Quiescent`](Activity::Quiescent) leaves the engine's sorted active
//!   worklist and is simply never asked again — idle nodes re-join when an
//!   exchange incident to them completes (which is the only way their rumor
//!   set, `on_exchange` state, or Blocking-mode `can_initiate` flag can
//!   change) or when their saturation-collapse lap finishes; quiescent nodes
//!   are retired permanently.  The decision loop therefore costs
//!   `O(active)`, not `O(n)`, and the protocol contract (idle nodes would
//!   have returned `None` without touching the RNG) makes the skipped calls
//!   unobservable: reports stay byte-identical to an engine that asks every
//!   node every round.  When the worklist empties entirely while the
//!   calendar ring still holds in-flight exchanges or shadow/collapse laps,
//!   the round clock **fast-forwards** to the next non-empty bucket instead
//!   of spinning through empty rounds; `rounds_simulated`, `rounds_skipped`
//!   and the peak/final active-set size are reported in
//!   [`MemStats`](crate::report::MemStats).
//! * **Incremental termination.**  Counters (nodes with a full set, nodes
//!   knowing the tracked rumor, outstanding local-broadcast pairs) are
//!   updated inside the merge, so every [`Termination`] check is `O(1)`;
//!   `informed_times` is folded into the same path.
//! * **Flat latency discovery.**  Which endpoint has discovered which edge
//!   latency is a bitset with two bits per edge (one per endpoint); the
//!   latency itself is read from the graph.
//!
//! # Round phases
//!
//! [`Simulation::run`] and [`Simulation::run_sharded`] build one per-run
//! state struct (`RunState`) and drive it through the same phase methods in
//! every walked round, in this order:
//!
//! 1. `apply_faults` opens the round and applies its fault events, before
//!    anything else: an exchange completing this round but incident to a
//!    node that crashes now (or riding an edge cut now) is cancelled, never
//!    delivered, so a crash never double-adjusts a counter a delivery
//!    already touched.
//! 2. `advance_shadows` pops the shadow-ring bucket queued one ring lap
//!    ago (frontier advances and saturation collapses).  It must drain the
//!    bucket before `deliver` queues this round's growth into it.
//! 3. `deliver` drains the calendar bucket: watermarks are resolved in
//!    flight order, merges run in the canonical order (ascending
//!    destination, flight order within one), and `on_exchange` plus wake
//!    events follow in flight order.
//! 4. `is_done` checks termination on the round boundary: after this
//!    round's deliveries, before its decisions.
//! 5. `decide` admits woken nodes to the sorted worklist, runs the decision
//!    pass, and applies the decisions serially in worklist order; new
//!    flights snapshot rumor counts as of this round's merges.
//! 6. `fast_forward` advances the clock, jumping an empty worklist to the
//!    next calendar event but never past a `FixedRounds` target, the round
//!    cap or the next fault event.  Because `decide` runs after `is_done`,
//!    it re-checks termination at `round + 1` (a last `on_round` call can
//!    flip [`Termination::Quiescent`]).
//!
//! `finish` builds the [`RunReport`] once the loop stops.
//!
//! The executable specification is the dense-bitset
//! [`OracleSimulation`](crate::oracle::OracleSimulation), which snapshots
//! both endpoints at initiation and walks every round.  The
//! `engine_equivalence` integration suite pins this engine against it: both
//! must produce identical semantic [`RunReport`]s and rumor states on the
//! standard scenario grid.

use std::collections::HashMap;

use gossip_graph::{AliveView, EdgeId, Graph, Latency, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::fault::{self, FaultEvent, FaultPlan};
use crate::report::{FaultReport, MemStats, RunReport};
use crate::rumor::{self, AcquisitionLog, LogPiece, RumorId, RumorRun, RumorSet};

/// Whether a node may start a new exchange while one it initiated is still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// The paper's main model: a node can initiate a new exchange every round.
    #[default]
    NonBlocking,
    /// A node must wait for its own in-flight exchange to complete before
    /// initiating another (used by the pattern-broadcast analysis, §4.2).
    Blocking,
}

/// When the simulation stops (in addition to the `max_rounds` safety cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// One-to-all dissemination: every node knows the rumor originating at the given node.
    AllKnowRumorOf(NodeId),
    /// All-to-all dissemination: every node's rumor set contains the full universe.
    AllKnowAll,
    /// Local broadcast restricted to edges of latency at most the bound:
    /// every node knows the rumor of every neighbor reachable over such an edge.
    LocalBroadcast(Latency),
    /// Run for exactly this many rounds.
    FixedRounds(u64),
    /// Stop when the protocol reports every node idle and no exchange is in flight.
    Quiescent,
}

/// Configuration of a [`Simulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    pub(crate) seed: u64,
    pub(crate) mode: ExchangeMode,
    pub(crate) termination: Termination,
    pub(crate) max_rounds: u64,
    pub(crate) latencies_known: bool,
    pub(crate) tracked_rumor: Option<RumorId>,
    pub(crate) shadow_min_truncate_runs: usize,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) threads: usize,
}

impl SimConfig {
    /// Creates a configuration with the given RNG seed, non-blocking
    /// exchanges, all-to-all termination, and a generous round cap.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            mode: ExchangeMode::NonBlocking,
            termination: Termination::AllKnowAll,
            max_rounds: 5_000_000,
            latencies_known: false,
            tracked_rumor: None,
            shadow_min_truncate_runs: 64,
            faults: None,
            threads: 1,
        }
    }

    /// Sets the exchange mode (non-blocking by default).
    pub fn mode(mut self, mode: ExchangeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the termination condition (all-to-all by default).
    pub fn termination(mut self, termination: Termination) -> Self {
        self.termination = termination;
        self
    }

    /// Sets the safety cap on the number of rounds.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Declares that nodes know the latencies of their incident edges from the
    /// start (Section 4 of the paper).  When `false` (the default), a latency
    /// is revealed to an endpoint only after an exchange over that edge completes.
    pub fn latencies_known(mut self, known: bool) -> Self {
        self.latencies_known = known;
        self
    }

    /// Tracks the per-node first time a specific rumor is learned (reported in
    /// [`RunReport::informed_times`]).
    pub fn track_rumor(mut self, rumor: RumorId) -> Self {
        self.tracked_rumor = Some(rumor);
        self
    }

    /// Tunes the lazy delayed-shadow machinery: a node's shadow bitset is
    /// materialised — and its acquisition log truncated — only once at least
    /// this many 8-byte log storage units (interval runs, or word-segment
    /// headers and words) would be reclaimed, so short-lived or
    /// well-compressed logs never pay for a bitset.
    ///
    /// The default (64 units, i.e. 512 bytes of log per bitset) is a pure
    /// memory/allocation trade-off: the setting has **no observable effect**
    /// on simulation results.  `0` forces a shadow for every node as soon as
    /// its frontier can advance; the equivalence suite uses that to exercise
    /// the truncated-log merge path on small graphs.
    pub fn shadow_compaction(mut self, min_truncate_runs: usize) -> Self {
        self.shadow_min_truncate_runs = min_truncate_runs;
        self
    }

    /// Attaches a deterministic fault schedule (crash-stop churn, link
    /// cuts, message loss — see [`FaultPlan`]) to the run.  The report then
    /// carries a [`FaultReport`](crate::FaultReport) with the
    /// graceful-degradation accounting, and termination conditions quantify
    /// over *alive* nodes only.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Number of worker threads for intra-run parallelism (default 1 =
    /// fully serial).  The per-round completion merges — and, under
    /// [`Simulation::run_sharded`], the decision pass too — are sharded
    /// across this many workers on the vendored rayon pool.
    ///
    /// Purely a wall-clock knob: every shard boundary is resolved by a
    /// deterministic reduction in shard order, so reports are
    /// **byte-identical for every setting** (pinned by the `engine_parallel`
    /// suite, `tests/engine_parallel.rs`).  Values are clamped to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The decision RNG stream for one `(round, node)` cell, derived from the
/// run seed by a splitmix64-style avalanche over the three coordinates.
///
/// Both the engine (sharded or not) and the dense oracle draw a node's round
/// decision from this stream and from nothing else, which is what makes the
/// decision pass shardable: a worker can decide any subset of nodes in any
/// order without desynchronising the draws of the others.  The historical
/// single sequential stream would have made every node's draw depend on how
/// many draws every *earlier* node consumed — unshardable without replaying
/// the whole worklist.
pub(crate) fn decision_rng(seed: u64, round: u64, node: u32) -> SmallRng {
    let mut key = seed
        ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(node).wrapping_mul(0xD1B5_4A32_D192_ED03);
    // One avalanche pass decorrelates neighboring (round, node) cells before
    // `seed_from_u64` runs its own per-word splitmix expansion.
    key ^= key >> 30;
    key = key.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    key ^= key >> 27;
    key = key.wrapping_mul(0x94D0_49BB_1331_11EB);
    key ^= key >> 31;
    SmallRng::seed_from_u64(key)
}

/// Which endpoints have discovered which edge latencies: two bits per edge,
/// one per endpoint.  The latency value itself always comes from the graph.
#[derive(Debug)]
pub(crate) struct DiscoveredLatencies {
    bits: Vec<u64>,
}

impl DiscoveredLatencies {
    fn new(edge_count: usize) -> Self {
        DiscoveredLatencies {
            bits: vec![0; (2 * edge_count).div_ceil(64)],
        }
    }

    // gossip-lint: allow(panic-path): discovery bitmaps are sized 2 * edge_count at construction
    fn mark(&mut self, edge: EdgeId, second_endpoint: bool) {
        let i = edge.index() * 2 + second_endpoint as usize;
        self.bits[i / 64] |= 1 << (i % 64);
    }

    fn known(&self, edge: EdgeId, second_endpoint: bool) -> bool {
        let i = edge.index() * 2 + second_endpoint as usize;
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Forgets one endpoint's discovery of an edge latency (amnesiac
    /// rejoin: the rejoining node must re-learn its incident latencies).
    // gossip-lint: allow(panic-path): discovery bitmaps are sized 2 * edge_count at construction
    fn unmark(&mut self, edge: EdgeId, second_endpoint: bool) {
        let i = edge.index() * 2 + second_endpoint as usize;
        self.bits[i / 64] &= !(1 << (i % 64));
    }
}

/// Everything a protocol can see about one node at the start of a round.
#[derive(Debug)]
pub struct NodeView<'a> {
    /// The node being scheduled.
    pub node: NodeId,
    /// Current round (0-based).
    pub round: u64,
    /// The node's current rumor set.
    pub rumors: &'a RumorSet,
    /// Incident `(neighbor, edge)` pairs in neighbor-id order.
    pub neighbors: &'a [(NodeId, EdgeId)],
    /// `true` if the node may initiate an exchange this round
    /// (always true in non-blocking mode).
    pub can_initiate: bool,
    /// Number of exchanges this node initiated that are still in flight.
    pub pending_own: usize,
    pub(crate) latency_oracle: LatencyOracle<'a>,
}

#[derive(Debug)]
pub(crate) struct LatencyOracle<'a> {
    pub(crate) graph: &'a Graph,
    pub(crate) known_all: bool,
    pub(crate) source: OracleSource<'a>,
}

/// Where an oracle looks up per-node discovery state.  The engine uses the
/// flat bitset; the dense oracle keeps per-node maps.
#[derive(Debug)]
pub(crate) enum OracleSource<'a> {
    Flat {
        node: NodeId,
        discovered: &'a DiscoveredLatencies,
    },
    // gossip-lint: allow(unordered-iter): read via `map.get(&edge)` per query only, never iterated
    Map(&'a HashMap<EdgeId, Latency>),
}

impl NodeView<'_> {
    /// Latency of an incident edge, if this node is entitled to know it:
    /// either latencies are globally known ([`SimConfig::latencies_known`]) or
    /// an exchange over the edge has completed at this node.
    pub fn known_latency(&self, edge: EdgeId) -> Option<Latency> {
        if self.latency_oracle.known_all {
            return Some(self.latency_oracle.graph.latency(edge));
        }
        match self.latency_oracle.source {
            OracleSource::Map(map) => map.get(&edge).copied(),
            OracleSource::Flat { node, discovered } => {
                let graph = self.latency_oracle.graph;
                if edge.index() >= graph.edge_count() {
                    return None;
                }
                let rec = graph.edge(edge);
                let second = if node == rec.u {
                    false
                } else if node == rec.v {
                    true
                } else {
                    return None;
                };
                discovered.known(edge, second).then_some(rec.latency)
            }
        }
    }

    /// Number of nodes in the network (the paper assumes a polynomial upper
    /// bound on `n` is known; we expose the exact value for simplicity).
    pub fn network_size(&self) -> usize {
        self.latency_oracle.graph.node_count()
    }
}

/// A protocol's promise about a node's upcoming behavior, returned by
/// [`Protocol::activity`] and consumed by the engine's event-driven
/// scheduler.
///
/// The engine consults `activity` for a node only directly after that node's
/// [`on_round`](Protocol::on_round) returned `None` in the same round, with
/// the same [`NodeView`].  Anything other than [`Activity::Active`] is a
/// *binding promise* about future `on_round` calls — see the variants — that
/// lets the engine skip those calls entirely; because a skipped call would
/// have returned `None` without touching the RNG or the protocol state,
/// skipping is unobservable and all reports stay byte-identical to an engine
/// that asks every node every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activity {
    /// No promise: keep asking this node every round (the default, and the
    /// exact pre-scheduler behavior).
    #[default]
    Active,
    /// Until a *wake event* occurs at this node, every `on_round` call would
    /// return `None` without drawing from the RNG and without mutating the
    /// protocol.  The engine stops asking and re-activates the node on the
    /// next wake event.  Wake events at node `v` are:
    ///
    /// * an exchange incident to `v` completes — the only way `v`'s rumor
    ///   set can grow, [`on_exchange`](Protocol::on_exchange) can fire at
    ///   `v`, or `v`'s `pending_own` / Blocking-mode `can_initiate` state
    ///   can change;
    /// * `v`'s saturation-collapse lap finishes (an engine-internal event,
    ///   included so a protocol may key idleness off `view.rumors` becoming
    ///   full without tracking the collapse calendar itself);
    /// * an exchange `v` initiated is cancelled by a fault or times out lost
    ///   (its `pending_own` / Blocking-mode `can_initiate` state changed);
    /// * a fault event from a [`FaultPlan`](crate::FaultPlan) touches `v`'s
    ///   neighborhood: a neighbor crashes or rejoins, or an incident edge is
    ///   cut.
    IdleUntilWoken,
    /// The same promise, unconditionally and forever: no event can make this
    /// node act again.  The engine retires the node permanently — it is
    /// *not* re-activated by wake events — so this is only sound when the
    /// silence derives from irreversible state (a full rumor set, an
    /// isolated node, a finished program).
    ///
    /// **Fault events are outside this promise.**  A topology change from a
    /// [`FaultPlan`](crate::FaultPlan) (a neighbor crashing or rejoining, an
    /// incident edge cut) re-activates even quiescent survivors, because the
    /// irreversible state the promise derived from may no longer hold — an
    /// isolated node can gain its neighbor back through a rejoin.  A node
    /// whose quiescence really is irreversible (a full rumor set cannot
    /// shrink) simply returns `None` + `Quiescent` once more and is retired
    /// again.
    Quiescent,
}

/// A completed bidirectional exchange, as seen by one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeEvent {
    /// The other endpoint of the exchange.
    pub peer: NodeId,
    /// The edge the exchange used.
    pub edge: EdgeId,
    /// The latency of that edge (revealed by the completed exchange).
    pub latency: Latency,
    /// `true` if this endpoint initiated the exchange.
    pub initiated_here: bool,
    /// Round at which the exchange completed.
    pub round: u64,
}

/// A gossip protocol: per-round decisions plus completion callbacks.
///
/// The engine owns the rumor sets; a protocol only chooses which neighbor (if
/// any) each node contacts in each round.
pub trait Protocol {
    /// Human-readable protocol name (used in reports).
    fn name(&self) -> &'static str {
        "protocol"
    }

    /// Decides which neighbor `view.node` contacts this round, or `None` to stay silent.
    ///
    /// Returning a node that is not a neighbor is a schedule error: the
    /// engine rejects the exchange, reports it back through
    /// [`on_rejected`](Self::on_rejected), and counts it in
    /// [`RunReport::rejections`].
    fn on_round(&mut self, view: &NodeView<'_>, rng: &mut SmallRng) -> Option<NodeId>;

    /// Notification that `node`'s choice of `target` was rejected because
    /// `target` is not one of `node`'s neighbors.
    ///
    /// The default implementation treats this as a protocol bug: it fails a
    /// `debug_assert!` in debug builds (and is a no-op in release builds,
    /// where the rejection is still visible in [`RunReport::rejections`]).
    /// Protocols that probe the topology on purpose can override it.
    fn on_rejected(&mut self, node: NodeId, target: NodeId, round: u64) {
        debug_assert!(
            false,
            "protocol targeted non-neighbor {target:?} from {node:?} at round {round}"
        );
        let _ = (node, target, round);
    }

    /// Notification that an exchange incident to `node` completed.
    fn on_exchange(&mut self, node: NodeId, event: &ExchangeEvent) {
        let _ = (node, event);
    }

    /// Whether this node has finished its program (used by [`Termination::Quiescent`]).
    fn is_idle(&self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// The node's quiescence promise, consulted by the event-driven
    /// scheduler directly after an [`on_round`](Self::on_round) call that
    /// returned `None` (with the same `view`).
    ///
    /// The default returns [`Activity::Active`], which makes no promise:
    /// the engine keeps asking the node every round, so **third-party
    /// protocols that do not override this method keep the exact
    /// pre-scheduler behavior** — every node is consulted every round and no
    /// rounds are skipped.
    ///
    /// Overriding implementations must uphold the contract documented on
    /// [`Activity`]: while idle or quiescent, any `on_round` call the engine
    /// elides would have returned `None` without drawing from the RNG and
    /// without mutating the protocol.  Violating the contract desynchronises
    /// the run from the specified semantics (and from the same protocol run
    /// under [`crate::oracle::OracleSimulation`], which never calls this
    /// method and asks every node every round).
    // gossip-audit: contract(pure)
    fn activity(&self, view: &NodeView<'_>) -> Activity {
        let _ = view;
        Activity::Active
    }
}

/// A [`Protocol`] whose per-round decisions can be partitioned by node, so
/// [`Simulation::run_sharded`] can split the sorted active worklist into
/// contiguous node-range shards and run them concurrently, one worker each.
///
/// # Contract
///
/// For every node `v` in shard `k`'s range, `shard_on_round(&mut shards[k],
/// view, rng)` must behave exactly as `on_round(&mut self, view, rng)`
/// would, and [`shard_activity`](Self::shard_activity) exactly as
/// [`Protocol::activity`].  A shard is a reborrow of the protocol's
/// decision state restricted to its node range, so a decision for `v` can
/// only read or write state belonging to `v` — which is precisely what
/// makes the passes interchangeable: each node's RNG stream is
/// independently derived from `(seed, round, node)`, outcomes are applied
/// by the engine in worklist order regardless of which worker produced
/// them, and no decision can observe another node's same-round decision.
///
/// Protocols that need cross-node `on_round` mutations visible within a
/// round cannot implement this faithfully and should stay on
/// [`Simulation::run`] (which never shards decisions).  [`Protocol::on_exchange`]
/// and [`Protocol::on_rejected`] are unaffected — the engine always calls
/// them serially, on `&mut self`.
pub trait ShardedProtocol: Protocol {
    /// Borrowed per-node decision state of one contiguous node-range shard.
    type Shard<'s>: Send
    where
        Self: 's;

    /// Splits the decision state at the given node-id cut points
    /// (`cuts[0] == 0`, `cuts.last() == n`, strictly increasing): shard `k`
    /// owns nodes `cuts[k] .. cuts[k+1]` and the returned vector has one
    /// entry per adjacent pair.
    fn decision_shards<'s>(&'s mut self, cuts: &[u32]) -> Vec<Self::Shard<'s>>;

    /// Shard-scoped [`Protocol::on_round`] (an associated function — shards
    /// of `self` are live across workers while it runs).
    fn shard_on_round(
        shard: &mut Self::Shard<'_>,
        view: &NodeView<'_>,
        rng: &mut SmallRng,
    ) -> Option<NodeId>;

    /// Shard-scoped [`Protocol::activity`], under the same purity contract.
    // gossip-audit: contract(pure)
    fn shard_activity(shard: &Self::Shard<'_>, view: &NodeView<'_>) -> Activity;
}

/// Outcome of one node's decision call, recorded by the decision pass and
/// applied by the serial initiation epilogue in worklist order.
#[derive(Debug, Clone, Copy)]
enum Decide {
    /// The node crashed while queued: drop it from the worklist (its state
    /// is already `Quiescent`; a rejoin force-wake re-admits it).
    Dead,
    /// `on_round` returned `None`; the activity answer drives scheduling.
    Silent(Activity),
    /// The node wants to contact this target.
    Target(NodeId),
}

/// Read-only inputs of one round's decision pass — everything a
/// [`NodeView`] is built from.  Shared by both drivers and across decision
/// shards (workers only read it).
struct DecisionCtx<'a> {
    graph: &'a Graph,
    rumors: &'a [RumorSet],
    alive: Option<&'a AliveView>,
    discovered: &'a DiscoveredLatencies,
    pending_own: &'a [usize],
    mode: ExchangeMode,
    latencies_known: bool,
    seed: u64,
    round: u64,
    threads: usize,
}

impl<'a> DecisionCtx<'a> {
    fn is_dead(&self, node: NodeId) -> bool {
        self.alive.is_some_and(|av| !av.is_node_alive(node))
    }

    // gossip-lint: allow(panic-path): node indices come from the sorted worklist, bounded by n
    fn view(&self, node: NodeId) -> NodeView<'a> {
        let i = node.index();
        NodeView {
            node,
            round: self.round,
            rumors: &self.rumors[i],
            neighbors: match self.alive {
                Some(av) => av.neighbor_slice(self.graph, node),
                None => self.graph.neighbor_slice(node),
            },
            can_initiate: match self.mode {
                ExchangeMode::NonBlocking => true,
                ExchangeMode::Blocking => self.pending_own[i] == 0,
            },
            pending_own: self.pending_own[i],
            latency_oracle: LatencyOracle {
                graph: self.graph,
                known_all: self.latencies_known,
                source: OracleSource::Flat {
                    node,
                    discovered: self.discovered,
                },
            },
        }
    }
}

/// Strategy for the per-round decision pass: the serial driver calls
/// [`Protocol::on_round`] on `&mut P` in worklist order; the sharded driver
/// fans contiguous worklist shards out to workers via [`ShardedProtocol`].
/// Both record one [`Decide`] per worklist entry, and the engine applies
/// them through the same serial epilogue in worklist order — so the drivers
/// are byte-identical for any protocol implementing both traits faithfully.
trait DecisionDriver<P> {
    fn decide(protocol: &mut P, ctx: &DecisionCtx<'_>, worklist: &[u32], out: &mut Vec<Decide>);
}

/// Evaluates one node under the decision contract shared by both drivers:
/// dead nodes short-circuit to [`Decide::Dead`]; everyone else gets a view
/// and its own `(seed, round, node)` RNG stream, and `f` maps the protocol
/// answer to a decision.
fn decide_node(
    ctx: &DecisionCtx<'_>,
    u: u32,
    f: impl FnOnce(&NodeView<'_>, &mut SmallRng) -> Decide,
) -> Decide {
    let node = NodeId::new(u as usize);
    if ctx.is_dead(node) {
        return Decide::Dead;
    }
    let view = ctx.view(node);
    let mut rng = decision_rng(ctx.seed, ctx.round, u);
    f(&view, &mut rng)
}

/// Serial decision pass — the plain [`Protocol`] path of [`Simulation::run`].
enum SerialDecisions {}

impl<P: Protocol> DecisionDriver<P> for SerialDecisions {
    fn decide(protocol: &mut P, ctx: &DecisionCtx<'_>, worklist: &[u32], out: &mut Vec<Decide>) {
        for &u in worklist {
            out.push(decide_node(ctx, u, |view, rng| {
                match protocol.on_round(view, rng) {
                    Some(target) => Decide::Target(target),
                    None => Decide::Silent(protocol.activity(view)),
                }
            }));
        }
    }
}

/// Minimum worklist length before the decision pass fans out to worker
/// threads (below it, shard setup costs more than it saves — purely a
/// wall-clock knob, like [`MIN_PAR_TASKS`]).
const MIN_PAR_DECISIONS: usize = 256;

/// Sharded decision pass over contiguous worklist shards — the
/// [`ShardedProtocol`] path of [`Simulation::run_sharded`].
enum ShardedDecisions {}

impl<P: ShardedProtocol> DecisionDriver<P> for ShardedDecisions {
    // gossip-lint: allow(panic-path): chunk bounds derive from div_ceil over the worklist length
    fn decide(protocol: &mut P, ctx: &DecisionCtx<'_>, worklist: &[u32], out: &mut Vec<Decide>) {
        if worklist.is_empty() {
            return;
        }
        let shard_count = if ctx.threads <= 1 || worklist.len() < MIN_PAR_DECISIONS {
            1
        } else {
            ctx.threads.min(worklist.len())
        };
        let per = worklist.len().div_ceil(shard_count);
        let shard_count = worklist.len().div_ceil(per);
        let mut cuts: Vec<u32> = Vec::with_capacity(shard_count + 1);
        cuts.push(0);
        for k in 1..shard_count {
            // First node of chunk k; the worklist is sorted, so chunk k's
            // nodes all fall in `cuts[k] .. cuts[k+1]`.
            cuts.push(worklist[k * per]);
        }
        cuts.push(ctx.graph.node_count() as u32);
        let shards = protocol.decision_shards(&cuts);
        debug_assert_eq!(shards.len(), shard_count, "one shard per cut interval");
        let jobs: Vec<(&[u32], P::Shard<'_>)> = shards
            .into_iter()
            .enumerate()
            .map(|(k, shard)| {
                let lo = k * per;
                let hi = ((k + 1) * per).min(worklist.len());
                (&worklist[lo..hi], shard)
            })
            .collect();
        let results = run_jobs(ctx.threads, jobs, |(chunk, mut shard)| {
            let mut decides = Vec::with_capacity(chunk.len());
            for &u in chunk {
                decides.push(decide_node(ctx, u, |view, rng| {
                    match P::shard_on_round(&mut shard, view, rng) {
                        Some(target) => Decide::Target(target),
                        None => Decide::Silent(P::shard_activity(&shard, view)),
                    }
                }));
            }
            decides
        });
        for chunk in results {
            out.extend_from_slice(&chunk);
        }
    }
}

/// An in-flight exchange: its endpoints plus the `O(1)` snapshot of what each
/// endpoint knew at initiation — the length of its acquisition log.
struct Flight {
    initiator: NodeId,
    responder: NodeId,
    edge: EdgeId,
    /// Initiator's log length at initiation time.
    initiator_known: u32,
    /// Responder's log length at initiation time.
    responder_known: u32,
    /// Lost in transit ([`FaultPlan::message_loss`]): occupies the
    /// initiator's slot until the completion round, then times out silently
    /// — no merge, no discovery, no `on_exchange`.
    lost: bool,
}

/// Scheduler-side view of one node, maintained by the engine (the protocol's
/// [`Activity`] answers drive the transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// In the active worklist; consulted every round.
    Active,
    /// Out of the worklist; re-activated by the next wake event.
    Idle,
    /// Retired permanently; never consulted or woken again.
    Quiescent,
}

/// The next round strictly after `round` at which any calendar bucket fires:
/// in-flight exchange completions (`calendar`) or queued shadow/collapse
/// laps (`shadow_ring`).  Both rings map a fire time `t` to bucket
/// `t % ring_len`, and every queued entry fires within one lap, so bucket
/// `b` fires at the unique `t ∈ (round, round + ring_len]` with
/// `t ≡ b (mod ring_len)` — including the wraparound case `b == round %
/// ring_len`, which (being already drained for the current round) can only
/// mean `t = round + ring_len`.
// gossip-lint: allow(panic-path): ring_len >= 1 always (max latency + 1), so the modulus is never zero
fn next_event_round(
    round: u64,
    ring_len: usize,
    calendar: &[Vec<Flight>],
    shadow_ring: &[Vec<(u32, u32, u32)>],
) -> Option<u64> {
    let cur = (round % ring_len as u64) as usize;
    let mut best: Option<u64> = None;
    for (b, (flights, advances)) in calendar.iter().zip(shadow_ring).enumerate() {
        if flights.is_empty() && advances.is_empty() {
            continue;
        }
        let delta = match (b + ring_len - cur) % ring_len {
            0 => ring_len as u64,
            d => d as u64,
        };
        let t = round + delta;
        best = Some(best.map_or(t, |prev| prev.min(t)));
    }
    best
}

/// Deterministic memory accounting of the dissemination state (the source of
/// [`MemStats`]): counters, not allocator probes, so gates built on them are
/// reproducible across machines.
#[derive(Default)]
struct MemCounters {
    /// Currently retained log storage units (interval runs, word-segment
    /// headers and words), summed over all logs.
    live_runs: u64,
    /// Peak of `live_runs` over the run so far.
    peak_runs: u64,
    /// 64-bit words currently held by materialised shadow bitsets
    /// (saturation collapse frees a node's shadow).
    shadow_words_live: u64,
    /// Peak of `shadow_words_live` over the run so far.
    shadow_words_peak: u64,
    /// Total log storage units reclaimed by shadow-frontier truncation,
    /// saturation collapse and fault resets.
    truncated_runs: u64,
    /// Word-encoded round segments appended to logs.
    word_segments: u64,
    /// Number of shadow-frontier advancements.
    shadow_advances: u64,
    /// Dense rumor-set pages currently allocated, summed over all nodes
    /// (sampled at merge boundaries; empty and full sentinel pages are free).
    pages_live: u64,
    /// Peak of `pages_live` over the run so far.
    pages_peak: u64,
    /// Nodes whose log and shadow were freed by saturation collapse.
    collapsed_nodes: u64,
}

impl MemCounters {
    /// Applies a dense-page delta observed across one merge.
    fn record_page_delta(&mut self, before: usize, after: usize) {
        self.pages_live += after as u64;
        self.pages_live -= before as u64;
        self.pages_peak = self.pages_peak.max(self.pages_live);
    }

    /// Folds one shard's dense-page trace into the live/peak counters.
    /// Must be applied in shard order — the trace composition law makes the
    /// result independent of where the shard cuts fell, but not of the order
    /// the shards are folded in.
    fn apply_page_trace(&mut self, trace: PageTrace) {
        let live = self.pages_live as i64;
        self.pages_peak = self.pages_peak.max((live + trace.max_prefix.max(0)) as u64);
        self.pages_live = (live + trace.delta) as u64;
    }
}

/// One resolved merge obligation of a delivery phase: union `src`'s log
/// positions `start..upto` into `dst`'s rumor state.  Resolved serially
/// against the per-edge watermarks (in flight order), then executed in the
/// canonical order — ascending `dst`, flight order within one `dst` — by
/// [`RunState::merge_completions`].
#[derive(Debug, Clone, Copy)]
struct MergeTask {
    dst: u32,
    src: u32,
    start: u32,
    upto: u32,
}

/// Order-preserving summary of one shard's dense-page allocation walk: the
/// net page delta plus the maximum running prefix delta (page counts can
/// *drop* mid-walk when a dense page saturates to the free full sentinel, so
/// a plain max of deltas would not reproduce the serial peak).
///
/// Composition law: for traces `a` then `b`,
/// `a ∘ b = { delta: a.delta + b.delta, max_prefix: max(a.max_prefix,
/// a.delta + b.max_prefix) }` — associative with identity `default()`, so
/// folding per-shard traces in shard order reproduces exactly the peak the
/// canonical serial walk observes, wherever the shard cuts fall.
#[derive(Debug, Clone, Copy, Default)]
struct PageTrace {
    delta: i64,
    max_prefix: i64,
}

impl PageTrace {
    /// Records one task's page delta (the serial walk's
    /// [`MemCounters::record_page_delta`], replayed at reduction time).
    fn record(&mut self, before: usize, after: usize) {
        self.delta += after as i64 - before as i64;
        self.max_prefix = self.max_prefix.max(self.delta);
    }
}

/// What one destination learned in one merge phase — its next round
/// segment, as phase A hands it to phase B.
#[derive(Debug, Clone, Copy)]
enum NewSegment {
    /// `count` consecutive-id runs, in learn order (the interval path:
    /// every source piece was a run and at most `word_count` runs arrived).
    Runs { dst: u32, count: u32 },
    /// A universe-layout bitset of the new rumors, `word_count` words.
    Bits { dst: u32 },
}

/// Phase A output of one merge shard: every rumor newly learned by the
/// shard's destinations, one [`NewSegment`] per destination that learned
/// anything, in ascending destination order.
struct MergeShardNew {
    segments: Vec<NewSegment>,
    /// Runs of the `Runs` segments, flattened in segment order.  (Flattened
    /// per shard, not per destination, so a phase's allocation count is
    /// `O(shards)`, not `O(tasks)`.)
    runs: Vec<RumorRun>,
    /// Words of the `Bits` segments, flattened in segment order.
    words: Vec<u64>,
    pages: PageTrace,
}

/// Phase B output of one merge shard: pure counter deltas, folded into the
/// global termination counters in shard order.
#[derive(Default)]
struct MergeShardDelta {
    /// Storage units physically appended to acquisition logs (`live_runs`
    /// delta).
    appended_runs: u64,
    /// Word-encoded segments appended.
    word_segments: u64,
    full_nodes: usize,
    source_known_by: usize,
    lb_deficit_sub: u64,
    /// Destinations that learned at least one rumor, ascending.
    changed: Vec<u32>,
}

/// `true` if bit `i` of a universe-layout bitset is set.
fn bit_set(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
}

/// Phase A of the sharded completion merge: unions each destination's task
/// prefixes into its paged rumor set and collects the newly learned rumors
/// as that destination's next round segment.  A shard owns a contiguous
/// destination range (its `rumors` slice, offset by `base`) and its tasks
/// are already in canonical order, so the in-shard walk *is* the canonical
/// serial walk restricted to that range; everything else is only read.
///
/// New rumors stay interval runs while every source piece is a run and at
/// most `word_count` of them arrive; otherwise they are gathered as words:
/// shadows and word segments are OR-ed in whole, without ever being split
/// into per-id runs.
// gossip-lint: allow(panic-path): task indices are bounded by the shard partition invariants
fn merge_shard_phase_a(
    tasks: &[MergeTask],
    base: usize,
    rumors: &mut [RumorSet],
    logs: &[AcquisitionLog],
    shadows: &[Vec<u64>],
    shadow_len: &[u32],
    collapsed: &[bool],
) -> MergeShardNew {
    let mut out = MergeShardNew {
        segments: Vec::with_capacity(tasks.len()),
        runs: Vec::new(),
        words: Vec::new(),
        pages: PageTrace::default(),
    };
    // Per-destination scratch: new runs (collected per destination, so
    // id-adjacent runs never coalesce across destination boundaries) and a
    // universe-layout bitset, kept all-zero between destinations.
    let mut runs: Vec<RumorRun> = Vec::new();
    let mut bits: Vec<u64> = Vec::new();
    let mut lo = 0usize;
    while lo < tasks.len() {
        let dst = tasks[lo].dst;
        let mut hi = lo + 1;
        while hi < tasks.len() && tasks[hi].dst == dst {
            hi += 1;
        }
        let dst_set = &mut rumors[dst as usize - base];
        bits.resize(dst_set.word_count(), 0);
        let mut dense = false;
        for t in &tasks[lo..hi] {
            let si = t.src as usize;
            if dst_set.is_full() {
                // Saturated by an earlier same-destination task this phase:
                // the union is a guaranteed no-op, exactly like the serial
                // engine's `counts >= universe` skip at task time.
                continue;
            }
            let pages_before = dst_set.live_pages();
            if collapsed[si] {
                // Saturation-collapsed peer: every snapshot of it still in
                // flight was taken after it saturated (that is the collapse
                // precondition), so the prefix is the whole universe.
                debug_assert_eq!(t.upto as usize, dst_set.universe());
                dst_set.insert_all(&mut runs);
            } else {
                let frontier = shadow_len[si];
                if t.start < frontier {
                    // Invariant: a nonzero frontier implies a materialised
                    // shadow holding exactly the first `frontier` log entries.
                    dst_set.union_words_collect_new_words(&shadows[si], &mut bits);
                    dense = true;
                }
                logs[si].for_each_piece(t.start.max(frontier), t.upto, |piece| match piece {
                    LogPiece::Run(first, len) => dst_set.insert_run(first, len, &mut runs),
                    LogPiece::Words(words) => {
                        dst_set.union_words_collect_new_words(words, &mut bits);
                        dense = true;
                    }
                });
            }
            out.pages.record(pages_before, dst_set.live_pages());
        }
        if dense || runs.len() > bits.len() {
            for &(first, len) in &runs {
                rumor::set_words_range(&mut bits, first.index(), len as usize);
            }
            if bits.iter().any(|&w| w != 0) {
                out.segments.push(NewSegment::Bits { dst });
                out.words.extend_from_slice(&bits);
                bits.fill(0);
            }
        } else if !runs.is_empty() {
            out.segments.push(NewSegment::Runs {
                dst,
                count: runs.len() as u32,
            });
            out.runs.extend_from_slice(&runs);
        }
        runs.clear();
        lo = hi;
    }
    out
}

/// The read-only context merge phase B shares across its shards: the
/// termination targets it settles and the liveness it quantifies over.
struct MergeCtx<'a> {
    graph: &'a Graph,
    alive: Option<&'a AliveView>,
    /// Every node's rumor set (for the per-destination universe).
    rumors: &'a [RumorSet],
    source_rumor: Option<RumorId>,
    tracked: Option<RumorId>,
    lb_bound: Option<Latency>,
    round: u64,
}

/// `true` while the local-broadcast obligation counts the pairs across
/// edge `e`: the edge is fast (latency at most `bound`) and usable (un-cut,
/// both endpoints alive).  Crash, rejoin and cut events retire or re-enter
/// such pairs eagerly, so a merge only ever settles pairs still counted.
fn lb_counts_edge(graph: &Graph, alive: Option<&AliveView>, bound: Latency, e: EdgeId) -> bool {
    graph.latency(e) <= bound && alive.is_none_or(|a| a.edge_usable(graph, e))
}

/// Phase B of the sharded completion merge: appends each destination's new
/// round segment to its acquisition log and folds every termination counter
/// the segment touches into a per-shard delta.  The shard's `logs` /
/// `counts` / `informed_times` slices start at destination `base`.
// gossip-lint: allow(panic-path): segment indices are bounded by the shard partition invariants
fn merge_shard_phase_b(
    new: &MergeShardNew,
    ctx: &MergeCtx<'_>,
    base: usize,
    logs: &mut [AcquisitionLog],
    counts: &mut [usize],
    mut informed_times: Option<&mut [Option<u64>]>,
) -> MergeShardDelta {
    let MergeCtx {
        graph,
        alive,
        rumors,
        source_rumor,
        tracked,
        lb_bound,
        round,
    } = *ctx;
    let mut delta = MergeShardDelta::default();
    let (mut run_cursor, mut word_cursor) = (0usize, 0usize);
    for &segment in &new.segments {
        let dst = match segment {
            NewSegment::Runs { dst, .. } | NewSegment::Bits { dst } => dst,
        };
        let di = dst as usize;
        let li = di - base;
        delta.changed.push(dst);
        let (mut knows_source, mut knows_tracked) = (false, false);
        match segment {
            NewSegment::Runs { count, .. } => {
                let seg_runs = &new.runs[run_cursor..run_cursor + count as usize];
                run_cursor += count as usize;
                for &(first, len) in seg_runs {
                    if logs[li].push_run(first, len) {
                        delta.appended_runs += 1;
                    }
                    counts[li] += len as usize;
                    let in_run = |r: RumorId| {
                        r.0 >= first.0 && u64::from(r.0) < u64::from(first.0) + u64::from(len)
                    };
                    knows_source |= source_rumor.is_some_and(in_run);
                    knows_tracked |= tracked.is_some_and(in_run);
                    if let Some(bound) = lb_bound {
                        let nbrs = graph.neighbor_slice(NodeId::new(di));
                        let node_count = graph.node_count();
                        for j in first.index()..(first.index() + len as usize).min(node_count) {
                            if let Ok(pos) = nbrs.binary_search_by_key(&NodeId::new(j), |&(w, _)| w)
                            {
                                if lb_counts_edge(graph, alive, bound, nbrs[pos].1) {
                                    delta.lb_deficit_sub += 1;
                                }
                            }
                        }
                    }
                }
            }
            NewSegment::Bits { .. } => {
                let bits = &new.words[word_cursor..word_cursor + rumors[di].word_count()];
                word_cursor += bits.len();
                let before = logs[li].len();
                let (units, words) = logs[li].push_bits(bits);
                delta.appended_runs += units;
                delta.word_segments += u64::from(words);
                counts[li] += (logs[li].len() - before) as usize;
                let in_bits = |r: RumorId| bit_set(bits, r.index());
                knows_source = source_rumor.is_some_and(in_bits);
                knows_tracked = tracked.is_some_and(in_bits);
                if let Some(bound) = lb_bound {
                    for &(w, e) in graph.neighbor_slice(NodeId::new(di)) {
                        if bit_set(bits, w.index()) && lb_counts_edge(graph, alive, bound, e) {
                            delta.lb_deficit_sub += 1;
                        }
                    }
                }
            }
        }
        // Each rumor is learned once, so these fire at most once per node.
        if counts[li] == rumors[di].universe() {
            delta.full_nodes += 1;
        }
        if knows_source {
            delta.source_known_by += 1;
        }
        if knows_tracked {
            if let Some(informed) = informed_times.as_deref_mut() {
                if informed[li].is_none() {
                    informed[li] = Some(round);
                }
            }
        }
    }
    delta
}

/// Cuts `tasks` (sorted by destination) into at most `max_shards` contiguous
/// ranges of roughly equal length whose destination sets are disjoint — a
/// cut never splits one destination's task group, so every destination's
/// state is owned by exactly one shard.  Returns each shard's end index.
///
/// The cut positions depend on `max_shards` (i.e. on the thread count), but
/// never the results: phase outputs are reduced in shard order, and
/// concatenating per-shard walks of a sorted task list in shard order is the
/// canonical serial walk regardless of where the cuts fall.
// gossip-lint: allow(panic-path): hi is only indexed while strictly below tasks.len(), and hi >= 1 inside the loop
fn partition_tasks(tasks: &[MergeTask], max_shards: usize) -> Vec<usize> {
    let mut ends = Vec::with_capacity(max_shards);
    let target = tasks.len().div_ceil(max_shards.max(1));
    let mut lo = 0usize;
    while lo < tasks.len() {
        let mut hi = (lo + target).min(tasks.len());
        while hi < tasks.len() && tasks[hi].dst == tasks[hi - 1].dst {
            hi += 1;
        }
        ends.push(hi);
        lo = hi;
    }
    ends
}

/// Minimum per-phase work before a pass fans out to worker threads; below
/// it, shard setup costs more than it saves.  Purely a wall-clock knob — the
/// single-shard path runs the identical canonical walk.
const MIN_PAR_TASKS: usize = 64;

/// Executes independent shard jobs, fanned out on the vendored rayon pool
/// when more than one worker is configured.  Results come back in job order
/// (rayon's indexed `collect`), so callers can reduce them deterministically
/// in shard order; with one worker (or one job) the jobs run inline on the
/// calling thread in the same order.
fn run_jobs<T: Send, R: Send>(threads: usize, jobs: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .install(|| jobs.into_par_iter().map(f).collect())
}

/// Splits `slice` into consecutive pieces ending at the absolute indices
/// `ends` (ascending, the last one `slice.len()`).
fn split_at_ends<'a, T>(mut rest: &'a mut [T], ends: &[usize]) -> Vec<&'a mut [T]> {
    let mut pieces = Vec::with_capacity(ends.len());
    let mut base = 0usize;
    for &end in ends {
        let (piece, tail) = rest.split_at_mut(end - base);
        pieces.push(piece);
        rest = tail;
        base = end;
    }
    pieces
}

/// Counters of applied fault events (the injection half of
/// [`FaultReport`]; the degradation half is computed from final state).
#[derive(Default)]
struct FaultTally {
    crashes: u64,
    rejoins: u64,
    links_cut: u64,
    cancelled: u64,
    lost: u64,
}

/// The event-driven scheduler: which nodes the decision pass asks.
struct Scheduler {
    /// Per-node scheduling state.
    state: Vec<NodeState>,
    /// The active nodes, sorted: ascending node order keeps protocol calls
    /// — and therefore RNG draws — in exactly the order of the historical
    /// all-nodes sweep.
    worklist: Vec<u32>,
    /// Nodes woken this round, merged into the worklist before the next
    /// decision pass.
    woken: Vec<u32>,
    /// Scratch buffer of that merge.
    merge_buf: Vec<u32>,
    /// Largest worklist seen.  Every node starts in the worklist, so the
    /// peak is at least `n` even for runs that complete before their first
    /// decision pass (keeps the `active_peak >= active_final` invariant).
    active_peak: u64,
}

impl Scheduler {
    fn new(n: usize) -> Self {
        Scheduler {
            state: vec![NodeState::Active; n],
            worklist: (0..n as u32).collect(),
            woken: Vec::new(),
            merge_buf: Vec::new(),
            active_peak: n as u64,
        }
    }

    /// An ordinary wake event at node `i` (see [`Activity::IdleUntilWoken`]):
    /// re-activates the node if it is idle; quiescent nodes stay retired.
    // gossip-lint: allow(panic-path): state is sized n at construction; node ids are dense
    fn wake(&mut self, i: usize) {
        if self.state[i] == NodeState::Idle {
            self.state[i] = NodeState::Active;
            self.woken.push(i as u32);
        }
    }

    /// A fault wake event at node `i`: unlike [`wake`](Self::wake), it
    /// re-activates even [`NodeState::Quiescent`] nodes — see
    /// [`Activity::Quiescent`], whose retirement promise excludes topology
    /// changes.  Re-waking an already-woken node is a no-op (it is already
    /// `Active` and queued).
    // gossip-lint: allow(panic-path): state is sized n at construction; node ids are dense
    fn force_wake(&mut self, i: usize) {
        if self.state[i] != NodeState::Active {
            self.state[i] = NodeState::Active;
            self.woken.push(i as u32);
        }
    }

    /// Merges the woken nodes into the worklist, keeping it sorted so
    /// decisions stay in ascending node order (wakes arrive in event order
    /// and may repeat across a node's two endpoints' events, hence sort +
    /// dedup).
    // gossip-lint: allow(panic-path): a and b are only indexed while strictly below the lengths they are compared against
    fn admit_woken(&mut self) {
        if !self.woken.is_empty() {
            let (worklist, woken, merged) = (&self.worklist, &mut self.woken, &mut self.merge_buf);
            woken.sort_unstable();
            woken.dedup();
            merged.clear();
            merged.reserve(worklist.len() + woken.len());
            let (mut a, mut b) = (0, 0);
            while a < worklist.len() && b < woken.len() {
                // The `Equal` arm matters under faults: a node that crashed
                // and rejoined in the same round is still in the stale
                // worklist *and* in `woken` — emitting it twice would double
                // its `on_round` call and desynchronise the RNG.
                match worklist[a].cmp(&woken[b]) {
                    std::cmp::Ordering::Less => {
                        merged.push(worklist[a]);
                        a += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(woken[b]);
                        b += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(worklist[a]);
                        a += 1;
                        b += 1;
                    }
                }
            }
            merged.extend_from_slice(&worklist[a..]);
            merged.extend_from_slice(&woken[b..]);
            std::mem::swap(&mut self.worklist, &mut self.merge_buf);
            self.woken.clear();
        }
        self.active_peak = self.active_peak.max(self.worklist.len() as u64);
    }
}

/// Everything one run owns or borrows, with the round's phases as methods
/// (see "Round phases" in the module docs): the dissemination state —
/// round-segment acquisition logs, delayed bitset shadows, and the counters
/// that make every termination check `O(1)` — plus the calendar, the
/// scheduler and the fault machinery.
struct RunState<'a> {
    graph: &'a Graph,
    config: &'a SimConfig,
    rumors: &'a mut [RumorSet],
    /// The current round.
    round: u64,
    threads: usize,
    /// Length of both calendar rings: `max_latency + 1`.
    ring_len: usize,

    /// Per-node acquisition log: every rumor the node knows, one round
    /// segment per merge phase (interval runs or bitset words), truncated
    /// behind the shadow frontier.
    logs: Vec<AcquisitionLog>,
    /// Per-node delayed shadow: the bitset of the node's first
    /// `shadow_len[i]` log entries.  Lazily materialised (empty = none, which
    /// implies `shadow_len[i] == 0`).
    shadows: Vec<Vec<u64>>,
    /// Per-node shadow frontier, as an absolute log position.  Invariant:
    /// every snapshot still in flight from node `i` covers at least this
    /// prefix, so log entries below it are never read again.
    shadow_len: Vec<u32>,
    /// Per-node saturation-collapse flag: the node's rumor set is full, every
    /// possibly-outstanding snapshot of it covers the whole universe, and its
    /// log and shadow have been freed.  Merges from such a node short-circuit
    /// to an `O(pages)` "peer is saturated" union.
    collapsed: Vec<bool>,
    /// `logs[i].len()`, cached as a plain counter (== rumor-set size).
    counts: Vec<usize>,
    /// Number of nodes whose rumor set is full.
    full_nodes: usize,
    /// Rumor whose spread decides [`Termination::AllKnowRumorOf`], if any.
    source_rumor: Option<RumorId>,
    /// Number of nodes that know `source_rumor`.
    source_known_by: usize,
    /// Latency bound of [`Termination::LocalBroadcast`], if any.
    lb_bound: Option<Latency>,
    /// Outstanding `(node, fast neighbor)` pairs for local broadcast.
    lb_deficit: u64,
    /// Rumor tracked for [`RunReport::informed_times`], if any.
    tracked: Option<RumorId>,
    /// Per-node first round the tracked rumor was known (empty if untracked).
    informed_times: Vec<Option<u64>>,
    /// Rejoined nodes still re-disseminating: `(node, rejoin round)` pairs,
    /// removed once the node recovers (or crashes again).  Only ever
    /// non-empty under a fault plan with rejoins, and holds at most the
    /// currently-unrecovered rejoiners — scanning it per changing merge is
    /// effectively free.
    pending_recovery: Vec<(u32, u64)>,
    /// Worst observed re-dissemination latency over recovered rejoiners
    /// ([`FaultReport::recovery_latency`]).
    recovery_latency: Option<u64>,
    mem: MemCounters,

    /// Calendar queue: `completes_at % ring_len` addresses the bucket of
    /// exchanges completing at `completes_at`.  Latencies are in
    /// `1..=max_latency`, so at any instant the live completion times occupy
    /// distinct buckets.
    calendar: Vec<Vec<Flight>>,
    in_flight_count: usize,
    /// Shadow-advancement calendar: a node whose rumor count changed in
    /// round `r` is queued with its end-of-round count (and fault epoch),
    /// and popped `ring_len` rounds later — by then every snapshot still in
    /// flight was taken *after* round `r`, so the frontier may move there.
    shadow_ring: Vec<Vec<(u32, u32, u32)>>,
    /// Per-edge merge watermarks: how much of `v`'s log `u` has already
    /// merged over this edge (`[0]`) and vice versa (`[1]`).
    watermarks: Vec<[u32; 2]>,
    discovered: DiscoveredLatencies,
    /// Per-node count of initiated exchanges still in flight.
    pending_own: Vec<usize>,
    activations: u64,
    rejections: u64,
    /// Per-round scratch: the delivery's merge tasks, the destinations
    /// they changed, and the decision pass's outcomes.
    merge_tasks: Vec<MergeTask>,
    changed_dsts: Vec<u32>,
    decides: Vec<Decide>,
    sched: Scheduler,
    rounds_simulated: u64,
    rounds_skipped: u64,

    /// The plan's events, in round order (empty without a plan — fault-free
    /// runs pay nothing beyond a few predictable branches).
    fault_events: &'a [(u64, FaultEvent)],
    /// Index of the first event not yet applied.
    fault_cursor: usize,
    fault_tally: FaultTally,
    loss: Option<(SmallRng, u32)>,
    /// Liveness of nodes and edges, present exactly under a fault plan.
    alive: Option<AliveView>,
    /// Per-node fault epoch: shadow-ring entries carry the epoch at queue
    /// time, and a crash or rejoin bumps it — stale entries (whose log
    /// positions refer to a freed or reset log) are dropped on pop.  Empty
    /// without a plan.
    epoch: Vec<u32>,
}

impl<'a> RunState<'a> {
    // gossip-lint: allow(panic-path): the rumor vec holds one set per node (checked by the constructors), and node ids are dense
    fn new(graph: &'a Graph, config: &'a SimConfig, rumors: &'a mut [RumorSet]) -> Self {
        let n = rumors.len();
        let source_rumor = match config.termination {
            Termination::AllKnowRumorOf(source) => Some(RumorId::of_node(source)),
            _ => None,
        };
        let lb_bound = match config.termination {
            Termination::LocalBroadcast(bound) => Some(bound),
            _ => None,
        };
        let logs: Vec<AcquisitionLog> = rumors.iter().map(AcquisitionLog::from_set).collect();
        let live_runs: u64 = logs.iter().map(|l| l.retained_runs() as u64).sum();
        let pages_live: u64 = rumors.iter().map(|s| s.live_pages() as u64).sum();
        let plan = config.faults.as_ref();
        let ring_len = graph.max_latency() as usize + 1;
        let mut run = RunState {
            graph,
            config,
            round: 0,
            threads: config.threads.max(1),
            ring_len,
            logs,
            shadows: vec![Vec::new(); n],
            shadow_len: vec![0; n],
            collapsed: vec![false; n],
            counts: rumors.iter().map(RumorSet::len).collect(),
            full_nodes: rumors.iter().filter(|s| s.is_full()).count(),
            source_rumor,
            source_known_by: source_rumor
                .map_or(0, |r| rumors.iter().filter(|s| s.contains(r)).count()),
            lb_bound,
            lb_deficit: 0,
            tracked: config.tracked_rumor,
            informed_times: match config.tracked_rumor {
                Some(r) => rumors
                    .iter()
                    .map(|s| if s.contains(r) { Some(0) } else { None })
                    .collect(),
                None => Vec::new(),
            },
            pending_recovery: Vec::new(),
            recovery_latency: None,
            mem: MemCounters {
                live_runs,
                peak_runs: live_runs,
                pages_live,
                pages_peak: pages_live,
                ..MemCounters::default()
            },
            rumors,
            calendar: (0..ring_len).map(|_| Vec::new()).collect(),
            in_flight_count: 0,
            shadow_ring: (0..ring_len).map(|_| Vec::new()).collect(),
            watermarks: vec![[0, 0]; graph.edge_count()],
            discovered: DiscoveredLatencies::new(graph.edge_count()),
            pending_own: vec![0; n],
            activations: 0,
            rejections: 0,
            merge_tasks: Vec::new(),
            changed_dsts: Vec::new(),
            decides: Vec::new(),
            sched: Scheduler::new(n),
            rounds_simulated: 0,
            rounds_skipped: 0,
            fault_events: plan.map_or(&[], FaultPlan::events),
            fault_cursor: 0,
            fault_tally: FaultTally::default(),
            loss: plan.and_then(FaultPlan::loss_stream),
            alive: plan.map(|_| AliveView::new(graph)),
            epoch: if plan.is_some() {
                vec![0; n]
            } else {
                Vec::new()
            },
        };
        run.lb_deficit = (0..graph.edge_count())
            .map(|e| run.lb_open_across(EdgeId::new(e)))
            .sum();
        // Nodes that start fully saturated (trivial universes, pre-seeded
        // states) have no outstanding snapshots at all: collapse immediately.
        for i in 0..n {
            if run.counts[i] >= run.rumors[i].universe() {
                run.collapse_node(i);
            }
        }
        run
    }

    /// Phase 1: opens the round (it counts as walked) and applies the fault
    /// events scheduled for it.  Runs *before* shadow advances and
    /// deliveries, so an exchange completing this very round but incident
    /// to a node that crashes now (or riding an edge cut now) is cancelled,
    /// never delivered; a crash therefore can never double-adjust a counter
    /// a delivery already touched.
    fn apply_faults(&mut self) {
        self.rounds_simulated += 1;
        while let Some(&(at, event)) = self.fault_events.get(self.fault_cursor) {
            if at > self.round {
                break;
            }
            self.fault_cursor += 1;
            // Each handler ignores an event that changes nothing (crashing
            // a dead node, reviving an alive one, cutting a cut edge); such
            // events are not counted.
            match event {
                FaultEvent::Crash(v) => self.crash(v),
                FaultEvent::Rejoin(v) => self.rejoin(v),
                FaultEvent::CutLink(e) => self.cut(e),
            }
        }
    }

    // gossip-lint: allow(panic-path): fault events exist only under a plan, and a plan always builds the alive view
    fn alive_mut(&mut self) -> &mut AliveView {
        self.alive
            .as_mut()
            .expect("fault events imply an alive view")
    }

    fn is_alive(&self, v: NodeId) -> bool {
        self.alive.as_ref().is_none_or(|a| a.is_node_alive(v))
    }

    /// Crash-stop of `v`: cancels every flight touching it (a surviving
    /// initiator gets its slot back), retires it from every termination
    /// counter, frees its history (a dead node is never merged from again),
    /// and force-wakes its alive neighbors.
    // gossip-lint: allow(panic-path): per-node vecs are sized n at construction; node ids are dense
    fn crash(&mut self, v: NodeId) {
        let graph = self.graph;
        // Pairs across v's edges leave the local-broadcast obligation:
        // count them while v is still alive.
        let open: u64 = graph
            .neighbors(v)
            .map(|(_, e)| self.lb_open_across(e))
            .sum();
        if !self.alive_mut().kill_node(graph, v) {
            return;
        }
        self.fault_tally.crashes += 1;
        self.lb_deficit -= open;
        self.cancel_flights(|fl| fl.initiator == v || fl.responder == v);
        let i = v.index();
        self.pending_own[i] = 0;
        if self.counts[i] >= self.rumors[i].universe() {
            self.full_nodes -= 1;
        }
        if self
            .source_rumor
            .is_some_and(|r| self.rumors[i].contains(r))
        {
            self.source_known_by -= 1;
        }
        self.release_history(i, None);
        // Crashed again before recovering: it never recovers from *this*
        // rejoin (a future rejoin starts a fresh recovery clock).
        self.pending_recovery.retain(|&(w, _)| w as usize != i);
        self.epoch[i] = self.epoch[i].wrapping_add(1);
        self.sched.state[i] = NodeState::Quiescent;
        self.force_wake_alive(graph.neighbors(v).map(|(w, _)| w));
    }

    /// Amnesiac rejoin of `v`: resets it to a fresh singleton rumor state
    /// (fresh log, no shadow, not collapsed), re-enters it into every
    /// termination counter, starts its re-dissemination recovery clock, and
    /// force-wakes it and its alive neighbors.
    // gossip-lint: allow(panic-path): per-node vecs are sized n and per-edge vecs edge_count at construction; ids are dense
    fn rejoin(&mut self, v: NodeId) {
        let graph = self.graph;
        if !self.alive_mut().revive_node(graph, v) {
            return;
        }
        self.fault_tally.rejoins += 1;
        // Zero *both* directions of every incident watermark (the peer's
        // stale high-water mark would otherwise skip the fresh log's prefix,
        // and v must re-merge everything), and forget v's discovered
        // latencies.
        for (_, e) in graph.neighbors(v) {
            self.watermarks[e.index()] = [0, 0];
            self.discovered.unmark(e, graph.edge(e).v == v);
        }
        let i = v.index();
        let universe = self.rumors[i].universe();
        let pages_before = self.rumors[i].live_pages();
        self.rumors[i] = RumorSet::singleton(universe, RumorId::of_node(v));
        self.mem
            .record_page_delta(pages_before, self.rumors[i].live_pages());
        self.release_history(i, Some(AcquisitionLog::from_set(&self.rumors[i])));
        self.collapsed[i] = false;
        self.counts[i] = self.rumors[i].len();
        if self.counts[i] >= universe {
            self.full_nodes += 1;
        }
        if self
            .source_rumor
            .is_some_and(|r| self.rumors[i].contains(r))
        {
            self.source_known_by += 1;
        }
        if self.tracked.is_some_and(|r| self.rumors[i].contains(r))
            && self.informed_times[i].is_none()
        {
            self.informed_times[i] = Some(self.round);
        }
        // v forgot its neighbors' rumors, and they still hold its (identical)
        // rumor or not: re-count both directions from the actual sets.
        self.lb_deficit += graph
            .neighbors(v)
            .map(|(_, e)| self.lb_open_across(e))
            .sum::<u64>();
        if self.recovered(i) {
            self.note_recovery(0);
        } else {
            self.pending_recovery.push((i as u32, self.round));
        }
        self.epoch[i] = self.epoch[i].wrapping_add(1);
        self.force_wake_alive(std::iter::once(v).chain(graph.neighbors(v).map(|(w, _)| w)));
    }

    /// Cuts edge `e` for good: cancels the flights riding it and force-wakes
    /// its alive endpoints.
    fn cut(&mut self, e: EdgeId) {
        let graph = self.graph;
        // The edge's pairs leave the local-broadcast obligation: count them
        // while it is still un-cut.
        let open = self.lb_open_across(e);
        if !self.alive_mut().cut_edge(graph, e) {
            return;
        }
        self.fault_tally.links_cut += 1;
        self.lb_deficit -= open;
        self.cancel_flights(|fl| fl.edge == e);
        let rec = graph.edge(e);
        self.force_wake_alive([rec.u, rec.v]);
    }

    /// Cancels every in-flight exchange `doomed` selects.  An initiator
    /// that is still alive gets its slot back and is force-woken (its
    /// `pending_own` / Blocking-mode `can_initiate` state changed).
    // gossip-lint: allow(panic-path): pending_own is sized n at construction; node ids are dense
    fn cancel_flights(&mut self, doomed: impl Fn(&Flight) -> bool) {
        let RunState {
            calendar,
            in_flight_count,
            fault_tally,
            pending_own,
            sched,
            alive,
            ..
        } = self;
        for flights in calendar.iter_mut() {
            flights.retain(|fl| {
                if !doomed(fl) {
                    return true;
                }
                fault_tally.cancelled += 1;
                *in_flight_count -= 1;
                if alive.as_ref().is_none_or(|a| a.is_node_alive(fl.initiator)) {
                    let i = fl.initiator.index();
                    pending_own[i] = pending_own[i].saturating_sub(1);
                    sched.force_wake(i);
                }
                false
            });
        }
    }

    /// Force-wakes every node of `nodes` that is alive.
    fn force_wake_alive(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        for w in nodes {
            if self.is_alive(w) {
                self.sched.force_wake(w.index());
            }
        }
    }

    /// How many directions of the local-broadcast pair across edge `e` are
    /// still open: none unless the obligation counts the edge (see
    /// [`lb_counts_edge`]), else one per endpoint that does not know the
    /// other's rumor yet.
    // gossip-lint: allow(panic-path): edge endpoints are nodes of the same graph, and the rumor vec holds one set per node
    fn lb_open_across(&self, e: EdgeId) -> u64 {
        let Some(bound) = self.lb_bound else {
            return 0;
        };
        if !lb_counts_edge(self.graph, self.alive.as_ref(), bound, e) {
            return 0;
        }
        let rec = self.graph.edge(e);
        let misses =
            |a: NodeId, b: NodeId| u64::from(!self.rumors[a.index()].contains(RumorId::of_node(b)));
        misses(rec.u, rec.v) + misses(rec.v, rec.u)
    }

    /// Frees node `i`'s history — its retained log and its shadow — and,
    /// on a rejoin, installs the `fresh` log in its place.  The shadow
    /// frontier moves to the first entry the log still retains: nothing
    /// below it is held anywhere any more.
    // gossip-lint: allow(panic-path): per-node vecs are sized n at construction; node ids are dense
    fn release_history(&mut self, i: usize, fresh: Option<AcquisitionLog>) {
        let freed = self.logs[i].truncate_all() as u64;
        self.mem.live_runs -= freed;
        self.mem.truncated_runs += freed;
        self.mem.shadow_words_live -= std::mem::take(&mut self.shadows[i]).len() as u64;
        if let Some(log) = fresh {
            self.mem.live_runs += log.retained_runs() as u64;
            self.mem.peak_runs = self.mem.peak_runs.max(self.mem.live_runs);
            self.logs[i] = log;
        }
        self.shadow_len[i] = self.logs[i].front();
    }

    /// Saturation collapse of `node`: frees its history and marks it
    /// collapsed so merges from it serve "the full universe" in
    /// `O(dst pages)`.
    ///
    /// Sound only when every possibly-outstanding snapshot of the node
    /// covers the whole universe — the callers guarantee it (one calendar
    /// lap after saturation, or at initialisation when nothing is in
    /// flight).  Its rumor set needs no action: [`RumorSet`] collapsed it to
    /// the canonical page-free full representation the moment it saturated.
    // gossip-lint: allow(panic-path): per-node vecs are sized n at construction; node ids are dense
    fn collapse_node(&mut self, node: usize) {
        debug_assert!(!self.collapsed[node]);
        self.release_history(node, None);
        self.collapsed[node] = true;
        self.mem.collapsed_nodes += 1;
    }

    /// Whether rejoined node `i` holds what it must re-learn to count as
    /// *recovered*: the tracked rumor if any, else the `AllKnowRumorOf`
    /// source rumor, else its whole set.
    // gossip-lint: allow(panic-path): the rumor vec holds one set per node; node ids are dense
    fn recovered(&self, i: usize) -> bool {
        match self.tracked.or(self.source_rumor) {
            Some(r) => self.rumors[i].contains(r),
            None => self.rumors[i].is_full(),
        }
    }

    /// If `node` is awaiting recovery and now holds its target, records the
    /// re-dissemination latency and stops tracking it.
    fn check_recovery(&mut self, node: usize) {
        let Some(pos) = self
            .pending_recovery
            .iter()
            .position(|&(v, _)| v as usize == node)
        else {
            return;
        };
        if self.recovered(node) {
            let (_, since) = self.pending_recovery.swap_remove(pos);
            self.note_recovery(self.round - since);
        }
    }

    /// Folds one recovered rejoiner's latency into the worst-case aggregate.
    fn note_recovery(&mut self, latency: u64) {
        self.recovery_latency = Some(
            self.recovery_latency
                .map_or(latency, |cur| cur.max(latency)),
        );
    }

    /// The node's fault epoch (always 0 without a fault plan).
    fn epoch_of(&self, node: usize) -> u32 {
        self.epoch.get(node).copied().unwrap_or(0)
    }

    /// Phase 2: advances the shadow frontiers queued `ring_len` rounds ago
    /// and truncates the logs behind them.  Must drain the ring bucket
    /// before [`deliver`](Self::deliver) queues this round's growth into it.
    /// Entries queued before their node crashed or rejoined are dropped:
    /// their target refers to a freed or reset log.  A finished
    /// saturation-collapse lap is a wake event (see
    /// [`Activity::IdleUntilWoken`]).
    // gossip-lint: allow(panic-path): ring_len >= 1 (max latency + 1) bounds the bucket; node ids in the ring are dense
    fn advance_shadows(&mut self) {
        let bucket = self.round as usize % self.ring_len;
        let mut advances = std::mem::take(&mut self.shadow_ring[bucket]);
        for (node, target, entry_epoch) in advances.drain(..) {
            let i = node as usize;
            if self.epoch_of(i) != entry_epoch {
                continue;
            }
            let was_collapsed = self.collapsed[i];
            self.advance_shadow(i, target);
            if !was_collapsed && self.collapsed[i] {
                self.sched.wake(i);
            }
        }
        self.shadow_ring[bucket] = advances; // keep the bucket's capacity
    }

    /// Advances `node`'s shadow frontier to log position `target` (its rumor
    /// count as of `ring_len` rounds ago — at or behind every snapshot that
    /// can still be in flight), then truncates the log behind the frontier.
    ///
    /// The shadow bitset is materialised lazily: until at least
    /// [`SimConfig::shadow_compaction`] log storage units would be
    /// reclaimed, advancing is skipped entirely — the retained log *is* the
    /// prefix, and stays small.  Word segments fold into the shadow by OR.
    ///
    /// Saturated nodes take the **collapse** path instead: once the queued
    /// target reaches the full universe — i.e. one whole calendar lap has
    /// passed since the node's set went full, so every snapshot of it still
    /// in flight covers everything — the node collapses
    /// ([`collapse_node`](Self::collapse_node)).  While a saturated node
    /// waits for that lap, ordinary advances are skipped (no point
    /// materialising a shadow the collapse is about to free).
    // gossip-lint: allow(panic-path): per-node vecs are sized n at construction; node ids are dense
    fn advance_shadow(&mut self, node: usize, target: u32) {
        if self.collapsed[node] {
            return;
        }
        let universe = self.rumors[node].universe();
        if self.counts[node] >= universe {
            if target as usize == universe {
                self.collapse_node(node);
            }
            return;
        }
        let current = self.shadow_len[node];
        if target <= current {
            return;
        }
        if self.shadows[node].is_empty() {
            if self.logs[node].runs_entirely_below(target) < self.config.shadow_min_truncate_runs {
                return;
            }
            let words = vec![0u64; self.rumors[node].word_count()];
            self.mem.shadow_words_live += words.len() as u64;
            self.mem.shadow_words_peak = self.mem.shadow_words_peak.max(self.mem.shadow_words_live);
            self.shadows[node] = words;
        }
        let shadow = &mut self.shadows[node];
        self.logs[node].for_each_piece(current, target, |piece| match piece {
            LogPiece::Run(first, len) => {
                rumor::set_words_range(shadow, first.index(), len as usize);
            }
            LogPiece::Words(words) => {
                for (s, &w) in shadow.iter_mut().zip(words) {
                    *s |= w;
                }
            }
        });
        self.shadow_len[node] = target;
        let freed = self.logs[node].truncate_below(target) as u64;
        self.mem.live_runs -= freed;
        self.mem.truncated_runs += freed;
        self.mem.shadow_advances += 1;
    }

    /// Phase 3: delivers the exchanges completing at the start of this
    /// round.  A serial prologue in flight order resolves each flight (see
    /// [`resolve_flight`](Self::resolve_flight)); the merge tasks then run
    /// in the canonical order ([`merge_completions`](Self::merge_completions));
    /// each changed destination's growth is queued for shadow advancement
    /// one ring revolution from now and pending rejoin recoveries are
    /// settled, in ascending node order; finally both endpoints of every
    /// delivered flight get [`Protocol::on_exchange`] and a wake event, in
    /// flight order.
    // gossip-lint: allow(panic-path): ring_len >= 1 (max latency + 1) bounds the bucket; node ids are dense
    fn deliver<P: Protocol>(&mut self, protocol: &mut P) {
        let bucket = self.round as usize % self.ring_len;
        let mut completions = std::mem::take(&mut self.calendar[bucket]);
        self.in_flight_count -= completions.len();
        for fl in &completions {
            self.resolve_flight(fl);
        }
        self.changed_dsts.clear();
        self.merge_completions();
        self.merge_tasks.clear();

        let changed = std::mem::take(&mut self.changed_dsts);
        for &node in &changed {
            let entry = (
                node,
                self.counts[node as usize] as u32,
                self.epoch_of(node as usize),
            );
            self.shadow_ring[bucket].push(entry);
        }
        if !self.pending_recovery.is_empty() {
            for &node in &changed {
                self.check_recovery(node as usize);
            }
        }
        self.changed_dsts = changed;

        for fl in completions.drain(..) {
            if fl.lost {
                continue;
            }
            let latency = self.graph.latency(fl.edge);
            for (node, here) in [(fl.initiator, true), (fl.responder, false)] {
                protocol.on_exchange(
                    node,
                    &ExchangeEvent {
                        peer: if here { fl.responder } else { fl.initiator },
                        edge: fl.edge,
                        latency,
                        initiated_here: here,
                        round: self.round,
                    },
                );
                // A completed incident exchange is a wake event: the node
                // may have merged new rumors, its `on_exchange` state
                // changed, and (Blocking mode) `can_initiate` may have
                // flipped.
                self.sched.wake(node.index());
            }
        }
        self.calendar[bucket] = completions; // keep the bucket's capacity
    }

    /// Delivery prologue for one flight: frees the initiator's slot; a lost
    /// flight only tallies its loss and wakes the initiator; otherwise both
    /// endpoints' watermarks are resolved into one merge task per receiving
    /// endpoint and the edge latency is discovered at both.
    // gossip-lint: allow(panic-path): per-node and per-edge vecs are sized n / edge_count at construction; ids are dense
    fn resolve_flight(&mut self, fl: &Flight) {
        let rec = self.graph.edge(fl.edge);
        let ii = fl.initiator.index();
        self.pending_own[ii] = self.pending_own[ii].saturating_sub(1);
        if fl.lost {
            // Timed out in transit: the initiator's slot frees up (a wake
            // event) but nothing is delivered — no merge, no latency
            // discovery, no `on_exchange`.
            self.fault_tally.lost += 1;
            self.sched.force_wake(ii);
            return;
        }
        // Both endpoints merge the peer's log prefix as of initiation, minus
        // what already crossed this edge.
        let [toward_u, toward_v] = &mut self.watermarks[fl.edge.index()];
        let (toward_initiator, toward_responder) = if fl.initiator == rec.u {
            (toward_u, toward_v)
        } else {
            (toward_v, toward_u)
        };
        for (dst, src, upto, mark) in [
            (
                fl.initiator,
                fl.responder,
                fl.responder_known,
                toward_initiator,
            ),
            (
                fl.responder,
                fl.initiator,
                fl.initiator_known,
                toward_responder,
            ),
        ] {
            let start = (*mark).min(upto);
            *mark = (*mark).max(upto);
            if start < upto && self.counts[dst.index()] < self.rumors[dst.index()].universe() {
                self.merge_tasks.push(MergeTask {
                    dst: dst.index() as u32,
                    src: src.index() as u32,
                    start,
                    upto,
                });
            }
        }
        self.discovered.mark(fl.edge, fl.initiator == rec.v);
        self.discovered.mark(fl.edge, fl.responder == rec.v);
    }

    /// Executes the delivery's merge tasks in the **canonical merge order**
    /// — ascending destination, flight order within one destination —
    /// sharded by destination across `threads` workers on the vendored
    /// rayon pool.  Pushes every destination that learned at least one
    /// rumor onto `changed_dsts`, ascending.
    ///
    /// Each task unions `src`'s log prefix `start..upto` into `dst`.  The
    /// prefix is served from three sources: a saturation-collapsed `src` is
    /// unioned as "the full universe" in `O(dst pages)` (its log and shadow
    /// are long gone — every outstanding snapshot of it covers everything,
    /// so the complement of what `dst` knows *is* the delta); otherwise
    /// positions below `src`'s shadow frontier come from the shadow bitset
    /// (one word-OR sweep) and the retained tail is replayed segment by
    /// segment — run by run, or one word-OR per word segment.  Each
    /// destination's new rumors become one round segment of its log.
    ///
    /// # Why sharding cannot change the result
    ///
    /// * **Reordering to canonical order is sound.**  Within one phase,
    ///   merges into *different* destinations touch disjoint rumor state,
    ///   and a destination's tasks keep their flight order (the sort is
    ///   stable).  Snapshots are taken only on round boundaries, after the
    ///   phase has fully landed, so no in-phase interleaving is observable.
    ///   (The per-merge insertion order already differs from the dense
    ///   oracle's — shadow and saturated-peer unions yield ascending rumor
    ///   ids, not learn order — for exactly this reason; `engine_equivalence`
    ///   pins it.)
    /// * **Shard cuts fall only between destinations** ([`partition_tasks`]),
    ///   so phase A mutates disjoint `rumors` slices and phase B disjoint
    ///   `logs`/`counts`/`informed_times` slices; everything else is read
    ///   shared.  No shard ever observes another's writes.
    /// * **Reductions replay the serial walk.**  Counter deltas are summed
    ///   in shard order; the dense-page peak uses the [`PageTrace`]
    ///   composition law; the appended-units peak needs only the phase total
    ///   (`live_runs` is monotone non-decreasing within a phase).  All are
    ///   independent of the cut positions, hence of the thread count.
    ///
    /// The two phases are separated by a barrier: phase B appends to
    /// `logs[dst]` while phase A *reads* `logs[src]`, and any `src` may be
    /// another shard's `dst`.
    fn merge_completions(&mut self) {
        if self.merge_tasks.is_empty() {
            return;
        }
        let RunState {
            graph,
            rumors,
            round,
            threads,
            logs,
            shadows,
            shadow_len,
            collapsed,
            counts,
            full_nodes,
            source_rumor,
            source_known_by,
            lb_bound,
            lb_deficit,
            tracked,
            informed_times,
            mem,
            merge_tasks: tasks,
            changed_dsts,
            alive,
            ..
        } = self;
        let threads = *threads;
        // Stable: tasks into one destination keep their flight order.
        tasks.sort_by_key(|t| t.dst);
        let shard_count = if threads <= 1 || tasks.len() < MIN_PAR_TASKS {
            1
        } else {
            threads
        };
        // Each shard's task range and destination range, shared by both
        // phases: a shard owns destinations up to the first one of the next.
        let task_ends = partition_tasks(tasks, shard_count);
        let dst_ends: Vec<usize> = task_ends
            .iter()
            .map(|&hi| tasks.get(hi).map_or(rumors.len(), |t| t.dst as usize))
            .collect();
        let bases: Vec<usize> = std::iter::once(0).chain(dst_ends.iter().copied()).collect();

        // Phase A: union prefixes into the destinations' paged rumor sets.
        let news: Vec<MergeShardNew> = {
            let (logs, shadows, shadow_len, collapsed) =
                (&**logs, &**shadows, &**shadow_len, &**collapsed);
            let jobs: Vec<_> = split_at_ends(tasks, &task_ends)
                .into_iter()
                .zip(split_at_ends(rumors, &dst_ends))
                .zip(&bases)
                .collect();
            run_jobs(threads, jobs, |((tasks, rumors), &base)| {
                merge_shard_phase_a(tasks, base, rumors, logs, shadows, shadow_len, collapsed)
            })
        };

        // Phase B: append the new segments to the destinations' logs and
        // reduce the counter deltas in shard order.
        let deltas: Vec<MergeShardDelta> = {
            let ctx = MergeCtx {
                graph,
                alive: alive.as_ref(),
                rumors,
                source_rumor: *source_rumor,
                tracked: *tracked,
                lb_bound: *lb_bound,
                round: *round,
            };
            let informed: Vec<Option<&mut [Option<u64>]>> = if tracked.is_some() {
                split_at_ends(informed_times, &dst_ends)
                    .into_iter()
                    .map(Some)
                    .collect()
            } else {
                dst_ends.iter().map(|_| None).collect()
            };
            let jobs: Vec<_> = news
                .iter()
                .zip(&bases)
                .zip(split_at_ends(logs, &dst_ends))
                .zip(split_at_ends(counts, &dst_ends))
                .zip(informed)
                .collect();
            let ctx = &ctx;
            run_jobs(
                threads,
                jobs,
                |((((new, &base), logs), counts), informed)| {
                    merge_shard_phase_b(new, ctx, base, logs, counts, informed)
                },
            )
        };

        // Deterministic reduction, in shard order.
        let mut pages = PageTrace::default();
        for new in &news {
            pages = PageTrace {
                delta: pages.delta + new.pages.delta,
                max_prefix: pages.max_prefix.max(pages.delta + new.pages.max_prefix),
            };
        }
        mem.apply_page_trace(pages);
        for delta in deltas {
            mem.live_runs += delta.appended_runs;
            mem.word_segments += delta.word_segments;
            *full_nodes += delta.full_nodes;
            *source_known_by += delta.source_known_by;
            *lb_deficit -= delta.lb_deficit_sub;
            changed_dsts.extend_from_slice(&delta.changed);
        }
        // `live_runs` only grows within a delivery phase, so the phase-end
        // value is its in-phase peak.
        mem.peak_runs = mem.peak_runs.max(mem.live_runs);
    }

    /// The termination check, on a round boundary.  Under faults,
    /// dissemination conditions quantify over *alive* nodes only (counters
    /// never count dead nodes); with no node alive they hold vacuously.
    fn is_done<P: Protocol>(&self, protocol: &P, round: u64) -> bool {
        let n_alive = self
            .alive
            .as_ref()
            .map_or(self.counts.len(), AliveView::alive_count);
        match self.config.termination {
            Termination::AllKnowRumorOf(_) => self.source_known_by == n_alive,
            Termination::AllKnowAll => self.full_nodes == n_alive,
            Termination::LocalBroadcast(_) => self.lb_deficit == 0,
            Termination::FixedRounds(target) => round >= target,
            Termination::Quiescent => {
                self.in_flight_count == 0
                    && self
                        .graph
                        .nodes()
                        .all(|v| !self.is_alive(v) || protocol.is_idle(v))
            }
        }
    }

    /// Phase 4 (after the termination check): lets every *active* node
    /// act.  Woken nodes join the worklist first; the decision pass
    /// (`pass`, serial or sharded — byte-identical either way, since each
    /// node's RNG stream is independent and decisions only read round-start
    /// state) records one [`Decide`] per worklist entry; then this serial
    /// epilogue applies them in worklist order.  Nodes whose `on_round`
    /// returned `None` and whose `activity` promises silence leave the
    /// worklist here.  An initiation snapshots both endpoints' rumor counts
    /// as of this round's merges.
    // gossip-lint: allow(panic-path): worklist entries and targets are node ids of the graph; ring_len >= 1 bounds the bucket
    fn decide<P: Protocol>(
        &mut self,
        protocol: &mut P,
        pass: fn(&mut P, &DecisionCtx<'_>, &[u32], &mut Vec<Decide>),
    ) {
        self.sched.admit_woken();
        self.decides.clear();
        let ctx = DecisionCtx {
            graph: self.graph,
            rumors: &self.rumors[..],
            alive: self.alive.as_ref(),
            discovered: &self.discovered,
            pending_own: &self.pending_own,
            mode: self.config.mode,
            latencies_known: self.config.latencies_known,
            seed: self.config.seed,
            round: self.round,
            threads: self.threads,
        };
        pass(protocol, &ctx, &self.sched.worklist, &mut self.decides);
        debug_assert_eq!(self.decides.len(), self.sched.worklist.len());
        let mut kept = 0;
        for k in 0..self.decides.len() {
            let i = self.sched.worklist[k] as usize;
            let node = NodeId::new(i);
            let target = match self.decides[k] {
                // Crashed while queued: drop from the worklist (its state is
                // already `Quiescent`; a rejoin force-wake re-admits it).
                Decide::Dead => continue,
                Decide::Silent(activity) => {
                    match activity {
                        Activity::Active => {
                            self.sched.worklist[kept] = i as u32;
                            kept += 1;
                        }
                        Activity::IdleUntilWoken => self.sched.state[i] = NodeState::Idle,
                        Activity::Quiescent => self.sched.state[i] = NodeState::Quiescent,
                    }
                    continue;
                }
                Decide::Target(target) => target,
            };
            self.sched.worklist[kept] = i as u32;
            kept += 1;
            // Unchanged since the decision pass: only `i`'s own epilogue
            // step can bump `pending_own[i]`, and each node appears in the
            // worklist once.
            if self.config.mode == ExchangeMode::Blocking && self.pending_own[i] > 0 {
                continue;
            }
            // A dead peer or cut edge rejects like a non-neighbor (the
            // filtered view means a well-behaved protocol never picks one).
            let edge = self.graph.find_edge(node, target).filter(|&e| {
                self.alive
                    .as_ref()
                    .is_none_or(|a| a.is_edge_alive(e) && a.is_node_alive(target))
            });
            let Some(edge) = edge else {
                self.rejections += 1;
                protocol.on_rejected(node, target, self.round);
                continue;
            };
            let latency = self.graph.latency(edge);
            self.activations += 1;
            self.pending_own[i] += 1;
            self.calendar[(self.round + latency) as usize % self.ring_len].push(Flight {
                initiator: node,
                responder: target,
                edge,
                initiator_known: self.counts[i] as u32,
                responder_known: self.counts[target.index()] as u32,
                // Drawn exactly once per *accepted* initiation, from the
                // dedicated loss stream (never the protocol RNG).
                lost: fault::draw_loss(&mut self.loss),
            });
            self.in_flight_count += 1;
        }
        self.sched.worklist.truncate(kept);
    }

    /// Phase 5: advances the round clock.  With an empty worklist no node
    /// can act until the next calendar event, and rounds without events are
    /// no-ops (no deliveries, no shadow laps, no decisions) — so the clock
    /// fast-forwards straight past them instead of spinning, stopping early
    /// at a `FixedRounds` target or the `max_rounds` cap (both evaluated on
    /// the round counter itself) and at the next fault event (it changes
    /// topology and wakes nodes, so rounds past it are not provably
    /// no-ops).
    ///
    /// One caveat: this round's decision phase ran after this round's
    /// termination check, and for [`Termination::Quiescent`] a final
    /// `on_round` call may have flipped the last `is_idle` — state the check
    /// could not see but that the oracle observes at the next round's
    /// boundary.  Nothing can change *during* a gap (no protocol calls,
    /// frozen counters), so one re-check at `round + 1` is exact: if the run
    /// is done there, walk a single round and let the loop terminate where
    /// the oracle does.
    fn fast_forward<P: Protocol>(&mut self, protocol: &P) {
        let round = self.round;
        if !self.sched.worklist.is_empty() {
            self.round = round + 1;
            return;
        }
        let max_rounds = self.config.max_rounds;
        let mut next = next_event_round(round, self.ring_len, &self.calendar, &self.shadow_ring)
            .unwrap_or(max_rounds)
            .min(max_rounds);
        if let Termination::FixedRounds(target) = self.config.termination {
            // `target > round`, else the termination check would have
            // ended the run.
            next = next.min(target);
        }
        // Pending events all lie strictly after `round` (phase 1 drained
        // the rest); the `max` is defensive.
        if let Some(&(at, _)) = self.fault_events.get(self.fault_cursor) {
            next = next.min(at.max(round + 1));
        }
        if self.is_done(protocol, round + 1) {
            next = next.min(round + 1);
        }
        debug_assert!(next > round);
        self.rounds_skipped += next - round - 1;
        self.round = next;
    }

    /// Builds the run's report once the round loop has stopped (`done` if
    /// it stopped on the termination condition; a run stopped by the round
    /// cap gets one last check at its final round).
    fn finish<P: Protocol>(self, protocol: &P, done: bool) -> RunReport {
        let completed = done || self.is_done(protocol, self.round);
        let n = self.rumors.len() as u64;
        let counters = &self.mem;
        let rumor_set_bytes =
            counters.pages_peak * RumorSet::page_cost_bytes() + n * RumorSet::base_cost_bytes();
        // A run is two u32s; a word-segment header is one run, its words 8 bytes each.
        let peak_log_bytes = counters.peak_runs * 8;
        let shadow_bytes = counters.shadow_words_peak * 8;
        let watermark_bytes = self.graph.edge_count() as u64 * 8;
        let discovery_bytes = self.discovered.bits.len() as u64 * 8;
        let mem = MemStats {
            peak_log_runs: counters.peak_runs,
            peak_log_bytes,
            live_log_runs: counters.live_runs,
            truncated_runs: counters.truncated_runs,
            word_segments: counters.word_segments,
            shadow_advances: counters.shadow_advances,
            shadow_bytes,
            rumor_set_bytes,
            pages_live: counters.pages_live,
            pages_peak: counters.pages_peak,
            saturated_nodes: self.full_nodes as u64,
            collapsed_nodes: counters.collapsed_nodes,
            peak_engine_bytes: rumor_set_bytes
                + shadow_bytes
                + peak_log_bytes
                + watermark_bytes
                + discovery_bytes,
            rounds_simulated: self.rounds_simulated,
            rounds_skipped: self.rounds_skipped,
            active_peak: self.sched.active_peak,
            active_final: self.sched.worklist.len() as u64,
        };
        // Graceful-degradation accounting: present exactly when a fault plan
        // was attached (even an inert one), and computed identically by the
        // oracle — it is part of the semantic report.
        let faults = self.alive.as_ref().map(|av| {
            let (residual_components, largest_component) = av.residual_components(self.graph);
            FaultReport {
                crashes: self.fault_tally.crashes,
                rejoins: self.fault_tally.rejoins,
                links_cut: self.fault_tally.links_cut,
                exchanges_cancelled: self.fault_tally.cancelled,
                exchanges_lost: self.fault_tally.lost,
                alive_nodes: av.alive_count() as u64,
                residual_components,
                largest_component,
                stranded_rumors: fault::stranded_rumors(self.rumors, av),
                recovery_latency: self.recovery_latency,
            }
        });
        RunReport {
            protocol: protocol.name().to_string(),
            rounds: self.round,
            activations: self.activations,
            messages: self.activations * 2,
            completed,
            rejections: self.rejections,
            min_rumors_known: self.counts.iter().copied().min().unwrap_or(0),
            informed_times: (!self.informed_times.is_empty()).then_some(self.informed_times),
            faults,
            mem: Some(mem),
        }
    }
}

/// The synchronous round simulator.
pub struct Simulation<'g> {
    graph: &'g Graph,
    config: SimConfig,
    rumors: Vec<RumorSet>,
}

impl<'g> Simulation<'g> {
    /// Creates a simulation where node `i` initially knows exactly rumor `i`
    /// (the all-to-all starting state, which also covers one-to-all: just
    /// terminate on [`Termination::AllKnowRumorOf`]).
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        let n = graph.node_count();
        let rumors = (0..n)
            .map(|i| RumorSet::singleton(n, RumorId::from(i)))
            .collect();
        Simulation {
            graph,
            config,
            rumors,
        }
    }

    /// Creates a simulation with explicitly provided initial rumor sets
    /// (used to chain protocol phases, e.g. the pattern-broadcast schedule).
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the node count.
    pub fn with_rumors(graph: &'g Graph, config: SimConfig, initial: Vec<RumorSet>) -> Self {
        assert_eq!(
            initial.len(),
            graph.node_count(),
            "one rumor set per node is required"
        );
        Simulation {
            graph,
            config,
            rumors: initial,
        }
    }

    /// Read access to the current rumor sets (indexed by node).
    pub fn rumors(&self) -> &[RumorSet] {
        &self.rumors
    }

    /// Consumes the simulation and returns the rumor sets (after a run).
    pub fn into_rumors(self) -> Vec<RumorSet> {
        self.rumors
    }

    /// Runs `protocol` until the termination condition or the round cap is
    /// reached and returns the run report.
    ///
    /// # Re-running a simulation
    ///
    /// The rumor sets are the only simulation state that survives between
    /// runs.  Calling `run` again (with the same or another protocol)
    /// continues from the *reached rumor state*, but:
    ///
    /// * any exchange still **in flight** when the previous run stopped is
    ///   **dropped** — it never completes and its rumors are never merged;
    /// * the **round counter restarts at 0**, so `max_rounds`,
    ///   [`Termination::FixedRounds`] targets, [`RunReport::rounds`] and
    ///   [`RunReport::informed_times`] are all relative to the new run;
    /// * discovered latencies, pending-exchange counts (Blocking mode) and
    ///   activation counters are likewise reset.
    ///
    /// Protocol state is owned by the caller and is *not* reset; reuse the
    /// same protocol value to continue its program, or pass a fresh one.
    ///
    /// # Determinism and parallelism
    ///
    /// Each node's per-round RNG stream is derived independently from
    /// `(seed, round, node)` (see [`decision_rng`]), and the completion-merge
    /// pass always executes in canonical order — ascending destination node,
    /// flight order within a destination — whatever
    /// [`SimConfig::threads`] says.  Reports are therefore byte-identical
    /// across thread counts, and identical between `run` (serial decision
    /// pass) and [`run_sharded`](Self::run_sharded) (parallel decision pass).
    ///
    /// One timing note: [`Protocol::on_rejected`] fires during the serial
    /// epilogue *after* the round's whole decision pass, not interleaved with
    /// it — a rejection callback can no longer observe later nodes'
    /// undecided state, which is exactly what makes the pass shardable.
    pub fn run<P: Protocol>(&mut self, protocol: &mut P) -> RunReport {
        self.run_inner::<P, SerialDecisions>(protocol)
    }

    /// Runs a [`ShardedProtocol`] with the decision pass fanned out across
    /// [`SimConfig::threads`] workers, in addition to the completion-merge
    /// pass both entry points shard.  The report is byte-identical to
    /// [`run`](Self::run) at any thread count: both drivers derive each
    /// node's RNG stream independently from `(seed, round, node)`, record
    /// one decision per worklist entry, and apply them serially in worklist
    /// order.
    pub fn run_sharded<P: ShardedProtocol>(&mut self, protocol: &mut P) -> RunReport {
        self.run_inner::<P, ShardedDecisions>(protocol)
    }

    /// The round loop: one [`RunState`] driven through the round phases
    /// (see "Round phases" in the module docs) until the termination
    /// condition holds on a round boundary or the round cap is reached.
    fn run_inner<P: Protocol, D: DecisionDriver<P>>(&mut self, protocol: &mut P) -> RunReport {
        let mut run = RunState::new(self.graph, &self.config, &mut self.rumors);
        let mut done = run.is_done(protocol, 0);
        while !done && run.round < self.config.max_rounds {
            run.apply_faults();
            run.advance_shadows();
            run.deliver(protocol);
            done = run.is_done(protocol, run.round);
            if !done {
                run.decide(protocol, D::decide);
                run.fast_forward(protocol);
            }
        }
        run.finish(protocol, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{RandomPushPull, RoundRobinFlood, Silent};
    use gossip_graph::generators;

    #[test]
    fn silent_protocol_never_completes() {
        let g = generators::clique(4, 1).unwrap();
        let config = SimConfig::new(1)
            .termination(Termination::AllKnowAll)
            .max_rounds(50);
        let report = Simulation::new(&g, config).run(&mut Silent);
        assert!(!report.completed);
        assert_eq!(report.activations, 0);
        assert_eq!(report.rounds, 50);
    }

    #[test]
    fn push_pull_completes_one_to_all_on_clique() {
        let g = generators::clique(16, 1).unwrap();
        let config = SimConfig::new(3)
            .termination(Termination::AllKnowRumorOf(NodeId::new(0)))
            .track_rumor(RumorId(0));
        let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
        assert!(report.completed);
        assert!(report.rounds <= 40);
        let times = report.informed_times.unwrap();
        assert!(times.iter().all(Option::is_some));
        assert_eq!(times[0], Some(0));
    }

    #[test]
    fn latency_delays_completion() {
        let slow = generators::clique(8, 10).unwrap();
        let fast = generators::clique(8, 1).unwrap();
        let mk = |g| {
            let config = SimConfig::new(5).termination(Termination::AllKnowAll);
            Simulation::new(g, config).run(&mut RandomPushPull::new(g))
        };
        let slow_report = mk(&slow);
        let fast_report = mk(&fast);
        assert!(slow_report.completed && fast_report.completed);
        // Every exchange on the slow clique needs 10 rounds, so completion
        // cannot beat 10 rounds and should be clearly slower than the fast clique.
        assert!(slow_report.rounds >= 10);
        assert!(
            slow_report.rounds > 2 * fast_report.rounds,
            "latency-10 clique ({}) should be much slower than latency-1 clique ({})",
            slow_report.rounds,
            fast_report.rounds
        );
    }

    #[test]
    fn blocking_mode_throttles_initiations() {
        // A protocol that never goes quiet, so the measured contrast is the
        // exchange *mode* alone (the bundled flood now idles between laps).
        struct Chatty;
        impl Protocol for Chatty {
            fn on_round(&mut self, view: &NodeView<'_>, _rng: &mut SmallRng) -> Option<NodeId> {
                view.can_initiate.then(|| view.neighbors[0].0)
            }
        }
        let g = generators::clique(6, 5).unwrap();
        let blocking = SimConfig::new(9)
            .mode(ExchangeMode::Blocking)
            .termination(Termination::FixedRounds(50));
        let nonblocking = SimConfig::new(9).termination(Termination::FixedRounds(50));
        let b = Simulation::new(&g, blocking).run(&mut Chatty);
        let nb = Simulation::new(&g, nonblocking).run(&mut Chatty);
        // With latency-5 edges a blocking node can start at most 1 exchange
        // per 5 rounds; non-blocking can start one every round.
        assert!(b.activations * 3 < nb.activations);
    }

    #[test]
    fn local_broadcast_termination() {
        let g = generators::dumbbell(4, 50).unwrap();
        // Local broadcast over fast edges only: the bridge (latency 50) is excluded.
        let config = SimConfig::new(4)
            .termination(Termination::LocalBroadcast(1))
            .max_rounds(500);
        let report = Simulation::new(&g, config).run(&mut RoundRobinFlood::new(&g));
        assert!(report.completed);
        assert!(report.rounds < 500);
    }

    #[test]
    fn fixed_round_termination_runs_exactly_that_long() {
        let g = generators::cycle(5, 1).unwrap();
        let config = SimConfig::new(2).termination(Termination::FixedRounds(17));
        let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
        assert_eq!(report.rounds, 17);
        assert!(report.completed);
    }

    #[test]
    fn with_rumors_chains_state_between_runs() {
        let g = generators::path(4, 1).unwrap();
        let config = SimConfig::new(6).termination(Termination::FixedRounds(3));
        let mut sim = Simulation::new(&g, config);
        let _ = sim.run(&mut RoundRobinFlood::new(&g));
        let mid = sim.into_rumors();
        let knew: usize = mid.iter().map(RumorSet::len).sum();

        let config2 = SimConfig::new(6).termination(Termination::AllKnowAll);
        let mut sim2 = Simulation::with_rumors(&g, config2, mid);
        let report = sim2.run(&mut RoundRobinFlood::new(&g));
        assert!(report.completed);
        let final_total: usize = sim2.rumors().iter().map(RumorSet::len).sum();
        assert!(final_total >= knew);
        assert_eq!(final_total, 16);
    }

    #[test]
    fn rerun_drops_in_flight_exchanges_and_restarts_rounds() {
        // Pins the documented continuation semantics of `Simulation::run`:
        // rumor state carries over, in-flight exchanges and the round counter
        // do not.
        let g = generators::path(2, 10).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(5));
        let mut sim = Simulation::new(&g, config);
        let mut protocol = RoundRobinFlood::new(&g);
        let first = sim.run(&mut protocol);
        assert_eq!(first.rounds, 5);
        assert!(first.activations > 0);
        // The latency-10 exchange initiated at round 0 was still in flight at
        // round 5; it is dropped, so nobody has learned anything.
        assert!(sim.rumors().iter().all(|s| s.len() == 1));

        // The reused protocol value continues its program: the flood already
        // completed its relay lap in the first run, so it believes every
        // neighbor has been offered everything and stays quiet.
        let mut sim = Simulation::with_rumors(
            &g,
            SimConfig::new(1).termination(Termination::FixedRounds(12)),
            sim.into_rumors(),
        );
        let continued = sim.run(&mut protocol);
        assert_eq!(continued.rounds, 12);
        assert_eq!(continued.activations, 0, "a clean flood stays quiet");
        assert!(sim.rumors().iter().all(|s| s.len() == 1));

        // Re-running with a *fresh* protocol restarts the round counter (the
        // FixedRounds(12) target is relative to the new run) and re-initiates
        // from scratch: the fresh exchange completes at round 10 of the new
        // run.
        let mut sim = Simulation::with_rumors(
            &g,
            SimConfig::new(1).termination(Termination::FixedRounds(12)),
            sim.into_rumors(),
        );
        let second = sim.run(&mut RoundRobinFlood::new(&g));
        assert_eq!(second.rounds, 12);
        assert!(sim.rumors().iter().all(|s| s.len() == 2));
    }

    #[test]
    fn non_neighbor_targets_are_rejected_and_counted() {
        // A protocol that always targets a non-neighbor: on a path 0-1-2,
        // node 0 contacts node 2.
        struct Confused;
        impl Protocol for Confused {
            fn name(&self) -> &'static str {
                "confused"
            }
            fn on_round(&mut self, view: &NodeView<'_>, _rng: &mut SmallRng) -> Option<NodeId> {
                (view.node.index() == 0).then_some(NodeId::new(2))
            }
            fn on_rejected(&mut self, node: NodeId, target: NodeId, round: u64) {
                // Override the default (which debug_asserts) to observe the event.
                assert_eq!(node, NodeId::new(0));
                assert_eq!(target, NodeId::new(2));
                let _ = round;
            }
        }
        let g = generators::path(3, 1).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(4));
        let report = Simulation::new(&g, config).run(&mut Confused);
        assert_eq!(report.rejections, 4);
        assert_eq!(report.activations, 0);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    #[cfg(debug_assertions)]
    fn default_on_rejected_debug_asserts() {
        struct Confused;
        impl Protocol for Confused {
            fn on_round(&mut self, view: &NodeView<'_>, _rng: &mut SmallRng) -> Option<NodeId> {
                (view.node.index() == 0).then_some(NodeId::new(2))
            }
        }
        let g = generators::path(3, 1).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(4));
        let _ = Simulation::new(&g, config).run(&mut Confused);
    }

    #[test]
    fn shadow_compaction_does_not_change_results_and_reports_memory() {
        // The delayed-shadow machinery is a pure memory optimisation: forcing
        // it on (threshold 0) must leave every semantic field untouched.
        let g = generators::clique(12, 3).unwrap();
        let run = |cfg: SimConfig| Simulation::new(&g, cfg).run(&mut RandomPushPull::new(&g));
        let base = run(SimConfig::new(11).termination(Termination::FixedRounds(40)));
        let forced = run(SimConfig::new(11)
            .termination(Termination::FixedRounds(40))
            .shadow_compaction(0));
        assert_eq!(base.semantics(), forced.semantics());

        let forced_mem = forced.mem.unwrap();
        assert!(forced_mem.shadow_advances > 0, "threshold 0 must advance");
        assert!(forced_mem.truncated_runs > 0, "advancing must truncate");
        assert!(forced_mem.shadow_bytes > 0);
        assert!(forced_mem.peak_engine_bytes >= forced_mem.rumor_set_bytes);

        let lazy_mem = base.mem.unwrap();
        assert_eq!(
            lazy_mem.shadow_advances, 0,
            "12-entry logs never reach the 64-run materialisation threshold"
        );
        assert_eq!(lazy_mem.shadow_bytes, 0);
        assert!(lazy_mem.peak_log_runs > 0);
    }

    #[test]
    fn latency_discovery_through_exchanges() {
        // A protocol can see an incident latency only after using the edge.
        struct Probe {
            learned: Vec<Option<Latency>>,
        }
        impl Protocol for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn on_round(&mut self, view: &NodeView<'_>, _rng: &mut SmallRng) -> Option<NodeId> {
                if view.node.index() == 0 {
                    let (nbr, edge) = view.neighbors[0];
                    let idx = view.round as usize % self.learned.len();
                    self.learned[idx] = view.known_latency(edge);
                    return Some(nbr);
                }
                None
            }
        }
        let g = generators::path(2, 7).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(10));
        let mut p = Probe {
            learned: vec![None; 10],
        };
        let _ = Simulation::new(&g, config).run(&mut p);
        // Round 0: unknown; after the first exchange completes (round 7) it is known.
        assert_eq!(p.learned[0], None);
        assert_eq!(p.learned[9], Some(7));
    }

    #[test]
    fn known_latency_mode_reveals_latencies_immediately() {
        struct Check;
        impl Protocol for Check {
            fn on_round(&mut self, view: &NodeView<'_>, _rng: &mut SmallRng) -> Option<NodeId> {
                let (_, edge) = view.neighbors[0];
                assert_eq!(view.known_latency(edge), Some(7));
                None
            }
        }
        let g = generators::path(2, 7).unwrap();
        let config = SimConfig::new(1)
            .latencies_known(true)
            .termination(Termination::FixedRounds(2));
        let _ = Simulation::new(&g, config).run(&mut Check);
    }

    #[test]
    fn known_latency_is_none_for_foreign_edges() {
        // Node 0 on a path 0-1-2 can never learn the latency of edge (1, 2),
        // even after every edge has carried an exchange.
        struct ProbeForeign {
            foreign: Option<Option<Latency>>,
        }
        impl Protocol for ProbeForeign {
            fn on_round(&mut self, view: &NodeView<'_>, _rng: &mut SmallRng) -> Option<NodeId> {
                if view.node.index() == 0 && view.round == 8 {
                    // Edge id 1 joins nodes 1 and 2 on the path.
                    self.foreign = Some(view.known_latency(EdgeId::new(1)));
                }
                view.neighbors.first().map(|&(w, _)| w)
            }
        }
        let g = generators::path(3, 2).unwrap();
        let config = SimConfig::new(1).termination(Termination::FixedRounds(10));
        let mut p = ProbeForeign { foreign: None };
        let _ = Simulation::new(&g, config).run(&mut p);
        assert_eq!(p.foreign, Some(None));
    }
}
