//! The repository benchmark: four workloads over the `graph`, `sim` and
//! `core` crates, each checked for correctness on every trial.
//!
//! A run draws [`INPUTS`] inputs from its seed, each a graph and a protocol
//! seed.  It sets each input up in turn and repeats trials on it for an equal
//! share of the requested seconds (at least once).  The untraced run reports the
//! [`END_TO_END`] metrics, its times scaled to a reference host speed by
//! [`HostProbe`]; the traced run pairs every untraced trial with a
//! traced one, records spans around each call into a library crate, and
//! reports the [`PER_LAYER`] metrics.  See `README.md` for why each workload
//! exists and which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]

pub mod host;
pub mod trace;

use std::collections::BTreeMap;
// gossip-lint: allow(wall-clock): the benchmark times library calls from outside; no simulated result reads the clock
use std::time::Instant;

use gossip_bench::sweep::{GraphFamily, LatencyProfile};
use gossip_core::{dtg, rr_broadcast, spanner, spanner_broadcast, DisseminationReport, Phase};
use gossip_graph::metrics::{self, DiameterEstimate};
use gossip_graph::{Graph, Latency, NodeId};
use gossip_sim::oracle::OracleSimulation;
use gossip_sim::protocols::RandomPushPull;
use gossip_sim::{MemStats, RumorId, RumorSet, RunReport, SimConfig, Simulation, Termination};
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub use host::HostProbe;
pub use trace::{Span, Tracer};

/// Inputs per run.  `setup_s` is the median over their set-ups, and the
/// exact counts are medians over their first trials, so the counts do not
/// depend on how many trials fit in the time budget.  Several graphs per run
/// keep one unlucky latency draw from moving the run's medians.
pub const INPUTS: usize = 8;

/// The sweep's slow-link profile: a quarter of the edges have latency 16.
const SLOW_LINKS: LatencyProfile = LatencyProfile::Bimodal {
    slow: 16,
    slow_fraction: 0.25,
};

/// End-to-end metrics (name, unit), reported by the untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("trial_s_p50", "s"),
    ("exchanges_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("sim_rounds_p50", "rounds"),
];

/// Per-layer metrics (name, unit), reported by the traced run.  A metric of
/// a layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("graph.build_s", "s"),
    ("graph.latency_s", "s"),
    ("graph.diameter_s", "s"),
    ("graph.edges", "count"),
    ("graph.filter_s", "s"),
    ("graph.self_s", "s"),
    ("core.dtg_s", "s"),
    ("core.spanner_s", "s"),
    ("core.rr_s", "s"),
    ("core.spanner_broadcast_self_s", "s"),
    ("core.self_s", "s"),
    ("core.dtg_activations", "count"),
    ("core.rr_activations", "count"),
    ("core.spanner_edges", "count"),
    ("core.spanner_max_out_degree", "count"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.ns_per_exchange", "ns"),
    ("sim.peak_log_runs", "count"),
    ("sim.truncated_runs", "count"),
    ("sim.truncated_frac", "ratio"),
    ("sim.shadow_advances", "count"),
    ("sim.peak_engine_mb", "MB"),
    ("sim.pages_peak", "count"),
    ("sim.collapsed_nodes", "count"),
    ("sim.rounds_walked", "rounds"),
    ("sim.rounds_skipped", "rounds"),
    ("sim.activations", "count"),
    ("sim.messages", "count"),
    ("sim.active_peak", "count"),
    ("sim.oracle_run_s", "s"),
    ("sim.engine_over_oracle", "ratio"),
    ("sim.sharded_speedup", "ratio"),
    ("host.nproc", "count"),
    ("trace.overhead_s", "s"),
    ("trace.trial_s_p50", "s"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Push–pull all-to-all on a unit-latency Erdős–Rényi graph, `Simulation::run`.
    ErAllToAll,
    /// Push–pull one-to-all from node 0 on the same graph shape with slow links.
    SlowLinkBroadcast,
    /// Push–pull all-to-all on a star, `Simulation::run_sharded` on every core.
    StarAllToAll,
    /// Spanner broadcast with a known diameter bound on a slow-link barbell.
    SpannerPipeline,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ErAllToAll,
        Workload::SlowLinkBroadcast,
        Workload::StarAllToAll,
        Workload::SpannerPipeline,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ErAllToAll => "er-all-to-all",
            Workload::SlowLinkBroadcast => "slow-link-broadcast",
            Workload::StarAllToAll => "star-all-to-all",
            Workload::SpannerPipeline => "spanner-pipeline",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Node count of the benchmarked instance.
    pub fn default_nodes(self) -> usize {
        match self {
            Workload::StarAllToAll => 131_072,
            _ => 4096,
        }
    }

    /// Engine worker threads a trial uses.
    pub fn threads(self) -> usize {
        match self {
            Workload::StarAllToAll => nproc(),
            _ => 1,
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// splitmix64 over `(seed, stream)`: independent seeds for each input's
/// graph, latencies and protocol.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The graph seed and the protocol seed of input `j` of a run.
pub fn input_seeds(seed: u64, j: usize) -> (u64, u64) {
    let j = j as u64;
    (mix(seed, 2 * j + 1), mix(seed, 2 * j + 2))
}

/// Runs `f` and returns its result with its wall-clock seconds.
fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // gossip-lint: allow(wall-clock): the benchmark times library calls from outside; no simulated result reads the clock
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// [`clock`], inside a span called `name` when a tracer is given.
fn timed<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match tracer {
        Some(t) => clock(|| t.span(name, |_| f())),
        None => clock(f),
    }
}

/// The result of one trial.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A run of the simulation engine.
    Sim(RunReport),
    /// A run of the spanner-broadcast pipeline.
    Pipeline(DisseminationReport),
}

impl Outcome {
    /// Simulated rounds.
    fn rounds(&self) -> u64 {
        match self {
            Outcome::Sim(r) => r.rounds,
            Outcome::Pipeline(r) => r.rounds,
        }
    }

    /// Exchanges initiated, as the report states them.
    fn activations(&self) -> u64 {
        match self {
            Outcome::Sim(r) => r.activations,
            Outcome::Pipeline(r) => r.activations,
        }
    }

    /// Whether the dissemination goal was reached.
    fn completed(&self) -> bool {
        match self {
            Outcome::Sim(r) => r.completed,
            Outcome::Pipeline(r) => r.completed,
        }
    }
}

/// Exact counts of one spanner-pipeline trial that its report does not carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineCounts {
    /// Exchanges of the one ℓ-DTG run (the report charges it `⌈log₂ n⌉` times).
    pub dtg_activations: u64,
    /// Exchanges of the round-robin broadcast.
    pub rr_activations: u64,
    /// Edges of the directed spanner.
    pub spanner_edges: u64,
    /// Largest out-degree of the directed spanner.
    pub spanner_max_out_degree: u64,
}

/// A workload's graph, ready for trials.
pub struct Instance {
    /// The workload the instance belongs to.
    pub workload: Workload,
    /// The graph, with its latencies applied.
    pub graph: Graph,
    /// Bounds on the weighted diameter.
    pub diameter: DiameterEstimate,
}

impl Instance {
    /// Builds the graph, applies the latency profile and bounds the diameter;
    /// returns the instance and the seconds the three steps took.
    pub fn setup(
        workload: Workload,
        nodes: usize,
        seed: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(Instance, f64), String> {
        let family = match workload {
            Workload::ErAllToAll | Workload::SlowLinkBroadcast => GraphFamily::ErdosRenyi {
                p: 8.0 * (nodes as f64).ln() / nodes as f64,
            },
            Workload::StarAllToAll => GraphFamily::Star,
            Workload::SpannerPipeline => GraphFamily::Barbell { bridge_len: 4 },
        };
        let mut graph_rng = SmallRng::seed_from_u64(mix(seed, 1));
        let (built, build_s) = timed(tracer.as_deref_mut(), "graph.build", || {
            family.build(nodes, &mut graph_rng)
        });
        let reweighted = match workload {
            Workload::SlowLinkBroadcast | Workload::SpannerPipeline => {
                let mut latency_rng = SmallRng::seed_from_u64(mix(seed, 2));
                Some(timed(tracer.as_deref_mut(), "graph.latency", || {
                    SLOW_LINKS.apply(&built, &mut latency_rng)
                }))
            }
            Workload::ErAllToAll | Workload::StarAllToAll => None,
        };
        // The spanner pipeline takes its bound from the as-built barbell, so
        // every input shares one bound.  The algorithm needs the diameter only
        // up to constant factors, and re-weighting changes it by less than the
        // hop diameter (6) times the largest latency (16); every trial checks
        // completion.  Bounds of the re-weighted graphs would instead follow
        // how many of the four bridge edges came out slow, splitting the
        // inputs into regimes whose round counts differ up to 14-fold.
        let bounded = match (&reweighted, workload) {
            (Some((g, _)), Workload::SlowLinkBroadcast) => g,
            _ => &built,
        };
        let (diameter, diameter_s) = timed(tracer, "graph.diameter", || {
            metrics::estimate_diameter(bounded)
        });
        let (graph, latency_s) = reweighted.unwrap_or((built, 0.0));
        let diameter =
            diameter.ok_or_else(|| format!("{}: graph is disconnected", workload.name()))?;
        let instance = Instance {
            workload,
            graph,
            diameter,
        };
        Ok((instance, build_s + latency_s + diameter_s))
    }

    /// The diameter bound the spanner pipeline is given: the estimate's upper end.
    fn bound(&self) -> Latency {
        self.diameter.upper.max(1)
    }

    /// The engine configuration of a trial: the one `gossip_core::push_pull`
    /// builds, with the workload's thread count.
    fn sim_config(&self, seed: u64) -> SimConfig {
        // `push_pull`'s cap: n rounds per unit of maximum latency, at least 10 000.
        let cap = (self.graph.node_count() as u64)
            .saturating_mul(self.graph.max_latency().max(1))
            .saturating_mul(4)
            .max(10_000);
        let config = SimConfig::new(seed).max_rounds(cap);
        let source = NodeId::new(0);
        match self.workload {
            Workload::SlowLinkBroadcast => config
                .termination(Termination::AllKnowRumorOf(source))
                .track_rumor(RumorId::of_node(source)),
            _ => config
                .termination(Termination::AllKnowAll)
                .threads(self.workload.threads()),
        }
    }

    /// Runs push–pull through the engine entry point of the workload.
    fn simulate(&self, config: SimConfig) -> RunReport {
        let mut protocol = RandomPushPull::new(&self.graph);
        let mut sim = Simulation::new(&self.graph, config);
        match self.workload {
            Workload::StarAllToAll => sim.run_sharded(&mut protocol),
            _ => sim.run(&mut protocol),
        }
    }

    /// Runs push–pull on the dense oracle engine.
    fn oracle(&self, seed: u64) -> RunReport {
        OracleSimulation::new(&self.graph, self.sim_config(seed))
            .run(&mut RandomPushPull::new(&self.graph))
    }

    /// The span name of the engine call a trial makes.
    fn engine_span(&self) -> &'static str {
        match self.workload {
            Workload::StarAllToAll => "sim.run_sharded",
            _ => "sim.run",
        }
    }

    /// One trial: the call the benchmark times.  With a tracer, the trial
    /// records a span around each call into a library crate; the spanner
    /// pipeline is then re-enacted phase by phase from its public phase calls.
    pub fn run_trial(&self, seed: u64, tracer: Option<&mut Tracer>) -> (Outcome, PipelineCounts) {
        match (self.workload, tracer) {
            (Workload::SpannerPipeline, None) => (
                Outcome::Pipeline(spanner_broadcast::run_known_diameter_with(
                    &self.graph,
                    self.bound(),
                    seed,
                )),
                PipelineCounts::default(),
            ),
            (Workload::SpannerPipeline, Some(t)) => {
                let (report, counts) = self.pipeline_phases(seed, t);
                (Outcome::Pipeline(report), counts)
            }
            (_, tracer) => {
                let config = self.sim_config(seed);
                let (report, _) = timed(tracer, self.engine_span(), || self.simulate(config));
                (Outcome::Sim(report), PipelineCounts::default())
            }
        }
    }

    /// `spanner_broadcast::run_known_diameter_with`, re-enacted from its
    /// public phase functions so each phase gets its own span.  It must
    /// return the report of `run_known_diameter_with` exactly (checked on
    /// every traced trial).
    fn pipeline_phases(&self, seed: u64, t: &mut Tracer) -> (DisseminationReport, PipelineCounts) {
        let g = &self.graph;
        let k = self.bound();
        t.span("core.spanner_broadcast", |t| {
            let n = g.node_count();
            let rumors: Vec<RumorSet> = (0..n)
                .map(|i| RumorSet::singleton(n, RumorId::from(i)))
                .collect();
            let log_n = u64::from(usize::BITS - (n.max(2) - 1).leading_zeros());
            let filtered = t.span("graph.filter", |_| g.latency_filtered(k));
            let (dtg_report, rumors, _) = t.span("core.dtg", |_| {
                dtg::run_with_rumors(&filtered, k, seed, rumors, false)
            });
            let spanner = t.span("core.spanner", |_| {
                spanner::log_spanner(&filtered, seed ^ 0x5eed)
            });
            let (rr_report, rumors) = t.span("core.rr", |_| {
                rr_broadcast::run_with_rumors(
                    &filtered,
                    &spanner,
                    k.saturating_mul(log_n + 1),
                    seed ^ 0xb0a,
                    rumors,
                )
            });
            let report = DisseminationReport::from_phases(
                "spanner-broadcast",
                vec![
                    Phase::new(
                        "discovery",
                        dtg_report.rounds * log_n,
                        dtg_report.activations * log_n,
                    ),
                    Phase::new("spanner-construction", 0, 0),
                    Phase::new("rr-broadcast", rr_report.rounds, rr_report.activations),
                ],
                rumors.iter().all(RumorSet::is_full),
            );
            let counts = PipelineCounts {
                dtg_activations: dtg_report.activations,
                rr_activations: rr_report.activations,
                spanner_edges: spanner.edge_count() as u64,
                spanner_max_out_degree: spanner.max_out_degree() as u64,
            };
            (report, counts)
        })
    }

    /// The checks every trial passes: the run completed, and its final
    /// state is the workload's goal.
    fn check(&self, outcome: &Outcome) -> Result<(), String> {
        if !outcome.completed() {
            return Err("did not complete".to_string());
        }
        let n = self.graph.node_count();
        // Every node is at least half the diameter from some other node, and
        // two nodes are the diameter apart.
        let min_rounds = match self.workload {
            Workload::SlowLinkBroadcast => self.diameter.lower.div_ceil(2),
            _ => self.diameter.lower,
        };
        match (self.workload, outcome) {
            (Workload::SpannerPipeline, Outcome::Pipeline(_)) => Ok(()),
            (Workload::SpannerPipeline, _) | (_, Outcome::Pipeline(_)) => {
                Err("wrong report kind".to_string())
            }
            (_, Outcome::Sim(r)) if r.rounds < min_rounds => Err(format!(
                "{} rounds beat the diameter bound {min_rounds}",
                r.rounds
            )),
            (Workload::SlowLinkBroadcast, Outcome::Sim(r)) => match r.last_informed_time() {
                Some(t) if t <= r.rounds => Ok(()),
                _ => Err("a node never learned the source rumor".to_string()),
            },
            (workload, Outcome::Sim(r)) => {
                let saturated = r.mem.map_or(0, |m| m.saturated_nodes);
                if r.min_rumors_known != n {
                    Err(format!("min_rumors_known {} != {n}", r.min_rumors_known))
                } else if workload == Workload::StarAllToAll && saturated != n as u64 {
                    Err(format!("saturated_nodes {saturated} != {n}"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The check against an independent computation, run once per untraced
    /// run: the dense oracle's semantics for the engine workloads, the
    /// phase-by-phase re-enactment for the spanner pipeline.
    fn check_reference(&self, seed: u64, outcome: &Outcome) -> Result<(), String> {
        let expected = match self.workload {
            Workload::ErAllToAll | Workload::SlowLinkBroadcast => Outcome::Sim(self.oracle(seed)),
            Workload::SpannerPipeline => {
                Outcome::Pipeline(self.pipeline_phases(seed, &mut Tracer::default()).0)
            }
            Workload::StarAllToAll => return Ok(()),
        };
        same_semantics(&expected, outcome)
    }
}

/// Whether two outcomes agree on everything but the engine's memory counters.
fn same_semantics(expected: &Outcome, actual: &Outcome) -> Result<(), String> {
    let strip = |o: &Outcome| match o {
        Outcome::Sim(r) => Outcome::Sim(r.semantics()),
        Outcome::Pipeline(r) => Outcome::Pipeline(r.clone()),
    };
    if strip(expected) == strip(actual) {
        Ok(())
    } else {
        Err(format!(
            "report differs from the reference: expected {expected:?}, got {actual:?}"
        ))
    }
}

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Node count of the instance.
    pub nodes: usize,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Seconds of trials to run (every input runs at least once regardless).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// The result of a run.
#[derive(Debug)]
pub struct RunResult {
    /// Trials attempted.
    pub attempted: usize,
    /// Trials that failed to complete or failed a check.
    pub failed: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric values by name: [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The untraced run's unscaled wall-clock times and its median probe
    /// reading, in seconds (empty for a traced run).
    pub wall: BTreeMap<&'static str, f64>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl RunResult {
    /// The metrics with their units, in registry order.
    pub fn measurements(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let registry: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        registry
            .iter()
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            .map(|&(name, unit)| (name, self.metrics[name] + 0.0, unit))
            .collect()
    }

    /// Failed trials over trials attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Median; 0 for no values.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Records trial verdicts: a trial fails if it did not complete, failed a
/// check, or differs from the first trial of its input.
#[derive(Default)]
struct Verdicts {
    failed: Vec<bool>,
    failures: Vec<String>,
}

impl Verdicts {
    /// Number of trials recorded so far, which is the next trial's index.
    fn attempted(&self) -> usize {
        self.failed.len()
    }

    fn record(&mut self, verdict: Result<(), String>) {
        self.failed.push(false);
        self.fail(self.failed.len() - 1, verdict);
    }

    /// Marks an already recorded trial failed if `verdict` is an error.
    fn fail(&mut self, trial: usize, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.failed[trial] = true;
            self.failures.push(format!("trial {trial}: {e}"));
        }
    }

    fn failed(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }
}

/// The first trial of each input: its index, outcome and pipeline counts.
#[derive(Default)]
struct FirstOutcomes(Vec<(usize, Outcome, PipelineCounts)>);

impl FirstOutcomes {
    /// Keeps the first trial of input `j`; a repeat must equal it.
    fn check_repeat(
        &mut self,
        j: usize,
        trial: usize,
        outcome: &Outcome,
        counts: PipelineCounts,
    ) -> Result<(), String> {
        match self.0.get(j) {
            None => {
                self.0.push((trial, outcome.clone(), counts));
                Ok(())
            }
            Some((_, first, _)) if first == outcome => Ok(()),
            Some(_) => Err("a repeat of the input gave a different report".to_string()),
        }
    }

    /// Median over the inputs of an exact count.
    fn median_of(&self, f: impl Fn(&Outcome, &PipelineCounts) -> f64) -> f64 {
        let values: Vec<f64> = self.0.iter().map(|(_, o, c)| f(o, c)).collect();
        median(&values)
    }

    /// Median over the inputs of a count of the engine report (0 on the pipeline).
    fn sim_median(&self, f: impl Fn(&RunReport) -> f64) -> f64 {
        self.median_of(|o, _| match o {
            Outcome::Sim(r) => f(r),
            Outcome::Pipeline(_) => 0.0,
        })
    }

    /// Median over the inputs of an engine memory counter.
    fn mem_median(&self, f: impl Fn(&MemStats) -> u64) -> f64 {
        self.sim_median(|r| r.mem.map_or(0.0, |m| f(&m) as f64))
    }
}

/// Sets up each input of the run in turn and calls `trial` on it with the
/// input's index and protocol seed, at least once, until the trials of
/// inputs `0..=j` have used their `(j + 1) / INPUTS` share of
/// `opts.seconds`.  Only one input's graph is alive at a time.  Returns the
/// set-up seconds of every input and the last instance.
fn for_each_input(
    opts: &Options,
    mut tracer: Option<&mut Tracer>,
    mut trial: impl FnMut(&Instance, usize, u64, Option<&mut Tracer>),
) -> Result<(Vec<f64>, Instance), String> {
    let mut spent = 0.0;
    let mut setup_s = Vec::with_capacity(INPUTS);
    let mut last = None;
    for j in 0..INPUTS {
        drop(last.take());
        let (graph_seed, protocol_seed) = input_seeds(opts.seed, j);
        if let Some(t) = tracer.as_deref_mut() {
            t.set_trial(None);
        }
        let (instance, seconds) =
            Instance::setup(opts.workload, opts.nodes, graph_seed, tracer.as_deref_mut())?;
        setup_s.push(seconds);
        let deadline = opts.seconds * (j + 1) as f64 / INPUTS as f64;
        // gossip-lint: allow(wall-clock): the benchmark times library calls from outside; no simulated result reads the clock
        let start = Instant::now();
        loop {
            trial(&instance, j, protocol_seed, tracer.as_deref_mut());
            if spent + start.elapsed().as_secs_f64() >= deadline {
                break;
            }
        }
        spent += start.elapsed().as_secs_f64();
        last = Some(instance);
    }
    Ok((setup_s, last.expect("INPUTS > 0")))
}

/// Runs the benchmark as `opts` asks.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_with(opts, |instance, seed| instance.run_trial(seed, None))
    }
}

/// The untraced run, with `trial` standing in for [`Instance::run_trial`]
/// (tests pass one that corrupts its report).
pub fn run_with(
    opts: &Options,
    mut trial: impl FnMut(&Instance, u64) -> (Outcome, PipelineCounts),
) -> Result<RunResult, String> {
    let mut first = FirstOutcomes::default();
    let mut verdicts = Verdicts::default();
    let (mut wall_s, mut probe_s, mut activations) = (Vec::new(), Vec::new(), 0u64);
    let mut peak = None;
    let mut probe: Option<HostProbe> = None;
    // The input of the latest trial and the probe reading right after it.
    let mut latest: Option<(usize, f64)> = None;
    let threads = opts.workload.threads();
    let (setup_s, last) = for_each_input(opts, None, |instance, j, seed, _| {
        // The reading right before the trial: the one after the previous
        // trial of this input, or a fresh one after a set-up.
        let before = match (latest, &probe) {
            (Some((k, reading)), _) if k == j => Some(reading),
            (_, Some(probe)) => Some(probe.read(threads)),
            _ => None,
        };
        let ((outcome, counts), dt) = clock(|| trial(instance, seed));
        // Peak memory is that of one set-up and one trial.  Repeated trials
        // fragment the heap, so a later reading would depend on how many
        // trials fit in the time; the probe and the checks allocate after
        // this reading.
        peak.get_or_insert_with(peak_rss_mb);
        wall_s.push(dt);
        let after = probe.get_or_insert_with(HostProbe::new).read(threads);
        latest = Some((j, after));
        probe_s.push(before.map_or(after, |b| (b + after) / 2.0));
        activations += outcome.activations();
        let repeat = first.check_repeat(j, verdicts.attempted(), &outcome, counts);
        verdicts.record(instance.check(&outcome).and(repeat));
    })?;
    let peak_rss_mb = peak.expect("every input runs a trial")?;
    let (_, protocol_seed) = input_seeds(opts.seed, INPUTS - 1);
    let (i, outcome, _) = first.0.last().expect("every input ran");
    verdicts.fail(*i, last.check_reference(protocol_seed, outcome));
    let (attempted, failed) = (verdicts.attempted(), verdicts.failed());
    // Each trial is scaled by the mean of the probe readings right before
    // and right after it (only after, for the first, which runs before the
    // probe exists); the set-ups, a few short steps each, by the run's
    // median reading.
    let seconds: Vec<f64> = wall_s
        .iter()
        .zip(&probe_s)
        .map(|(&s, &p)| HostProbe::scale(s, p))
        .collect();
    let probe_p50 = median(&probe_s);
    let metrics = BTreeMap::from([
        ("trial_s_p50", median(&seconds)),
        (
            "exchanges_per_s",
            activations as f64 / seconds.iter().sum::<f64>(),
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", HostProbe::scale(median(&setup_s), probe_p50)),
        ("ok_frac", 1.0 - failed as f64 / attempted as f64),
        ("sim_rounds_p50", first.median_of(|o, _| o.rounds() as f64)),
    ]);
    let wall = BTreeMap::from([
        ("probe_s_p50", probe_p50),
        ("trial_s_p50", median(&wall_s)),
        ("setup_s", median(&setup_s)),
    ]);
    Ok(RunResult {
        attempted,
        failed,
        failures: verdicts.failures,
        metrics,
        wall,
        tracer: None,
    })
}

/// The traced run: every trial is made twice, untraced and traced, in
/// alternating order, followed by a comparison run outside the trial span
/// (the dense oracle, or the engine on one thread for the sharded workload).
fn run_traced(opts: &Options) -> Result<RunResult, String> {
    let workload = opts.workload;
    let mut tracer = Tracer::default();
    let mut first = FirstOutcomes::default();
    let mut verdicts = Verdicts::default();
    let (mut untraced_s, mut traced_activations) = (Vec::new(), 0u64);
    let (_, last) = for_each_input(opts, Some(&mut tracer), |instance, j, seed, tracer| {
        let tracer = tracer.expect("the traced run passes its tracer");
        let i = verdicts.attempted();
        tracer.set_trial(Some(i));
        let mut plain = None;
        let mut traced = None;
        for step in [i % 2, 1 - i % 2] {
            if step == 0 {
                let (out, dt) = clock(|| instance.run_trial(seed, None));
                untraced_s.push(dt);
                plain = Some(out.0);
            } else {
                traced = Some(tracer.span("trial", |t| instance.run_trial(seed, Some(t))));
            }
        }
        let plain = plain.expect("both steps ran");
        let (traced, counts) = traced.expect("both steps ran");
        traced_activations += traced.activations();
        let reference = match workload {
            Workload::ErAllToAll | Workload::SlowLinkBroadcast => Some(Outcome::Sim(
                tracer.span("sim.oracle_run", |_| instance.oracle(seed)),
            )),
            Workload::StarAllToAll => {
                let config = instance.sim_config(seed).threads(1);
                Some(Outcome::Sim(
                    tracer.span("sim.run_serial", |_| instance.simulate(config)),
                ))
            }
            Workload::SpannerPipeline => None,
        };
        let repeat = first.check_repeat(j, i, &traced, counts);
        let verdict = instance
            .check(&traced)
            .and_then(|()| same_semantics(&plain, &traced))
            .and_then(|()| reference.map_or(Ok(()), |r| same_semantics(&r, &traced)))
            .and(repeat);
        verdicts.record(verdict);
    })?;

    let med = |name: &str| median(&tracer.durations(name));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let engine_s = tracer.durations(last.engine_span());
    let run_s = median(&engine_s);
    let broadcast_self: Vec<f64> = untraced_s
        .iter()
        .zip(tracer.child_time("core.spanner_broadcast"))
        .map(|(total, children)| total - children)
        .collect();
    let layer_self = |layer: &str| median(&tracer.layer_self_time("trial", layer));
    let trial_s = med("trial");
    let metrics = BTreeMap::from([
        ("graph.build_s", med("graph.build")),
        ("graph.latency_s", med("graph.latency")),
        ("graph.diameter_s", med("graph.diameter")),
        ("graph.edges", last.graph.edge_count() as f64),
        ("graph.filter_s", med("graph.filter")),
        ("graph.self_s", layer_self("graph")),
        ("core.dtg_s", med("core.dtg")),
        ("core.spanner_s", med("core.spanner")),
        ("core.rr_s", med("core.rr")),
        ("core.spanner_broadcast_self_s", median(&broadcast_self)),
        ("core.self_s", layer_self("core")),
        (
            "core.dtg_activations",
            first.median_of(|_, c| c.dtg_activations as f64),
        ),
        (
            "core.rr_activations",
            first.median_of(|_, c| c.rr_activations as f64),
        ),
        (
            "core.spanner_edges",
            first.median_of(|_, c| c.spanner_edges as f64),
        ),
        (
            "core.spanner_max_out_degree",
            first.median_of(|_, c| c.spanner_max_out_degree as f64),
        ),
        ("sim.run_s", run_s),
        ("sim.self_s", layer_self("sim")),
        (
            "sim.ns_per_exchange",
            ratio(
                engine_s.iter().sum::<f64>() * 1e9,
                traced_activations as f64,
            ),
        ),
        ("sim.peak_log_runs", first.mem_median(|m| m.peak_log_runs)),
        ("sim.truncated_runs", first.mem_median(|m| m.truncated_runs)),
        (
            "sim.truncated_frac",
            first.sim_median(|r| {
                r.mem.map_or(0.0, |m| {
                    ratio(
                        m.truncated_runs as f64,
                        (m.truncated_runs + m.live_log_runs) as f64,
                    )
                })
            }),
        ),
        (
            "sim.shadow_advances",
            first.mem_median(|m| m.shadow_advances),
        ),
        (
            "sim.peak_engine_mb",
            first.mem_median(|m| m.peak_engine_bytes) / 1e6,
        ),
        ("sim.pages_peak", first.mem_median(|m| m.pages_peak)),
        (
            "sim.collapsed_nodes",
            first.mem_median(|m| m.collapsed_nodes),
        ),
        (
            "sim.rounds_walked",
            first.mem_median(|m| m.rounds_simulated),
        ),
        ("sim.rounds_skipped", first.mem_median(|m| m.rounds_skipped)),
        (
            "sim.activations",
            first.sim_median(|r| r.activations as f64),
        ),
        ("sim.messages", first.sim_median(|r| r.messages as f64)),
        ("sim.active_peak", first.mem_median(|m| m.active_peak)),
        ("sim.oracle_run_s", med("sim.oracle_run")),
        (
            "sim.engine_over_oracle",
            ratio(run_s, med("sim.oracle_run")),
        ),
        ("sim.sharded_speedup", ratio(med("sim.run_serial"), run_s)),
        ("host.nproc", nproc() as f64),
        ("trace.overhead_s", trial_s - median(&untraced_s)),
        ("trace.trial_s_p50", trial_s),
    ]);
    Ok(RunResult {
        attempted: verdicts.attempted(),
        failed: verdicts.failed(),
        failures: verdicts.failures,
        metrics,
        wall: BTreeMap::new(),
        tracer: Some(tracer),
    })
}
