//! # gossip-tests
//!
//! An integration-only crate: it owns no logic of its own, but wires the
//! repository-root `tests/` (cross-crate integration suites) and `examples/`
//! directories into the Cargo workspace via explicit `[[test]]` and
//! `[[example]]` target entries, so `cargo test -q` runs everything and
//! builds every example.
//!
//! Helpers shared by the integration tests live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use gossip_graph::Graph;
use gossip_sim::oracle::OracleSimulation;
use gossip_sim::{Protocol, RunReport, SimConfig, Simulation};

/// Locates a compiled example binary next to the running test executable.
///
/// Under `cargo test`, integration-test binaries live in
/// `target/<profile>/deps/` and the package's examples are built into
/// `target/<profile>/examples/` before any test runs; this resolves the
/// example's path from [`std::env::current_exe`].
pub fn example_binary(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let deps = exe.parent()?;
    let profile = deps.parent()?;
    let candidate = profile
        .join("examples")
        .join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    candidate.is_file().then_some(candidate)
}

/// Runs one protocol under one config on the engine ([`Simulation::run`])
/// and on the dense-bitset [`OracleSimulation`] specification, requiring
/// identical semantic reports and identical final rumor sets; returns the
/// engine's report.
///
/// Reports are compared through [`RunReport::semantics`]: the engine fills
/// in [`MemStats`](gossip_sim::MemStats) diagnostics the oracle (by design)
/// does not have; every other field must be byte-identical.  The oracle
/// never consults [`Protocol::activity`] and walks every round, so a match
/// also pins the engine's idle skipping and fast-forward.
///
/// # Panics
///
/// Panics, naming `label`, on any mismatch.
pub fn assert_matches_oracle<P: Protocol>(
    g: &Graph,
    config: &SimConfig,
    mut make_protocol: impl FnMut() -> P,
    label: &str,
) -> RunReport {
    let mut sim = Simulation::new(g, config.clone());
    let report = sim.run(&mut make_protocol());

    let mut oracle = OracleSimulation::new(g, config.clone());
    let oracle_report = oracle.run(&mut make_protocol());

    assert!(
        report.mem.is_some() && oracle_report.mem.is_none(),
        "the engine reports memory diagnostics, the oracle does not: {label}"
    );
    assert_eq!(
        report.semantics(),
        oracle_report.semantics(),
        "report mismatch: {label}"
    );
    assert_eq!(
        sim.into_rumors(),
        oracle.into_rumor_sets(),
        "rumor-state mismatch: {label}"
    );
    report
}

/// An Erdős–Rényi core with a star hub attached, under the sweep's slow-link
/// latencies (`Bimodal{16, 0.25}`: exactly a quarter of all edges get
/// latency 16, the rest latency 1).
///
/// Nodes `0..core` form an Erdős–Rényi graph with average degree ≈ 10;
/// node `core` is the hub, joined to core node 0 and to the `leaves` pendant
/// leaves `core + 1 ..`.  The mix exercises both acquisition-log encodings
/// in one run: core nodes learn scattered rumor ids (word segments once a
/// merge brings more runs than the universe has bitset words), while the
/// hub collects its leaves' ids in ascending order and relays them back in
/// bursts (interval runs).
///
/// # Panics
///
/// Panics if `core` is zero (the generators reject it).
pub fn expander_with_star_hub(core: usize, leaves: usize, seed: u64) -> Graph {
    use gossip_graph::latency::LatencyScheme;
    use gossip_graph::GraphBuilder;
    use rand::SeedableRng;

    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let er = gossip_graph::generators::erdos_renyi(core, 10.0 / core as f64, 1, &mut rng)
        .expect("valid Erdős–Rényi parameters");
    let hub = core;
    let mut b = GraphBuilder::new(core + 1 + leaves);
    for rec in er.edges() {
        b.add_edge(rec.u.index(), rec.v.index(), 1)
            .expect("Erdős–Rényi edges are simple");
    }
    b.add_edge(hub, 0, 1).expect("fresh hub edge");
    for leaf in hub + 1..hub + 1 + leaves {
        b.add_edge(hub, leaf, 1).expect("fresh leaf edge");
    }
    let g = b.build_connected().expect("the core is connected");
    LatencyScheme::BimodalFraction {
        slow: 16,
        slow_fraction: 0.25,
    }
    .apply(&g, &mut rng)
    .expect("bimodal latencies apply to any graph")
}
