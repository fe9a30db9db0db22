//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  Prints a header naming the seed, the core
//! count, the thread count, the compiler and the source revision, then one
//! line per metric, and last one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.  A traced run also writes its spans
//! to `perfbench/traces/<workload>-seed<n>.json`.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::{Command, ExitCode};

use perfbench::{nproc, run, Options, Workload, INPUTS};

const USAGE: &str = "usage: perfbench --workload <er-all-to-all|slow-link-broadcast|star-all-to-all|spanner-pipeline> --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        nodes: workload.default_nodes(),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// FNV-1a over the paths and contents of the benchmarked sources, which
/// names the revision where there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x} ({} files)", files.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&opts) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &result.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let name = opts.workload.name();
    println!(
        "# workload={name} seed={} nodes={} threads={} nproc={} trace={} rustc=\"{}\" commit={} source={}",
        opts.seed,
        opts.nodes,
        opts.workload.threads(),
        nproc(),
        u8::from(opts.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit(),
        source_digest(),
    );
    println!(
        "# trials={} over {INPUTS} inputs, failed={} failed_frac={}",
        result.attempted,
        result.failed,
        result.failed_frac()
    );
    if !result.wall.is_empty() {
        let wall: Vec<String> = result
            .wall
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        println!(
            "# unscaled wall-clock seconds: {} (times below are at the reference speed, probe_s = {})",
            wall.join(" "),
            perfbench::host::REFERENCE_PROBE_S
        );
    }
    if let Some(tracer) = &result.tracer {
        let dir = Path::new("perfbench/traces");
        let path = dir.join(format!("{name}-seed{}.json", opts.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
            Ok(()) => println!(
                "# spans={} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let measurements = result.measurements(opts.trace);
    for (metric, value, unit) in &measurements {
        println!("{metric} {value} {unit}");
    }
    let metrics: Vec<String> = measurements
        .iter()
        .map(|(metric, value, unit)| {
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
