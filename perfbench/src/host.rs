//! A host-speed probe, so that the end-to-end times of runs made minutes
//! apart on a shared host can be compared.
//!
//! On a host whose caches and memory are shared with other tenants, the same
//! trial on the same input can take 1.6 s in one minute and 3.0 s in the
//! next, while a pure arithmetic loop barely moves: what changes is the
//! latency of the memory system.  The probe measures that latency with two
//! fixed chains of dependent loads, independent of the benchmarked crates:
//! one through a buffer that stays in the last-level cache and one through a
//! buffer the size of a large share of it, as the graph and rumor structures
//! of a trial are, on as many threads as the trial runs.  The untraced run
//! reads it around every trial and scales each measured time by
//! ([`REFERENCE_PROBE_S`] over the reading) to the power [`SENSITIVITY`],
//! which estimates the time at a fixed memory latency.  A change to the
//! program moves the scaled times as much as the wall-clock ones; a change of
//! the host's load moves them less.

// gossip-lint: allow(wall-clock): the benchmark times library calls from outside; no simulated result reads the clock
use std::time::Instant;

/// Slots and loads per reading of the two chains: 4 MiB walked 1 Mi times,
/// and 64 MiB walked 500 000 times; about 0.12 s together.
const CHAINS: [(usize, usize); 2] = [(1 << 20, 1 << 20), (1 << 24, 500_000)];

/// What a reading takes on an unloaded host (a Xeon with a 105 MiB
/// last-level cache), the speed scaled times are reported at.
pub const REFERENCE_PROBE_S: f64 = 0.12;

/// How a trial's time follows the probe's: a trial that runs next to a
/// reading `k` times the reference is taken to run `k^SENSITIVITY` times
/// slower than at the reference.  A trial is only partly bound by memory
/// latency: fitted over two sets of ten runs of each of the four workloads,
/// the exponent came out between 0.3 and 0.9, and 0.5 left the scaled run
/// medians within 0.02 of their least spread in seven of the eight sets,
/// while 1 over-corrected.
pub const SENSITIVITY: f64 = 0.5;

/// One random cycle through every slot of each chain.
pub struct HostProbe {
    chains: Vec<Vec<u32>>,
}

impl HostProbe {
    /// Builds the chains with Sattolo's shuffle from a fixed seed, so every
    /// run walks the same cycles.
    pub fn new() -> HostProbe {
        let mut state: u64 = 0x5EED_0F_C4A1;
        let chains = CHAINS
            .iter()
            .map(|&(slots, _)| {
                let mut next: Vec<u32> = (0..slots as u32).collect();
                for i in (1..slots).rev() {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let j = ((state >> 33) % i as u64) as usize;
                    next.swap(i, j);
                }
                next
            })
            .collect();
        HostProbe { chains }
    }

    /// Seconds the loads of both chains take now on each of `threads`
    /// threads at once, as a trial with that many workers runs: the time
    /// until the last thread is done.  Thread `t` starts at slot `t`.
    pub fn read(&self, threads: usize) -> f64 {
        let walk = |from: usize| {
            for (next, &(_, loads)) in self.chains.iter().zip(&CHAINS) {
                let mut at = from;
                for _ in 0..loads {
                    at = next[at] as usize;
                }
                std::hint::black_box(at);
            }
        };
        // gossip-lint: allow(wall-clock): the benchmark times library calls from outside; no simulated result reads the clock
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 1..threads {
                s.spawn(move || walk(t));
            }
            walk(0);
        });
        start.elapsed().as_secs_f64()
    }

    /// `seconds` measured next to a reading of `probe_s`, at the reference speed.
    pub fn scale(seconds: f64, probe_s: f64) -> f64 {
        seconds * (REFERENCE_PROBE_S / probe_s).powf(SENSITIVITY)
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_chain_is_one_cycle_through_every_slot() {
        let probe = HostProbe::new();
        for (next, &(slots, _)) in probe.chains.iter().zip(&CHAINS) {
            let mut at = 0usize;
            let mut steps = 0usize;
            loop {
                at = next[at] as usize;
                steps += 1;
                if at == 0 {
                    break;
                }
            }
            assert_eq!(steps, slots);
        }
    }
}
