//! Host-speed calibration for the end-to-end times.
//!
//! On a shared virtual machine the CPU speed available to one process
//! drifts by tens of percent over seconds to minutes, and every request
//! in that window slows alike. Two fixed loops timed between stretches
//! of the workload — on a host otherwise idle of benchmark work — slow
//! with it: one bound by arithmetic latency, one by caches and memory.
//! CPU-bound times are therefore reported as seconds at a nominal host
//! speed: raw seconds scaled by the geometric mean of each loop's
//! nominal time over its median time in the run. The raw seconds are
//! printed next to them.
//!
//! Neither loop alone tracks the workloads: between runs the solves
//! slowed about 1.6 times as much as the arithmetic loop (in log terms)
//! and somewhat less than the memory loop; their geometric mean sits in
//! between. The loops do not see time the hypervisor steals from the
//! guest, which slows every workload by the stolen share of its one CPU.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Arithmetic chunk time that defines the nominal host speed (about one
/// chunk's time on a 2-vCPU x86-64 cloud VM).
const NOMINAL_CHUNK_S: f64 = 1e-3;

/// Memory chunk time that defines the nominal host speed (about one
/// chunk's time on the same VM).
const NOMINAL_MEMORY_CHUNK_S: f64 = 4e-3;

/// Iterations of one arithmetic chunk.
const CHUNK_ITERATIONS: u64 = 500_000;

/// Entries of one memory chunk: 2 MiB of `(u128, f64)` pairs, a core's
/// whole L2 cache on the VM of the noise record. The buffer lives for
/// the whole run, so it is part of the measured peak resident set.
const MEMORY_CHUNK_ENTRIES: usize = 1 << 16;

/// Wall seconds of one arithmetic chunk: a splitmix64 loop that touches
/// no memory, so only the CPU speed the host grants sets its time.
pub fn chunk() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x1234_5678_u64);
    let mut acc = 0u64;
    for _ in 0..CHUNK_ITERATIONS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Wall seconds of one memory chunk: pseudo-random 128-bit keys sorted,
/// then twice remapped, re-sorted and merged — the shape of a sparse
/// state's passes, on std's sort alone. `scratch` keeps the buffer
/// between chunks, so no chunk pays for fresh pages.
pub fn memory_chunk(scratch: &mut Vec<(u128, f64)>) -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x1234_5678_u64);
    scratch.clear();
    for _ in 0..MEMORY_CHUNK_ENTRIES {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        scratch.push((
            (u128::from(z) << 40) ^ u128::from(z >> 17),
            (z & 0xFFFF) as f64,
        ));
    }
    scratch.sort_unstable_by_key(|e| e.0);
    for shift in [5, 6] {
        for e in scratch.iter_mut() {
            e.0 ^= (e.0 >> shift) & 0x00FF_00FF_00FF;
        }
        scratch.sort_unstable_by_key(|e| e.0);
        scratch.dedup_by(|a, b| {
            let same = a.0 == b.0;
            if same {
                b.1 += a.1;
            }
            same
        });
    }
    black_box(&scratch);
    t0.elapsed().as_secs_f64()
}

/// The reference chunks timed over one run.
#[derive(Default)]
pub struct HostSpeed {
    arithmetic: Vec<f64>,
    memory: Vec<f64>,
    scratch: Vec<(u128, f64)>,
}

impl HostSpeed {
    /// Times one chunk of each loop.
    pub fn measure(&mut self) {
        self.arithmetic.push(chunk());
        self.memory.push(memory_chunk(&mut self.scratch));
    }

    /// The factor that converts raw seconds to seconds at nominal speed.
    pub fn factor(&self) -> f64 {
        factor(median(&self.arithmetic), median(&self.memory))
    }

    /// The chunk times, for the lines printed above the result.
    pub fn summary(&self) -> String {
        let q = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            let at = |i: usize| v[i * (v.len() - 1) / 4];
            format!("{:.6}/{:.6}/{:.6}", at(1), at(2), at(3))
        };
        format!(
            "{} chunks; arithmetic s (q1/median/q3) {}, memory s {}, factor {:.4}",
            self.arithmetic.len(),
            q(&self.arithmetic),
            q(&self.memory),
            self.factor()
        )
    }
}

/// The factor for median chunk times `arithmetic` and `memory`.
fn factor(arithmetic: f64, memory: f64) -> f64 {
    ((NOMINAL_CHUNK_S / arithmetic) * (NOMINAL_MEMORY_CHUNK_S / memory)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_times_down_to_nominal() {
        assert_eq!(factor(2e-3, 8e-3), 0.5);
        assert_eq!(factor(0.5e-3, 2e-3), 2.0);
        // Loops that disagree meet in the middle.
        assert_eq!(factor(2e-3, 2e-3), 1.0);
        let mut speed = HostSpeed::default();
        speed.measure();
        speed.measure();
        assert!(speed.factor() > 0.0 && speed.factor().is_finite());
        assert!(speed.summary().starts_with("2 chunks"));
    }
}
