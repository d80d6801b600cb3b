//! Host speed probe. On a shared host the speed of fixed work drifts by up
//! to 2x for seconds at a time, as neighbours come and go on the same
//! cores; one process cannot average that away. So each round times a
//! fixed kernel around its measurements, and the round's wall-clock
//! figures are scaled by `REF_MS / probe` to what they would read at the
//! reference speed. The kernel is the benchmark's own code and runs none
//! of the runtime's.

use std::collections::HashMap;
use std::time::Instant;

/// The probe's time at the reference host speed: its undisturbed median
/// on an Intel Xeon (Sapphire Rapids) KVM guest with 2 vCPUs.
pub const REF_MS: f64 = 1.40;
/// Kernel runs per probe.
const REPS: usize = 5;
/// Keys the kernel hashes and sorts: a working set of about 1 MB.
const KEYS: usize = 1 << 15;

/// One run of the kernel: hash-map inserts and lookups, then a sort, on
/// a fixed pseudo-random key set (the same keys every time).
fn kernel() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys = Vec::with_capacity(KEYS);
    for _ in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push(x);
    }
    let mut map = HashMap::with_capacity(KEYS);
    for (i, k) in keys.iter().enumerate() {
        map.insert(*k, i);
    }
    let mut acc = 0usize;
    for k in keys.iter().rev() {
        acc = acc.wrapping_add(map[k]);
    }
    keys.sort_unstable();
    std::hint::black_box((acc, keys));
    t.elapsed().as_secs_f64() * 1e3
}

/// Time the kernel [`REPS`] times; the samples in ms.
pub fn probe() -> Vec<f64> {
    (0..REPS).map(|_| kernel()).collect()
}

/// The factor that takes a time measured between `probes` to the
/// reference speed: `REF_MS` over the probes' median.
pub fn scale(probes: &[&[f64]]) -> f64 {
    REF_MS / crate::median(&probes.concat())
}
