//! The host-speed probe.
//!
//! On a shared host the same single-threaded computation can take twice as
//! long from one minute to the next, and stay that way for minutes. The
//! kernel reports no steal time through these spells and the thread's CPU
//! time grows with its wall time: what slows is the CPU itself, as other
//! tenants share its execution resources. Wall time alone is therefore not
//! steady enough to compare two runs made minutes apart. The benchmark
//! times a fixed loop of its own right before and after each instance, and
//! scales the instance's wall time by how much slower than its reference
//! speed the loop ran.

use std::time::Instant;

/// Iterations of the probe loop.
const STEPS: u32 = 1 << 20;

/// The probe's time on the 2.1 GHz Xeon development host in a quiet spell.
/// Scaled times read as wall times on that host at that speed.
const REFERENCE_MS: f64 = 4.5;

/// Milliseconds the probe loop takes now: eight independent
/// multiply-rotate chains, throughput-bound integer work.
fn probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut s = std::hint::black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..STEPS {
        for x in s.iter_mut() {
            *x = (*x ^ (*x >> 29))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .rotate_left(7)
                ^ (*x >> 3);
        }
    }
    std::hint::black_box(s);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` between two probes. Returns its result and the host's
/// slowdown meanwhile: the mean probe time over [`REFERENCE_MS`].
pub fn probed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_ms();
    let out = f();
    let after = probe_ms();
    (out, (before + after) / 2.0 / REFERENCE_MS)
}
