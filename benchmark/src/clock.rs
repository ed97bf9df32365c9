//! The one place loopbench reads the wall clock.

use std::sync::OnceLock;
use std::time::Instant;

/// Wall nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    // detlint: allow(wall-clock) — the benchmark's measured quantity: stamps
    // spans and latencies that are only reported, never fed back into the
    // loop's inputs or decisions (those derive from --seed alone).
    #[allow(clippy::disallowed_methods)]
    let now = Instant::now();
    now.duration_since(*ORIGIN.get_or_init(|| now)).as_nanos() as u64
}

/// Runs `f`, returning its result and its wall duration in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now_ns();
    let out = f();
    (out, (now_ns() - start) as f64 / 1e6)
}
