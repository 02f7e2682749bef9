//! Spans around calls into the program's layers.
//!
//! A span adds its wall time to its layer's running total. Totals are
//! kept in memory and read out when the workload ends; nothing is timed
//! unless the run was started with `--trace 1`. A trace made with
//! [`Trace::off`] runs the same code with no clock reads, as the
//! untraced side of a tracing-overhead measurement.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated busy time and call count per layer.
#[derive(Debug, Default)]
pub struct Trace {
    layers: BTreeMap<&'static str, (f64, u64)>,
    counts: BTreeMap<&'static str, f64>,
    off: bool,
}

impl Trace {
    /// A trace whose spans only run their closures.
    pub fn off() -> Trace {
        Trace {
            off: true,
            ..Trace::default()
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if self.off {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed().as_secs_f64());
        out
    }

    /// The clock for a span timed by hand; read only when the trace is on.
    pub fn start(&self) -> Option<Instant> {
        (!self.off).then(Instant::now)
    }

    /// Seconds since `start` (0 when the trace is off).
    pub fn since(start: Option<Instant>) -> f64 {
        start.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }

    /// Adds `seconds` of busy time to `layer` as one call.
    pub fn add(&mut self, layer: &'static str, seconds: f64) {
        if self.off {
            return;
        }
        let entry = self.layers.entry(layer).or_insert((0.0, 0));
        entry.0 += seconds;
        entry.1 += 1;
    }

    /// Total seconds spent in `layer`.
    pub fn seconds(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |e| e.0)
    }

    /// Mean seconds per call of `layer` (0 when never called).
    pub fn per_call(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |&(s, n)| if n == 0 { 0.0 } else { s / n as f64 })
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// The running total of counter `name`.
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}
