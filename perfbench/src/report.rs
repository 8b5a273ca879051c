//! Raw per-call samples, per-phase operation ledgers, the answer digest,
//! and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Fewest samples in one block of [`Samples::quantile_ns`].
pub const BLOCK: usize = 100;
/// Fewest spans in one block of [`Rate::per_s`].
pub const RATE_BLOCK: usize = 20;

/// Cuts `n` samples, in order, into an odd number of consecutive blocks
/// of at least `min` samples (one block when `n < 3 × min`); returns the
/// block count and size.  Trailing samples that fill no block are left
/// out.
fn blocks(n: usize, min: usize) -> (usize, usize) {
    let mut count = (n / min).max(1);
    if count.is_multiple_of(2) {
        count -= 1;
    }
    (count, n / count)
}

/// Raw durations of one kind of call, in nanoseconds.  Percentiles come
/// from these samples directly, never from bucketed histograms.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// Times one call from outside.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.0.push(t.elapsed().as_nanos() as u64);
        r
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// The most recent sample (ns).
    pub fn last(&self) -> u64 {
        *self.0.last().expect("a sample was taken")
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total_s(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64 / 1e9
    }

    /// The `q`-quantile in nanoseconds, robust to a burst of host noise
    /// over part of the run: the samples are cut, in call order, into an
    /// odd number of consecutive blocks of at least [`BLOCK`] samples,
    /// and the result is the median over the blocks of each block's
    /// nearest-rank quantile.  Reported only when every block has at
    /// least ten samples beyond its quantile; `None` otherwise.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let (blocks, size) = blocks(self.0.len(), BLOCK);
        let rank = ((q * size as f64).ceil() as usize).max(1);
        if size < rank + 10 {
            return None;
        }
        let per_block: Vec<f64> = self
            .0
            .chunks_exact(size)
            .take(blocks)
            .map(|block| {
                let mut v = block.to_vec();
                v.sort_unstable();
                v[rank - 1] as f64
            })
            .collect();
        Some(median(&per_block))
    }

    /// Median in nanoseconds, or 0 for a call the workload never makes.
    pub fn median_or_zero(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        v[v.len().div_ceil(2) - 1] as f64
    }
}

/// Units of work per timed span (points per round, queries per batch),
/// for a throughput that a burst of host noise moves little.
#[derive(Default)]
pub struct Rate(Vec<(u64, u64)>);

impl Rate {
    /// Records `units` done in `ns` nanoseconds.
    pub fn push(&mut self, units: u64, ns: u64) {
        self.0.push((units, ns));
    }

    pub fn units(&self) -> u64 {
        self.0.iter().map(|&(u, _)| u).sum()
    }

    /// Units per second: the spans are cut, in order, into an odd number
    /// of consecutive blocks of at least [`RATE_BLOCK`] spans, and the
    /// result is the median over the blocks of each block's units over
    /// its summed time.  0 when nothing was recorded.
    pub fn per_s(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let (blocks, size) = blocks(self.0.len(), RATE_BLOCK);
        let per_block: Vec<f64> = self
            .0
            .chunks_exact(size)
            .take(blocks)
            .map(|block| {
                let (units, ns) = block
                    .iter()
                    .fold((0, 0), |(u, t), &(bu, bt)| (u + bu, t + bt));
                units as f64 * 1e9 / ns as f64
            })
            .collect();
        median(&per_block)
    }
}

/// Median of a non-empty list of values (lower middle on even length).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(2) - 1]
}

/// Phases whose operations are counted as attempted / failed.
pub const PHASES: [&str; 5] = [
    "write_batches",
    "publishes",
    "query_batches",
    "mpc_jobs",
    "checks",
];

/// Attempted / failed operation counts per phase.
#[derive(Default)]
pub struct Ledger {
    counts: [(u64, u64); 5],
    reported: usize,
}

impl Ledger {
    fn slot(phase: &str) -> usize {
        PHASES
            .iter()
            .position(|&p| p == phase)
            .expect("known phase")
    }

    /// Counts one operation of `phase` (operations fail by panicking,
    /// which aborts the run, so an attempted operation that returns has
    /// succeeded).
    pub fn op(&mut self, phase: &str) {
        self.counts[Self::slot(phase)].0 += 1;
    }

    /// Counts one correctness check; a failing check is a failed
    /// operation and is described on stderr (the first few only).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        let c = &mut self.counts[Self::slot("checks")];
        c.0 += 1;
        if !ok {
            c.1 += 1;
            if self.reported < 10 {
                self.reported += 1;
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// Adds another ledger's counts to this one.
    pub fn absorb(&mut self, other: &Ledger) {
        for (c, o) in self.counts.iter_mut().zip(other.counts) {
            c.0 += o.0;
            c.1 += o.1;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.counts.iter().map(|c| c.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.counts.iter().map(|c| c.1).sum()
    }

    pub fn summary(&self) -> String {
        let mut s = String::from("phases (attempted/failed):");
        for (p, (a, f)) in PHASES.iter().zip(self.counts) {
            let _ = write!(s, " {p} {a}/{f}");
        }
        s
    }
}

/// FNV-1a over 64-bit words: the seed-stable digest of every served
/// answer and every deterministic count of a run.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
