//! What one workload run hands back: its samples, counts, ledger and
//! digest, and the metric sets derived from them.

use std::collections::BTreeMap;

use crate::report::{median, Digest, Ledger, Metric, Rate, Samples};

/// Every per-layer metric with its unit, in output order.  Each workload
/// reports all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.ingest.batch_ms", "ms"),
    ("engine.publish_ms", "ms"),
    ("engine.publish.clone_ms", "ms"),
    ("engine.publish.merge_ms", "ms"),
    ("engine.publish.solve_ms", "ms"),
    ("engine.publish.replay_ms", "ms"),
    ("engine.publish.build_ms", "ms"),
    ("engine.epochs", "count"),
    ("engine.pair_merges_per_publish", "count"),
    ("engine.solve.probes_per_publish", "count"),
    ("engine.solve.reused_ratio", "ratio"),
    ("engine.elisions", "count"),
    ("engine.merge.peak_transient_words", "words"),
    ("serve.refresh.view_ms", "ms"),
    ("serve.assign_batch_us", "us"),
    ("serve.classify_batch_us", "us"),
    ("serve.query.view_acquire_us", "us"),
    ("serve.query.kernel_us", "us"),
    ("mpc.two_round_ms", "ms"),
    ("mpc.one_round_ms", "ms"),
    ("mpc.r_round_ms", "ms"),
    ("mpc.baseline_ms", "ms"),
    ("kcenter.final_solve_ms", "ms"),
    ("mpc.comm_words", "words"),
    ("mpc.two_round.comm_words", "words"),
    ("mpc.two_round.round1.comm_words", "words"),
    ("mpc.two_round.round2.comm_words", "words"),
    ("mpc.two_round.coreset_size", "count"),
    ("mpc.two_round.worker_peak_words", "words"),
    ("mpc.two_round.coordinator_peak_words", "words"),
    ("mpc.one_round.comm_words", "words"),
    ("mpc.one_round.round1.comm_words", "words"),
    ("mpc.one_round.coreset_size", "count"),
    ("mpc.one_round.worker_peak_words", "words"),
    ("mpc.one_round.coordinator_peak_words", "words"),
    ("mpc.r_round.comm_words", "words"),
    ("mpc.r_round.round1.comm_words", "words"),
    ("mpc.r_round.round2.comm_words", "words"),
    ("mpc.r_round.coreset_size", "count"),
    ("mpc.r_round.worker_peak_words", "words"),
    ("mpc.r_round.coordinator_peak_words", "words"),
    ("mpc.baseline.comm_words", "words"),
    ("mpc.baseline.round1.comm_words", "words"),
    ("mpc.baseline.coreset_size", "count"),
    ("mpc.baseline.worker_peak_words", "words"),
    ("mpc.baseline.coordinator_peak_words", "words"),
];

/// Per-layer metrics that are counts, words or ratios fixed by the seed
/// (they enter the run digest; timings do not).
pub fn is_deterministic(name: &str) -> bool {
    !(name.ends_with("_ms") || name.ends_with("_us"))
}

/// The raw material of the end-to-end metrics.
#[derive(Default)]
pub struct EndToEnd {
    /// Ingest-to-visible latency, one sample per write batch (per job
    /// for MPC).
    pub visible: Samples,
    /// One sample per fixed-size query batch.
    pub query_batch: Samples,
    /// Points ingested per round, over the round's time on the replay
    /// clock (points clustered per job, over the job's time, for MPC).
    pub points: Rate,
    /// Queries answered per query batch, over the batch's time.
    pub queries: Rate,
    /// Served radius over the planted reference radius, one per checked
    /// epoch (per job for MPC).
    pub radius_rel: Vec<f64>,
    pub machine_peak_words: usize,
    pub coreset_size: usize,
}

pub struct Outcome {
    /// Seconds per set-up repetition.
    pub setups: Vec<f64>,
    pub e2e: EndToEnd,
    pub layers: BTreeMap<&'static str, f64>,
    pub ledger: Ledger,
    pub digest: Digest,
    /// Extra report lines (the traced run's stage table).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            setups: Vec::new(),
            e2e: EndToEnd::default(),
            layers: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
            ledger: Ledger::default(),
            digest: Digest::default(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .layers
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        *slot = value;
    }

    /// The end-to-end metrics.  Percentiles need ten samples beyond
    /// them; every workload's schedule guarantees at least 100 samples,
    /// so a missing one is a schedule bug.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let e = &self.e2e;
        let q = |s: &Samples, q: f64, what: &str| {
            s.quantile_ns(q).unwrap_or_else(|| {
                panic!("{what}: {} samples are too few for p{}", s.len(), q * 100.0)
            })
        };
        let m = |name: &str, unit: &'static str, value: f64| Metric {
            name: name.to_string(),
            unit,
            value,
        };
        vec![
            m("setup_s", "s", median(&self.setups)),
            m("visible_p50_ms", "ms", q(&e.visible, 0.5, "visible") / 1e6),
            m("visible_p90_ms", "ms", q(&e.visible, 0.9, "visible") / 1e6),
            m("points_per_s", "1/s", e.points.per_s()),
            m(
                "query_batch_p50_us",
                "us",
                q(&e.query_batch, 0.5, "query batch") / 1e3,
            ),
            m(
                "query_batch_p90_us",
                "us",
                q(&e.query_batch, 0.9, "query batch") / 1e3,
            ),
            m("queries_per_s", "1/s", e.queries.per_s()),
            m("radius_rel", "ratio", median(&e.radius_rel)),
            m("machine_peak_words", "words", e.machine_peak_words as f64),
            m("coreset_size", "count", e.coreset_size as f64),
        ]
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                unit,
                value: self.layers[name],
            })
            .collect()
    }

    /// Folds the deterministic results into the digest: the per-layer
    /// counts and the seed-fixed end-to-end metrics.
    pub fn seal_digest(&mut self) {
        for &(name, _) in PER_LAYER {
            if is_deterministic(name) {
                self.digest.f64(self.layers[name]);
            }
        }
        self.digest.f64(median(&self.e2e.radius_rel));
        self.digest.word(self.e2e.machine_peak_words as u64);
        self.digest.word(self.e2e.coreset_size as u64);
        self.digest.word(self.e2e.points.units());
        self.digest.word(self.e2e.queries.units());
    }
}
