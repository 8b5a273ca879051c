//! The three engine workloads: `publish_bulk`, `serve_mixed` and
//! `window_slide`.  One driver thread replays a seeded schedule in
//! closed loop against `Engine` + `QueryEngine`; every call into the
//! program is timed from outside, and every output is checked against
//! the brute-force oracle.

use std::sync::Arc;
use std::time::Instant;

use kcz_engine::{Engine, EngineConfig};
use kcz_metric::L2;
use kcz_obs::{MetricsHandle, Registry};
use kcz_serve::{Assignment, Classification, QueryEngine, SnapshotView};

use crate::gen::{Drift, Lattice, Pt, Rng, Zipf};
use crate::oracle;
use crate::outcome::Outcome;
use crate::report::{median, Digest, Ledger, Samples};
use crate::Args;

/// Points per fixed-size query batch of `publish_bulk` and
/// `window_slide`: four pool tasks of the program's 1,024-query chunks.
const QUERY_BATCH: usize = 4096;
/// Points per query batch of `serve_mixed`: one pool task, so the call
/// runs on the calling thread and its latency does not depend on when
/// the pool's worker gets a CPU (which, on a 2-vCPU host, changes from
/// run to run).
const SERVE_BATCH: usize = 1024;
/// Query batches after each publish of `publish_bulk` and
/// `window_slide`: enough that a stall of a few milliseconds moves
/// neither `queries_per_s` nor the batch percentiles much.
const QUERIES_PER_ROUND: usize = 8;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Raw per-call samples of the engine and serve layers.
#[derive(Default)]
struct Calls {
    ingest: Samples,
    publish: Samples,
    refresh: Samples,
    assign: Samples,
    classify: Samples,
    /// Nanoseconds spent inside program calls so far: the replay's own
    /// clock, which stands still while the benchmark checks outputs.
    busy_ns: u64,
}

type View = Arc<SnapshotView<Pt, L2>>;

/// One batch's served answers.
enum Answers {
    Assign(Vec<Option<Assignment>>),
    /// Classified at this radius.
    Classify(f64, Vec<Classification>),
}

/// How a workload's served epochs are checked for quality.
enum Reference {
    /// Insertion-only: the whole input counts; the planted centers are
    /// fixed.
    Whole { planted: Vec<Pt> },
    /// Sliding window of the last `w` arrivals around drifting planted
    /// centers.
    Window { w: u64, drift: Drift },
}

/// One engine, its query front, and everything written to it.
struct Bench {
    qe: QueryEngine<Pt, L2>,
    registry: Option<Registry>,
    written: Vec<Pt>,
    z: u64,
    reference: Reference,
    calls: Calls,
    ledger: Ledger,
    digest: Digest,
    /// Served radius over planted radius, per checked epoch.
    rel: Vec<f64>,
    /// Published coreset size, per checked epoch.
    coreset_sizes: Vec<f64>,
    /// Feasibility probes / re-certified verdicts of solved epochs.
    probes: u64,
    reused: u64,
    last_epoch: u64,
}

impl Bench {
    fn new(cfg: EngineConfig, trace: bool, reference: Reference) -> Self {
        let registry = trace.then(Registry::new);
        let handle = registry
            .as_ref()
            .map_or_else(MetricsHandle::disabled, MetricsHandle::new);
        let engine = Arc::new(Engine::new(L2, cfg).with_metrics(&handle));
        let qe = QueryEngine::with_metrics(engine, &handle);
        Bench {
            last_epoch: qe.view().epoch(),
            qe,
            registry,
            written: Vec::new(),
            z: cfg.z,
            reference,
            calls: Calls::default(),
            ledger: Ledger::default(),
            digest: Digest::default(),
            rel: Vec::new(),
            coreset_sizes: Vec::new(),
            probes: 0,
            reused: 0,
        }
    }

    fn engine(&self) -> &Engine<Pt, L2> {
        self.qe.engine()
    }

    /// Hands one batch to `Engine::ingest`; returns the replay clock at
    /// hand-over.
    fn write(&mut self, batch: &[Pt]) -> u64 {
        let handed_over = self.calls.busy_ns;
        let engine = self.qe.engine();
        self.calls.ingest.time(|| engine.ingest(batch));
        self.calls.busy_ns += self.calls.ingest.last();
        self.ledger.op("write_batches");
        self.written.extend_from_slice(batch);
        handed_over
    }

    /// Publishes, refreshes the served view, and returns the replay
    /// clock when the refresh returned (the moment the writes became
    /// visible).  Then checks freshness, window span, weight and quality.
    fn publish(&mut self) -> u64 {
        let engine = self.qe.engine();
        let snap = self.calls.publish.time(|| engine.publish());
        let qe = &self.qe;
        let view = self.calls.refresh.time(|| qe.refresh());
        self.calls.busy_ns += self.calls.publish.last() + self.calls.refresh.last();
        let visible_at = self.calls.busy_ns;
        self.ledger.op("publishes");

        let n = self.written.len() as u64;
        let (epoch, clock) = (view.epoch(), view.clock());
        self.ledger.check(
            epoch == snap.epoch && clock == n && view.snapshot().stats.points == n,
            || {
                format!(
                    "freshness: view epoch {epoch} clock {clock}, publish epoch {}, written {n}",
                    snap.epoch
                )
            },
        );
        if epoch > self.last_epoch {
            self.probes += snap.stats.solve_probes as u64;
            self.reused += snap.stats.reused_verdicts as u64;
            self.last_epoch = epoch;
        }
        let (live, planted): (&[Pt], Vec<Pt>) = match &self.reference {
            Reference::Whole { planted } => {
                let weight: u64 = view.coreset().iter().map(|w| w.weight).sum();
                self.ledger.check(weight == n, || {
                    format!("weight: coreset weighs {weight}, ingested {n}")
                });
                (&self.written, planted.clone())
            }
            Reference::Window { w, drift } => {
                let want = Some((n.saturating_sub(w - 1).max(1), n));
                let got = (view.window_span(), self.qe.window_span());
                self.ledger.check(got == (want, want), || {
                    format!(
                        "window span: view {:?}, front {:?}, want {want:?}",
                        got.0, got.1
                    )
                });
                let lo = n.saturating_sub(*w) as usize;
                (&self.written[lo..], drift.planted_centers(lo as u64 + 1, n))
            }
        };
        let served = oracle::radius_with_outliers(view.centers(), live, self.z);
        let reference = oracle::radius_with_outliers(&planted, live, self.z);
        let bound = view.bound_factor();
        self.ledger.check(served <= bound * reference, || {
            format!("approximation: radius {served} > {bound} x planted {reference}")
        });
        self.rel.push(served / reference);

        let d = &mut self.digest;
        d.word(epoch);
        d.word(clock);
        d.word(view.coreset().len() as u64);
        d.f64(view.radius());
        d.word(snap.stats.solve_probes as u64);
        d.word(snap.stats.merges);
        self.coreset_sizes.push(view.coreset().len() as f64);
        visible_at
    }

    /// Serves one fixed-size query batch from the current view —
    /// `classify_batch` at the view's radius when `classify`,
    /// `assign_batch` otherwise — timing only the call.  Returns the
    /// view it was served from and the answers, for [`Bench::verify`],
    /// and the call's duration (ns).
    fn serve(&mut self, pts: &[Pt], classify: bool) -> (View, Answers, u64) {
        let view = self.qe.view();
        let qe = &self.qe;
        let answers = if classify {
            let r = view.radius();
            Answers::Classify(r, self.calls.classify.time(|| qe.classify_batch(pts, r)))
        } else {
            Answers::Assign(self.calls.assign.time(|| qe.assign_batch(pts)))
        };
        let ns = if classify {
            self.calls.classify.last()
        } else {
            self.calls.assign.last()
        };
        self.calls.busy_ns += ns;
        (view, answers, ns)
    }

    /// Checks every answer of one batch against the brute-force nearest
    /// center of the view it was served from, and digests it.
    fn verify(&mut self, view: &SnapshotView<Pt, L2>, pts: &[Pt], answers: &Answers) {
        let centers = view.centers();
        let epoch = view.epoch();
        let (bad, kind) = match answers {
            Answers::Classify(r, out) => {
                let mut bad = pts.len().abs_diff(out.len());
                for (p, c) in pts.iter().zip(out) {
                    let ok = c.epoch == epoch
                        && c.radius == *r
                        && match oracle::nearest(centers, p) {
                            Some((i, d)) => {
                                c.center == Some(i) && c.dist == d && c.covered == (d <= *r)
                            }
                            None => c.center.is_none() && !c.covered,
                        };
                    bad += usize::from(!ok);
                    self.digest.word(c.center.map_or(u64::MAX, |i| i as u64));
                    self.digest.f64(c.dist);
                    self.digest.word(u64::from(c.covered));
                }
                (bad, "classify")
            }
            Answers::Assign(out) => {
                let mut bad = pts.len().abs_diff(out.len());
                for (p, a) in pts.iter().zip(out) {
                    let ok = match (a, oracle::nearest(centers, p)) {
                        (Some(a), Some((i, d))) => a.center == i && a.dist == d && a.epoch == epoch,
                        (None, None) => true,
                        _ => false,
                    };
                    bad += usize::from(!ok);
                    self.digest.word(a.map_or(u64::MAX, |a| a.center as u64));
                    self.digest.f64(a.map_or(-1.0, |a| a.dist));
                }
                (bad, "assign")
            }
        };
        self.ledger.op("query_batches");
        self.ledger.check(bad == 0, || {
            format!("{kind} batch at epoch {epoch}: {bad} answers differ from brute force")
        });
    }

    /// Serves and verifies one query batch; returns its duration (ns).
    fn query(&mut self, pts: &[Pt], classify: bool) -> u64 {
        let (view, answers, ns) = self.serve(pts, classify);
        self.verify(&view, pts, &answers);
        ns
    }

    /// Cumulative in-program stage time (ns); traced runs only.
    fn stage_ns(&self, name: &str) -> u128 {
        self.registry
            .as_ref()
            .and_then(|r| r.histogram_snapshot(name))
            .map_or(0, |h| h.total_ns())
    }
}

/// Cumulative counters read before and after the timed phase.
struct Marks {
    epoch: u64,
    merges: u64,
    elisions: u64,
    probes: u64,
    reused: u64,
    stages: Vec<u128>,
}

const STAGES: [(&str, &str); 7] = [
    ("engine.publish.clone_ms", "engine.publish.stage.clone_ns"),
    ("engine.publish.merge_ms", "engine.publish.stage.merge_ns"),
    ("engine.publish.solve_ms", "engine.publish.stage.solve_ns"),
    ("engine.publish.replay_ms", "engine.publish.stage.replay_ns"),
    ("engine.publish.build_ms", "engine.publish.stage.build_ns"),
    ("serve.query.view_acquire_us", "query.batch.view_ns"),
    ("serve.query.kernel_us", "query.batch.kernel_ns"),
];

impl Marks {
    fn take(b: &Bench) -> Self {
        let e = b.engine();
        Marks {
            epoch: e.epoch(),
            merges: e.merges(),
            elisions: e.elisions(),
            probes: b.probes,
            reused: b.reused,
            stages: STAGES.iter().map(|(_, s)| b.stage_ns(s)).collect(),
        }
    }
}

/// Runs `setup` `SETUPS` times (timing each), checks that every
/// repetition produced the same digest — a count or answer that
/// depended on timing would differ — then replays the timed phase on
/// the last one and derives the outcome.
fn run(
    args: &Args,
    setup: impl Fn(&Args) -> Bench,
    timed: impl FnOnce(&mut Bench, &mut Outcome),
) -> Outcome {
    let mut out = Outcome::new();
    let mut digests = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let b = setup(args);
        out.setups.push(t.elapsed().as_secs_f64());
        digests.push(b.digest.value());
        bench = Some(b);
    }
    let mut b = bench.expect("at least one set-up");
    b.ledger
        .check(digests.iter().all(|&d| d == digests[0]), || {
            format!("set-up digests differ between repetitions: {digests:x?}")
        });
    // The timed phase starts from fresh samples and quality records.
    b.calls = Calls::default();
    b.rel.clear();
    b.coreset_sizes.clear();
    let start = Marks::take(&b);

    timed(&mut b, &mut out);

    let end = Marks::take(&b);
    let publish_calls = b.calls.publish.len() as u64;
    let publishes = publish_calls as f64;
    // Every timed publish follows fresh writes, so each one either solves
    // a new epoch or elides the solve: a count that depended on timing
    // (a racing or skipped publish) would break this.
    let (epochs, elided) = (end.epoch - start.epoch, end.elisions - start.elisions);
    b.ledger.check(epochs + elided == publish_calls, || {
        format!("{epochs} epochs + {elided} elisions for {publish_calls} publishes")
    });
    let c = &b.calls;
    out.set("engine.ingest.batch_ms", c.ingest.median_or_zero() / 1e6);
    out.set("engine.publish_ms", c.publish.median_or_zero() / 1e6);
    out.set("serve.refresh.view_ms", c.refresh.median_or_zero() / 1e6);
    out.set("serve.assign_batch_us", c.assign.median_or_zero() / 1e3);
    out.set("serve.classify_batch_us", c.classify.median_or_zero() / 1e3);
    out.set("engine.epochs", epochs as f64);
    out.set(
        "engine.pair_merges_per_publish",
        (end.merges - start.merges) as f64 / publishes,
    );
    out.set(
        "engine.solve.probes_per_publish",
        (end.probes - start.probes) as f64 / publishes,
    );
    let probes = (end.probes - start.probes) as f64;
    out.set(
        "engine.solve.reused_ratio",
        if probes > 0.0 {
            (end.reused - start.reused) as f64 / probes
        } else {
            0.0
        },
    );
    out.set("engine.elisions", elided as f64);
    out.set(
        "engine.merge.peak_transient_words",
        b.engine().peak_merge_transient_words() as f64,
    );
    let query_batches = (c.assign.len() + c.classify.len()) as f64;
    for (i, &(metric, _)) in STAGES.iter().enumerate() {
        let ns = (end.stages[i] - start.stages[i]) as f64;
        let (per, scale) = if metric.ends_with("_us") {
            (query_batches, 1e3)
        } else {
            (publishes, 1e6)
        };
        out.set(metric, ns / per / scale);
    }
    if b.registry.is_some() {
        let stage = |i: usize| out.layers[STAGES[i].0];
        let publish_sum: f64 = (0..5).map(stage).sum();
        out.notes.push(format!(
            "publish stages, mean ms per publish: clone {:.4} merge {:.4} solve {:.4} replay {:.4} build {:.4} \
             = {publish_sum:.4} of {:.4} timed from outside",
            stage(0),
            stage(1),
            stage(2),
            stage(3),
            stage(4),
            c.publish.total_s() * 1e3 / publishes,
        ));
        out.notes.push(format!(
            "query batch, mean us: view acquire {:.4} + kernel {:.4} of {:.4} timed from outside",
            stage(5),
            stage(6),
            (c.assign.total_s() + c.classify.total_s()) * 1e6 / query_batches,
        ));
    }

    let last = b.qe.view();
    out.e2e.radius_rel = std::mem::take(&mut b.rel);
    out.e2e.machine_peak_words = last.snapshot().stats.shard_peak_words;
    out.e2e.coreset_size = median(&b.coreset_sizes) as usize;
    out.ledger = std::mem::take(&mut b.ledger);
    out.digest = std::mem::take(&mut b.digest);
    out.seal_digest();
    out
}

/// `publish_bulk`: 4,096-point batches jittered around 1,536 lattice
/// sites, hash-routed into 8 shards (every batch dirties every shard);
/// each batch is followed by publish + refresh and `QUERIES_PER_ROUND`
/// query batches.
pub fn publish_bulk(args: &Args) -> Outcome {
    const BATCH: usize = 4096;
    const PRELOAD: usize = 8;
    let lattice = |seed| {
        let mut rng = Rng::new(seed, 1);
        Lattice {
            cols: 48,
            rows: 32,
            tiles_x: 4,
            tiles_y: 2,
            spacing: 1e4,
            gap: 0.0,
            jitter: 100.0,
            origin: [rng.range(-1e6, 1e6), rng.range(-1e6, 1e6)],
        }
    };
    let rounds = args.rounds(5.0, 100);
    let setup = |args: &Args| {
        let lat = lattice(args.seed);
        let cfg = EngineConfig::new(8, 8, 32, 1.0);
        let mut b = Bench::new(
            cfg,
            args.trace,
            Reference::Whole {
                planted: lat.planted_centers(),
            },
        );
        let mut rng = Rng::new(args.seed, 2);
        for i in 0..PRELOAD {
            let mut batch: Vec<Pt> = (0..BATCH).map(|_| lat.sample(&mut rng)).collect();
            if i == 0 {
                // 16 far outliers, within the outlier budget z = 32.
                for p in batch.iter_mut().take(16) {
                    *p = lat.outlier(&mut rng);
                }
            }
            b.write(&batch);
            if i % 4 == 3 {
                b.publish();
            }
        }
        let mut qrng = Rng::new(args.seed, 3);
        for classify in [false, true] {
            let q: Vec<Pt> = (0..QUERY_BATCH).map(|_| lat.sample(&mut qrng)).collect();
            b.query(&q, classify);
        }
        b
    };
    let seed = args.seed;
    run(args, setup, move |b, out| {
        let lat = lattice(seed);
        let mut rng = Rng::new(seed, 4);
        let mut qrng = Rng::new(seed, 5);
        for _ in 0..rounds {
            let batch: Vec<Pt> = (0..BATCH).map(|_| lat.sample(&mut rng)).collect();
            let queries: Vec<Vec<Pt>> = (0..QUERIES_PER_ROUND)
                .map(|_| (0..QUERY_BATCH).map(|_| lat.sample(&mut qrng)).collect())
                .collect();
            let handed_over = b.write(&batch);
            let visible_at = b.publish();
            out.e2e.visible.push_ns(visible_at - handed_over);
            for (i, q) in queries.iter().enumerate() {
                let ns = b.query(q, i % 2 == 1);
                out.e2e.query_batch.push_ns(ns);
                out.e2e.queries.push(QUERY_BATCH as u64, ns);
            }
            out.e2e
                .points
                .push(BATCH as u64, b.calls.busy_ns - handed_over);
        }
    })
}

/// `serve_mixed`: a preloaded engine serves Zipf-skewed query batches
/// (alternating `assign_batch` / `classify_batch`) beside a trickle of
/// 1–2-point writes at the lattice's exact sites: every `REFRESH_EVERY`
/// query batches, one write followed by publish + refresh (so each
/// publish sees a small delta that dirties only a few shards).
pub fn serve_mixed(args: &Args) -> Outcome {
    const PRELOAD: usize = 128;
    const WARMUP_QUERIES: usize = 256;
    const REFRESH_EVERY: usize = 128;
    let lattice = |seed| {
        let mut rng = Rng::new(seed, 11);
        Lattice {
            cols: 24,
            rows: 16,
            tiles_x: 4,
            tiles_y: 2,
            spacing: 1e4,
            gap: 2e5,
            jitter: 0.0,
            origin: [rng.range(-1e6, 1e6), rng.range(-1e6, 1e6)],
        }
    };
    // Zipf over a seeded permutation of the sites: hot sites scatter.
    let hot_sites = |seed, sites: usize| {
        let mut rng = Rng::new(seed, 12);
        let mut perm: Vec<usize> = (0..sites).collect();
        for i in (1..sites).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        perm
    };
    let cycles = args.rounds(22.0, 300);
    let setup = |args: &Args| {
        let lat = lattice(args.seed);
        let cfg = EngineConfig::new(8, 8, 32, 1.0);
        let mut b = Bench::new(
            cfg,
            args.trace,
            Reference::Whole {
                planted: lat.planted_centers(),
            },
        );
        let mut rng = Rng::new(args.seed, 13);
        for i in 0..PRELOAD {
            let mut batch: Vec<Pt> = (0..4096).map(|_| lat.sample(&mut rng)).collect();
            if i == 0 {
                for p in batch.iter_mut().take(16) {
                    *p = lat.outlier(&mut rng);
                }
            }
            b.write(&batch);
        }
        b.publish();
        let zipf = Zipf::new(lat.sites(), 1.1);
        let perm = hot_sites(args.seed, lat.sites());
        let mut qrng = Rng::new(args.seed, 14);
        for i in 0..WARMUP_QUERIES {
            let q: Vec<Pt> = (0..SERVE_BATCH)
                .map(|_| lat.around(perm[zipf.sample(&mut qrng)], &mut qrng))
                .collect();
            b.query(&q, i % 2 == 1);
        }
        b
    };
    let seed = args.seed;
    run(args, setup, move |b, out| {
        let lat = lattice(seed);
        let zipf = Zipf::new(lat.sites(), 1.1);
        let perm = hot_sites(seed, lat.sites());
        let mut rng = Rng::new(seed, 15);
        let mut qrng = Rng::new(seed, 16);
        for _ in 0..cycles {
            // A cycle's inputs are made up front and its answers checked
            // after its publish, so its calls run back to back, as on a
            // loaded server.
            let batches: Vec<Vec<Pt>> = (0..REFRESH_EVERY)
                .map(|_| {
                    (0..SERVE_BATCH)
                        .map(|_| lat.around(perm[zipf.sample(&mut qrng)], &mut qrng))
                        .collect()
                })
                .collect();
            let write: Vec<Pt> = (0..1 + rng.below(2))
                .map(|_| lat.sample(&mut rng))
                .collect();
            let start = b.calls.busy_ns;
            let mut served = Vec::with_capacity(REFRESH_EVERY);
            for (i, queries) in batches.iter().enumerate() {
                let (view, answers, ns) = b.serve(queries, i % 2 == 1);
                out.e2e.query_batch.push_ns(ns);
                out.e2e.queries.push(SERVE_BATCH as u64, ns);
                served.push((view, answers));
            }
            let handed_over = b.write(&write);
            let visible_at = b.publish();
            out.e2e.visible.push_ns(visible_at - handed_over);
            out.e2e.points.push(write.len() as u64, visible_at - start);
            for (queries, (view, answers)) in batches.iter().zip(&served) {
                b.verify(view, queries, answers);
            }
        }
    })
}

/// `window_slide`: the window backend over a drifting four-cluster
/// stream with a far outlier every 500 arrivals; 200-point batches, each
/// followed by publish + refresh and `QUERIES_PER_ROUND` query batches.
pub fn window_slide(args: &Args) -> Outcome {
    const W: u64 = 2000;
    const BATCH: usize = 200;
    let drift = |seed| {
        let mut rng = Rng::new(seed, 21);
        // The window spans one sigma of drift.
        Drift::new(4, 10.0, 10.0 / W as f64, 500, &mut rng)
    };
    let rounds = args.rounds(10.0, 100);
    let queries = |d: &Drift, t: u64, rng: &mut Rng| -> Vec<Pt> {
        (0..QUERY_BATCH)
            .map(|i| {
                let c = d.center(i % d.base.len(), t as f64);
                [
                    c[0] + 3.0 * d.sigma * rng.gauss(),
                    c[1] + 3.0 * d.sigma * rng.gauss(),
                ]
            })
            .collect()
    };
    let cfg = EngineConfig::new(8, 4, 8, 1.0).windowed(W);
    let setup = |args: &Args| {
        let d = drift(args.seed);
        let mut b = Bench::new(
            cfg,
            args.trace,
            Reference::Window {
                w: W,
                drift: drift(args.seed),
            },
        );
        let mut rng = Rng::new(args.seed, 22);
        let mut t = 0u64;
        // Fill the window twice over, so expiry is live, publishing after
        // each of the last four batches.
        while t < 2 * W {
            let batch: Vec<Pt> = (0..BATCH)
                .map(|_| {
                    t += 1;
                    d.arrival(t, &mut rng)
                })
                .collect();
            b.write(&batch);
            if t > 2 * W - 4 * BATCH as u64 {
                b.publish();
            }
        }
        let mut qrng = Rng::new(args.seed, 23);
        for classify in [false, true] {
            let q = queries(&d, t, &mut qrng);
            b.query(&q, classify);
        }
        b
    };
    let seed = args.seed;
    run(args, setup, move |b, out| {
        let d = drift(seed);
        let mut rng = Rng::new(seed, 24);
        let mut qrng = Rng::new(seed, 25);
        let mut t = b.written.len() as u64;
        for _ in 0..rounds {
            let batch: Vec<Pt> = (0..BATCH)
                .map(|_| {
                    t += 1;
                    d.arrival(t, &mut rng)
                })
                .collect();
            let qs: Vec<Vec<Pt>> = (0..QUERIES_PER_ROUND)
                .map(|_| queries(&d, t, &mut qrng))
                .collect();
            let handed_over = b.write(&batch);
            let visible_at = b.publish();
            out.e2e.visible.push_ns(visible_at - handed_over);
            for (i, q) in qs.iter().enumerate() {
                let ns = b.query(q, i % 2 == 1);
                out.e2e.query_batch.push_ns(ns);
                out.e2e.queries.push(QUERY_BATCH as u64, ns);
            }
            out.e2e
                .points
                .push(BATCH as u64, b.calls.busy_ns - handed_over);
        }
    })
}
