//! `mpc_batch`: seeded MPC jobs over `m = 16` simulated machines.  Each
//! job runs the paper's 2-round, 1-round and R-round (R = 2) coreset
//! algorithms and the Ceccarello–Pietracaprina–Pucci 1-round baseline on
//! one randomly partitioned input, solves every coordinator coreset with
//! `greedy_with`, and labels one query batch against the 2-round
//! centers through a `SnapshotView`.

use std::sync::Arc;
use std::time::Instant;

use kcz_engine::{Backend, EngineStats, Snapshot};
use kcz_kcenter::{greedy_with, GreedyParams};
use kcz_metric::{Weighted, L2};
use kcz_mpc::{ceccarello_one_round, one_round_randomized, r_round, two_round, MpcCoreset};
use kcz_obs::{MetricsHandle, Registry};
use kcz_serve::SnapshotView;

use crate::gen::{mpc_instance, Pt, Rng};
use crate::oracle;
use crate::outcome::Outcome;
use crate::report::{median, Samples};
use crate::Args;

const MACHINES: usize = 16;
const N: usize = 2048;
const K: usize = 8;
const Z: u64 = 16;
const EPS: f64 = 1.0;
const ROUNDS: usize = 2;
const QUERY_BATCH: usize = 4096;
const SETUPS: usize = 5;
/// Warm-up jobs per set-up (untimed; they also fill the pool).
const WARMUP_JOBS: usize = 2;

/// Metric-name stems of the four algorithms, in job order.
const ALGS: [&str; 4] = ["two_round", "one_round", "r_round", "baseline"];

/// One job's input: the random partition, the flat input and the planted
/// reference radius.
struct Job {
    partition: Vec<Vec<Pt>>,
    input: Vec<Pt>,
    reference: f64,
}

fn job(rng: &mut Rng) -> Job {
    let (input, planted) = mpc_instance(K, N, Z as usize, rng);
    // The instance is already shuffled: contiguous slices are a uniformly
    // random partition.
    let partition = input
        .chunks(N.div_ceil(MACHINES))
        .map(<[Pt]>::to_vec)
        .collect();
    let reference = oracle::radius_with_outliers(&planted, &input, Z);
    Job {
        partition,
        input,
        reference,
    }
}

/// Per-algorithm accounting of one job.
struct AlgRun {
    coreset: MpcCoreset<Pt>,
    centers: Vec<Pt>,
}

#[derive(Default)]
struct Timers {
    alg: [Samples; 4],
    solve: Samples,
    job: Samples,
    query: Samples,
}

fn run_algorithm(i: usize, job: &Job, params: &GreedyParams) -> MpcCoreset<Pt> {
    let p = &job.partition;
    match i {
        0 => two_round(&L2, p, K, Z, EPS, params).output,
        1 => one_round_randomized(&L2, p, K, Z, EPS, params).output,
        2 => r_round(&L2, p, K, Z, EPS, ROUNDS, params),
        _ => ceccarello_one_round(&L2, p, K, Z, EPS, params),
    }
}

/// The served view over a job's final centers: a snapshot the benchmark
/// assembles itself (the MPC path has no engine).
fn view_of(run: &AlgRun) -> SnapshotView<Pt, L2> {
    let eps = run.coreset.effective_eps;
    let snap = Snapshot {
        epoch: 1,
        centers: run.centers.clone(),
        radius: 0.0,
        radius_bound: 0.0,
        uncovered: 0,
        guess: 0.0,
        effective_eps: eps,
        bound_factor: 3.0 + 8.0 * eps,
        coreset: Vec::<Weighted<Pt>>::new(),
        clock: 0,
        backend: Backend::Insertion,
        stats: EngineStats::default(),
    };
    SnapshotView::new(L2, Arc::new(snap))
}

/// Runs one job: the four algorithms, each followed by its coordinator
/// solve, then one labelling query batch.  Timed calls only; checks run
/// after each call, outside the timers.
fn run_job(
    job: &Job,
    queries: &[Pt],
    t: &mut Timers,
    out: &mut Outcome,
    metrics: &MetricsHandle,
) -> Vec<AlgRun> {
    let params = GreedyParams::default();
    let mut runs = Vec::with_capacity(4);
    let mut job_ns = 0;
    for (i, alg) in ALGS.iter().enumerate() {
        let coreset = t.alg[i].time(|| run_algorithm(i, job, &params));
        job_ns += t.alg[i].last();
        let sol = t
            .solve
            .time(|| greedy_with(&L2, &coreset.coreset, K, Z, &params));
        job_ns += t.solve.last();
        coreset.stats.record_comm(metrics, alg);
        runs.push(AlgRun {
            coreset,
            centers: sol.centers,
        });
    }
    t.job.push_ns(job_ns);
    out.ledger.op("mpc_jobs");

    let view = view_of(&runs[0]);
    let labels = t
        .query
        .time(|| queries.iter().map(|p| view.assign(p)).collect::<Vec<_>>());
    out.ledger.op("query_batches");
    let bad = queries
        .iter()
        .zip(&labels)
        .filter(|&(p, a)| match (a, oracle::nearest(&runs[0].centers, p)) {
            (Some(a), Some((i, d))) => a.center != i || a.dist != d,
            (None, None) => false,
            _ => true,
        })
        .count();
    out.ledger
        .check(bad == 0 && labels.len() == queries.len(), || {
            format!("labelling: {bad} answers differ from brute force")
        });
    for a in &labels {
        out.digest.word(a.map_or(u64::MAX, |a| a.center as u64));
        out.digest.f64(a.map_or(-1.0, |a| a.dist));
    }

    for (alg, run) in ALGS.iter().zip(&runs) {
        let s = &run.coreset.stats;
        let weight: u64 = run.coreset.coreset.iter().map(|w| w.weight).sum();
        out.ledger.check(weight == N as u64, || {
            format!("{alg}: coreset weighs {weight}, input has {N}")
        });
        out.ledger.check(
            s.round_comm_words.len() == s.rounds
                && s.round_comm_words.iter().sum::<u64>() == s.comm_words,
            || {
                format!(
                    "{alg}: {} rounds but per-round words {:?} (total {})",
                    s.rounds, s.round_comm_words, s.comm_words
                )
            },
        );
        let bound = 3.0 + 8.0 * run.coreset.effective_eps;
        let radius = oracle::radius_with_outliers(&run.centers, &job.input, Z);
        out.ledger.check(radius <= bound * job.reference, || {
            format!(
                "{alg}: radius {radius} > {bound} x planted {}",
                job.reference
            )
        });
        out.digest.word(s.comm_words);
        out.digest.word(s.coreset_size as u64);
        out.digest.word(s.worker_peak_words as u64);
        out.digest.word(s.coordinator_peak_words as u64);
        out.digest.f64(radius);
    }
    runs
}

pub fn mpc_batch(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let registry = args.trace.then(Registry::new);
    let metrics = registry
        .as_ref()
        .map_or_else(MetricsHandle::disabled, MetricsHandle::new);

    // Set-up: generate the timed jobs' inputs and run warm-up jobs.
    let jobs_n = args.rounds(5.0, 100);
    let mut jobs = Vec::new();
    let mut setup_digests = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut rng = Rng::new(args.seed, 31);
        let warm: Vec<Job> = (0..WARMUP_JOBS).map(|_| job(&mut rng)).collect();
        jobs = (0..jobs_n).map(|_| job(&mut rng)).collect();
        let mut scratch = Outcome::new();
        for w in &warm {
            run_job(
                w,
                &w.input[..QUERY_BATCH.min(N)],
                &mut Timers::default(),
                &mut scratch,
                &MetricsHandle::disabled(),
            );
        }
        out.setups.push(t.elapsed().as_secs_f64());
        setup_digests.push(scratch.digest.value());
        out.ledger.absorb(&scratch.ledger);
    }
    out.ledger
        .check(setup_digests.iter().all(|&d| d == setup_digests[0]), || {
            format!("set-up digests differ between repetitions: {setup_digests:x?}")
        });

    let mut t = Timers::default();
    let mut qrng = Rng::new(args.seed, 32);
    // Per-job, per-algorithm deterministic accounting.
    let mut per_alg: Vec<Vec<[f64; 6]>> = vec![Vec::new(); 4];
    let mut comm_total = Vec::new();
    let (mut peak_words, mut coreset_sizes) = (Vec::new(), Vec::new());
    for job in &jobs {
        let queries: Vec<Pt> = (0..QUERY_BATCH).map(|_| job.input[qrng.below(N)]).collect();
        let runs = run_job(job, &queries, &mut t, &mut out, &metrics);
        out.e2e.points.push(N as u64, t.job.last());
        out.e2e.queries.push(QUERY_BATCH as u64, t.query.last());
        let main = &runs[0];
        out.e2e
            .radius_rel
            .push(oracle::radius_with_outliers(&main.centers, &job.input, Z) / job.reference);
        let s = &main.coreset.stats;
        peak_words.push(s.worker_peak_words.max(s.coordinator_peak_words) as f64);
        coreset_sizes.push(s.coreset_size as f64);
        comm_total.push(
            runs.iter()
                .map(|r| r.coreset.stats.comm_words as f64)
                .sum::<f64>(),
        );
        for (i, r) in runs.iter().enumerate() {
            let s = &r.coreset.stats;
            let round = |j: usize| s.round_comm_words.get(j).copied().unwrap_or(0) as f64;
            per_alg[i].push([
                s.comm_words as f64,
                round(0),
                round(1),
                s.coreset_size as f64,
                s.worker_peak_words as f64,
                s.coordinator_peak_words as f64,
            ]);
        }
    }
    out.e2e.visible = std::mem::take(&mut t.job);
    out.e2e.query_batch = std::mem::take(&mut t.query);
    out.e2e.machine_peak_words = median(&peak_words) as usize;
    out.e2e.coreset_size = median(&coreset_sizes) as usize;

    for (i, alg) in ALGS.iter().enumerate() {
        out.set(&format!("mpc.{alg}_ms"), t.alg[i].median_or_zero() / 1e6);
        // Means over jobs, so the per-round words add up to the total.
        let col = |c: usize| per_alg[i].iter().map(|v| v[c]).sum::<f64>() / jobs.len() as f64;
        out.set(&format!("mpc.{alg}.comm_words"), col(0));
        out.set(&format!("mpc.{alg}.round1.comm_words"), col(1));
        if ["two_round", "r_round"].contains(alg) {
            out.set(&format!("mpc.{alg}.round2.comm_words"), col(2));
        }
        out.set(&format!("mpc.{alg}.coreset_size"), col(3));
        out.set(&format!("mpc.{alg}.worker_peak_words"), col(4));
        out.set(&format!("mpc.{alg}.coordinator_peak_words"), col(5));
    }
    out.set(
        "mpc.comm_words",
        comm_total.iter().sum::<f64>() / jobs.len() as f64,
    );
    out.set("kcenter.final_solve_ms", t.solve.median_or_zero() / 1e6);

    if let Some(reg) = &registry {
        // The program's own comm accounting must agree with the stats.
        for (i, alg) in ALGS.iter().enumerate() {
            let ours: f64 = per_alg[i].iter().map(|v| v[0]).sum();
            let recorded = reg
                .counter_value(&format!("mpc.{alg}.comm_words"))
                .unwrap_or(0) as f64;
            out.ledger.check(ours == recorded, || {
                format!("{alg}: recorded comm words {recorded} != stats total {ours}")
            });
        }
        out.notes.push(format!(
            "mpc per-call medians (ms): two_round={:.3} one_round={:.3} r_round={:.3} baseline={:.3} final_solve={:.3}",
            out.layers["mpc.two_round_ms"],
            out.layers["mpc.one_round_ms"],
            out.layers["mpc.r_round_ms"],
            out.layers["mpc.baseline_ms"],
            out.layers["kcenter.final_solve_ms"]
        ));
    }
    out.seal_digest();
    out
}
