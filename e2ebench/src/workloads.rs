//! The three workloads. Each is a closed loop with zero think time: a
//! labeler answers every query batch from ground truth the moment it
//! is ready. A run is a fixed number of identical units of work
//! (sessions or serve passes) derived from `--seconds` and the
//! workload's nominal unit length; the clock never cuts a unit short
//! and never decides how many there are.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use battleship::api::{
    BlockingSpec, DirBackend, LshBlocking, MatchSession, Scenario, SessionConfig, SessionPhase,
    SessionStore, SnapshotCodec, StrategySpec,
};
use battleship::engine::DatasetArtifacts;
use battleship::report::{IterationRecord, RunReport};
use battleship::ExperimentConfig;
use em_core::{Label, PairIdx, Rng};
use em_synth::{blocking_recall, generate_pool, DatasetProfile, PoolProfile};

use crate::record::{loglog_slope, mean, median, peak_rss_mb, quantile, Abort, Fnv, Ledger};
use crate::trace::{self, Source, Tracer};
use crate::Run;

/// Generation seed of every workload's dataset. The data stay fixed
/// across `--seed` values so that runs with different seeds measure
/// the same tables and pool; `--seed` picks the sessions (seed-batch
/// draws, matcher initialisations, strategy randomness). With the data
/// varying too, the test F1 of a run's sessions spread by up to a fifth
/// of its median across seeds, wider than any bound worth gating on.
const DATA_SEED: u64 = 0xDA7A;

/// Seed of session stream `i` of a run: a pure function of `--seed`.
fn derive(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Units of work for a run of `seconds`: fixed by the arguments alone.
fn units(seconds: f64, unit_s: f64, min: usize) -> usize {
    ((seconds / unit_s).ceil() as usize).max(min)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Digest of a report's deterministic content (everything but the
/// wall-clock fields).
fn report_digest(report: &RunReport) -> String {
    let mut h = Fnv::new();
    h.bytes(report.dataset.as_bytes())
        .bytes(report.strategy.as_bytes())
        .u64(report.seed);
    records_digest_into(&mut h, &report.iterations);
    h.hex()
}

fn records_digest(records: &[IterationRecord]) -> String {
    let mut h = Fnv::new();
    records_digest_into(&mut h, records);
    h.hex()
}

fn records_digest_into(h: &mut Fnv, records: &[IterationRecord]) {
    for it in records {
        h.u64(it.iteration as u64)
            .u64(it.labels_used as u64)
            .u64(it.test_f1_pct.to_bits())
            .u64(it.precision.to_bits())
            .u64(it.recall.to_bits())
            .u64(it.new_positives as u64)
            .u64(it.new_labels as u64)
            .u64(it.weak_used as u64);
    }
}

/// Compare this run's report digests with those stored by earlier runs
/// of the same code, workload, seed and size; store them on first use.
fn check_cross_run(run: &mut Run, units: usize, digests: &[String]) {
    let dir = run.work_dir.join("digests");
    let file = dir.join(format!(
        "{}-{}-{}-{}.txt",
        run.code_digest, run.args.workload, run.args.seed, units
    ));
    let now = digests.join("\n");
    match std::fs::read_to_string(&file) {
        Ok(before) => run.ledger.check(
            "report digests equal earlier runs of this seed",
            before == now,
        ),
        Err(_) => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, &now));
            run.ledger.check("report digests stored", written.is_ok());
        }
    }
}

/// `f1_auc_pct`: area under F1(%) over labels, divided by the label span.
fn f1_auc_pct(report: &RunReport) -> f64 {
    let (Some(first), Some(last)) = (report.iterations.first(), report.iterations.last()) else {
        return f64::NAN;
    };
    let span = (last.labels_used - first.labels_used) as f64;
    report.auc().map_or(f64::NAN, |auc| auc * 100.0 / span)
}

/// The end-to-end metrics every workload reports, in one place.
struct EndToEnd {
    setup_s: Vec<f64>,
    session_s: Vec<f64>,
    waits: Vec<f64>,
    steps: usize,
    session_phase_s: f64,
    reports: Vec<RunReport>,
    blocking_recall: f64,
}

fn push_end_to_end(run: &mut Run, e: &EndToEnd) {
    let m = &mut run.end_to_end;
    m.push("setup_s", median(&e.setup_s), "s", e.setup_s.len());
    m.push("session_s", median(&e.session_s), "s", e.session_s.len());
    m.push("label_wait_p50_s", median(&e.waits), "s", e.waits.len());
    m.push(
        "steps_per_s",
        e.steps as f64 / e.session_phase_s,
        "1/s",
        e.steps,
    );
    let f1: Vec<f64> = e.reports.iter().filter_map(RunReport::final_f1).collect();
    let auc: Vec<f64> = e.reports.iter().map(f1_auc_pct).collect();
    m.push("final_f1_pct", mean(&f1), "%", f1.len());
    m.push("f1_auc_pct", mean(&auc), "%", auc.len());
    m.push("blocking_recall", e.blocking_recall, "frac", 1);
    // The 90th percentile has ten samples beyond it only from 100 waits.
    if e.waits.len() >= 100 {
        run.extra.push(
            "label_wait_p90_s",
            quantile(&e.waits, 0.9),
            "s",
            e.waits.len(),
        );
    }
}

/// Pushed last, after every check of the run has been counted.
fn push_run_totals(run: &mut Run) {
    let ok = run.ledger.ok_frac();
    let attempted = run.ledger.attempted() as usize;
    run.end_to_end.push("peak_rss_mb", peak_rss_mb(), "MB", 1);
    run.end_to_end.push("ok_frac", ok, "frac", attempted);
}

// --- paper-al and pool-al ------------------------------------------------

/// An active-learning workload: sessions of the battleship strategy
/// over one materialized artifact set, run one after another.
pub(crate) struct AlWorkload {
    source: Source,
    experiment: ExperimentConfig,
    /// Nominal seconds per session on a 2-thread x86-64 host; sizes
    /// the run, never ends it.
    unit_s: f64,
    /// Whole set-ups timed per run (`setup_s` is their median).
    setups: usize,
}

/// Sessions per run never drop below this: 3 sessions × I = 8 gives
/// the 24 label waits `label_wait_p50_s` needs.
const MIN_SESSIONS: usize = 3;

impl AlWorkload {
    /// The paper's experiment: §4.2 protocol (B = 100, I = 8, a
    /// balanced 100-pair seed, weak budget 100) on the amazon-google
    /// Table-3 profile at half scale, with the paper's 12 fine-tuning
    /// epochs per round. Runnable, but not one of `BENCHMARK.json`'s
    /// workloads: its layers are all on `pool-al`'s path, and on a
    /// shared 2-vCPU host the spread of its timings across runs
    /// reached the 0.25 bound where the gated workloads' stayed below.
    pub(crate) fn paper() -> Self {
        let mut experiment = ExperimentConfig::default();
        experiment.matcher.epochs = 12;
        AlWorkload {
            source: Source::Curated {
                profile: DatasetProfile::amazon_google(),
                scale: 0.5,
            },
            experiment,
            unit_s: 5.5,
            setups: 15,
        }
    }

    /// The practitioner's path: a streamed products pool of 15k records
    /// through LSH blocking (8 × 32 bands, best candidate per record),
    /// then featurization, then sessions at B = 50, I = 8.
    pub(crate) fn pool() -> Self {
        let mut experiment = ExperimentConfig::low_resource(8, 50);
        experiment.matcher.epochs = 12;
        AlWorkload {
            source: Source::Pool {
                profile: PoolProfile::products("pool-al", 15_000),
                blocking: BlockingSpec::Lsh(LshBlocking {
                    max_per_record: 1,
                    ..LshBlocking::default()
                }),
            },
            experiment,
            unit_s: 6.0,
            setups: 5,
        }
    }

    fn scenario(&self) -> Scenario {
        match &self.source {
            Source::Curated { profile, scale } => {
                Scenario::synthetic_scaled(profile.clone(), *scale, DATA_SEED)
            }
            Source::Pool { profile, blocking } => {
                Scenario::pool(profile.clone(), DATA_SEED).with_blocking(blocking.clone())
            }
        }
    }
}

fn session_config(
    experiment: &ExperimentConfig,
    strategy: StrategySpec,
    seed: u64,
) -> SessionConfig {
    SessionConfig {
        experiment: experiment.clone(),
        strategy,
        seed,
    }
}

/// Open one session per seed and draw its seed batch: the end of set-up.
fn open_sessions<'a>(
    ledger: &mut Ledger,
    art: &'a DatasetArtifacts,
    seeds: &[u64],
    experiment: &ExperimentConfig,
    spec: StrategySpec,
) -> Result<Vec<MatchSession<'a>>, Abort> {
    let mut sessions = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let config = session_config(experiment, spec, seed);
        let mut session = ledger.op(
            "open session",
            MatchSession::new(&art.dataset, &art.features, config),
        )?;
        let phase = ledger.op("draw seed batch", session.advance())?;
        ledger.check(
            "seed batch awaits labels",
            phase == SessionPhase::AwaitingLabels,
        );
        sessions.push(session);
    }
    Ok(sessions)
}

struct Driven {
    session_s: f64,
    waits: Vec<f64>,
    steps: usize,
    batches: Vec<Vec<PairIdx>>,
}

/// First batch ready → `Done`, answering each batch at once.
fn drive_session(
    ledger: &mut Ledger,
    session: &mut MatchSession<'_>,
    art: &DatasetArtifacts,
) -> Result<Driven, Abort> {
    let t0 = Instant::now();
    let (mut waits, mut steps, mut batches) = (Vec::new(), 0, Vec::new());
    loop {
        let batch = session.next_query_batch();
        let answers: Vec<(PairIdx, Label)> = batch
            .iter()
            .map(|&p| (p, art.dataset.ground_truth(p)))
            .collect();
        batches.push(batch);
        let t_submit = Instant::now();
        let mut phase = ledger.op("submit labels", session.submit_labels(&answers))?;
        while phase == SessionPhase::Training {
            phase = ledger.op("advance", session.advance())?;
            steps += 1;
        }
        match phase {
            SessionPhase::AwaitingLabels => waits.push(secs(t_submit)),
            SessionPhase::Done => break,
            SessionPhase::SeedDraw | SessionPhase::Training => {
                ledger.check("session phase after a step", false);
                break;
            }
        }
    }
    Ok(Driven {
        session_s: secs(t0),
        waits,
        steps,
        batches,
    })
}

pub(crate) fn active_learning(run: &mut Run, w: &AlWorkload) -> Result<(), Abort> {
    let n_sessions = units(run.args.seconds, w.unit_s, MIN_SESSIONS);
    let seeds: Vec<u64> = (0..n_sessions as u64)
        .map(|i| derive(run.args.seed, 1 + i))
        .collect();
    let scenario = w.scenario();

    let mut setup_s = Vec::with_capacity(w.setups);
    for _ in 1..w.setups {
        let t = Instant::now();
        let art = run.ledger.op("materialize", scenario.materialize())?;
        let sessions = open_sessions(
            &mut run.ledger,
            &art,
            &seeds,
            &w.experiment,
            StrategySpec::Battleship,
        )?;
        setup_s.push(secs(t));
        drop(sessions);
    }
    let t = Instant::now();
    let art = run.ledger.op("materialize", scenario.materialize())?;
    let mut sessions = open_sessions(
        &mut run.ledger,
        &art,
        &seeds,
        &w.experiment,
        StrategySpec::Battleship,
    )?;
    setup_s.push(secs(t));

    let (mut session_s, mut waits, mut steps, mut batches) = (vec![], vec![], 0, vec![]);
    for session in &mut sessions {
        let d = drive_session(&mut run.ledger, session, &art)?;
        session_s.push(d.session_s);
        waits.extend(d.waits);
        steps += d.steps;
        batches.push(d.batches);
    }
    let reports: Vec<RunReport> = sessions
        .into_iter()
        .map(MatchSession::into_report)
        .collect();

    // Candidate generation: blocking output must be sorted, duplicate-
    // free and keep ≥ 95 % of true matches; curated lists hold them all.
    let pairs = art.dataset.pairs();
    let recall = match &w.source {
        Source::Curated { .. } => 1.0,
        Source::Pool { profile, .. } => {
            let pool = run.ledger.op(
                "generate pool truth",
                generate_pool(profile, &mut Rng::seed_from_u64(DATA_SEED)),
            )?;
            run.ledger.check(
                "blocking candidates sorted and duplicate-free",
                pairs.windows(2).all(|p| p[0] < p[1]),
            );
            blocking_recall(pairs, &pool.true_matches)
        }
    };
    run.ledger.check("blocking recall >= 0.95", recall >= 0.95);
    let digests: Vec<String> = reports.iter().map(report_digest).collect();
    check_cross_run(run, n_sessions, &digests);

    let e2e = EndToEnd {
        session_phase_s: session_s.iter().sum(),
        setup_s,
        session_s,
        waits,
        steps,
        reports,
        blocking_recall: recall,
    };
    push_end_to_end(run, &e2e);
    run.extra
        .push("work.sessions", n_sessions as f64, "count", 1);
    run.extra.push("work.pairs", pairs.len() as f64, "pairs", 1);
    let pool = art.dataset.split().train.len() as f64;
    run.extra.push("work.pool", pool, "pairs", 1);

    if run.args.trace {
        let twin = Twin {
            spec: StrategySpec::Battleship,
            seed: seeds[0],
            batches: &batches[0],
            report: &e2e.reports[0],
            session_s: Some(e2e.session_s[0]),
        };
        traced(
            run,
            &art,
            &w.source,
            scenario.name(),
            &w.experiment,
            &[twin],
            ServeLayers::default(),
        )?;
    }
    push_run_totals(run);
    Ok(())
}

// --- The traced run --------------------------------------------------------

/// An untraced session the traced run replays and must reproduce.
struct Twin<'a> {
    spec: StrategySpec,
    seed: u64,
    batches: &'a [Vec<PairIdx>],
    report: &'a RunReport,
    /// The untraced session's first-batch-to-done time, when it ran
    /// alone; serve sessions share rounds, so the traced run times an
    /// untraced copy of each.
    session_s: Option<f64>,
}

/// Per-layer metrics of layers that only one workload runs: blocking
/// (`pool-al`) and the store (`serve-32`). Elsewhere they read 0 with
/// no samples; the run record carries them, and the result line, whose
/// metrics every workload must report as measured, leaves them out.
pub(crate) const PATH_ONLY: [&str; 8] = [
    "blocking.s",
    "blocking.exponent",
    "serve.step_s",
    "serve.busy_frac",
    "serve.checkpoint_s",
    "serve.checkpoint_bytes",
    "serve.recover_s",
    "serve.failed_ops",
];

/// Serve-layer spans, timed around `SessionStore` calls in the serve
/// loop (zero on workloads without a store).
#[derive(Default)]
struct ServeLayers {
    step_s: f64,
    busy_frac: f64,
    checkpoint_s: f64,
    checkpoint_bytes: f64,
    recover_s: f64,
    failed_ops: f64,
    /// Passes the values summarize (0: no store on this workload).
    passes: usize,
}

fn traced(
    run: &mut Run,
    art: &DatasetArtifacts,
    source: &Source,
    name: &str,
    experiment: &ExperimentConfig,
    twins: &[Twin<'_>],
    serve: ServeLayers,
) -> Result<(), Abort> {
    // Set-up, stage by stage; it must rebuild the same artifacts.
    let mut setup = Tracer::default();
    let (replica, stats) = run.ledger.op(
        "traced materialize",
        trace::materialize(&mut setup, source, name, DATA_SEED),
    )?;
    run.ledger.check(
        "traced set-up reproduces the artifacts",
        replica.dataset.name == art.dataset.name
            && replica.dataset.pairs() == art.dataset.pairs()
            && replica.dataset.split() == art.dataset.split()
            && replica.features.flat() == art.features.flat(),
    );
    drop(replica);

    // Sessions through the layers' public functions; they must query
    // the same batches and record the same reports.
    let mut tr = Tracer::default();
    let (mut traced_s, mut twin_s, mut spatial) = (0.0, Vec::new(), None);
    for twin in twins {
        let untraced_s = match twin.session_s {
            Some(s) => s,
            None => {
                let seeds = [twin.seed];
                let mut sessions =
                    open_sessions(&mut run.ledger, art, &seeds, experiment, twin.spec)?;
                let d = drive_session(&mut run.ledger, &mut sessions[0], art)?;
                let report = sessions.remove(0).into_report();
                run.ledger.check(
                    "session alone reproduces the served report",
                    report_digest(&report) == report_digest(twin.report),
                );
                d.session_s
            }
        };
        twin_s.push(untraced_s);
        let replay = run.ledger.op(
            "traced session",
            trace::replay_session(
                &mut tr,
                &art.dataset,
                &art.features,
                experiment,
                twin.spec,
                twin.seed,
            ),
        )?;
        run.ledger.check(
            "traced session queries the untraced batches",
            replay.batches == twin.batches,
        );
        run.ledger.check(
            "traced session reproduces the untraced report",
            records_digest(&replay.records) == records_digest(&twin.report.iterations),
        );
        traced_s += replay.session_s;
        spatial = spatial.or(replay.spatial);
    }

    // Checkpoint cost of the session layer: one binary snapshot per
    // query batch of the first battleship twin.
    let mut snapshots = Tracer::default();
    if let Some(twin) = twins.iter().find(|t| t.spec == StrategySpec::Battleship) {
        let config = session_config(experiment, twin.spec, twin.seed);
        let mut session = run.ledger.op(
            "open session",
            MatchSession::new(&art.dataset, &art.features, config),
        )?;
        loop {
            match run.ledger.op("advance", session.advance())? {
                SessionPhase::AwaitingLabels => {
                    let bytes = snapshots.span("session.snapshot", |_| {
                        session
                            .snapshot()
                            .and_then(|s| SnapshotCodec::Binary.encode(&s))
                    });
                    let bytes = run.ledger.op("snapshot", bytes)?;
                    snapshots.count("session.snapshot_bytes", bytes.len() as f64);
                    let answers: Vec<(PairIdx, Label)> = session
                        .next_query_batch()
                        .into_iter()
                        .map(|p| (p, art.dataset.ground_truth(p)))
                        .collect();
                    run.ledger
                        .op("submit labels", session.submit_labels(&answers))?;
                }
                SessionPhase::Done => break,
                SessionPhase::SeedDraw | SessionPhase::Training => {}
            }
        }
        run.ledger.check(
            "checkpointed session reproduces the untraced report",
            report_digest(&session.into_report()) == report_digest(twin.report),
        );
    }
    let spatial_exponent = match &spatial {
        Some(input) => run
            .ledger
            .op("spatial exponent", trace::spatial_exponent(input))?,
        None => 0.0,
    };

    // Blocking at ¼, ½ and 1× records (1× is the traced set-up's call).
    let (candidates, reduction_ratio, blocking_exponent, fitted) = match (source, stats) {
        (Source::Pool { profile, blocking }, Some(stats)) => {
            let mut points = Vec::new();
            for factor in [0.25, 0.5] {
                let pool = run.ledger.op(
                    "generate scaled pool",
                    generate_pool(&profile.scaled(factor), &mut Rng::seed_from_u64(DATA_SEED)),
                )?;
                let t = Instant::now();
                let out = run.ledger.op(
                    "scaled blocking",
                    battleship::blocking::block_tables(&pool.left, &pool.right, blocking),
                )?;
                points.push(((out.stats.n_left + out.stats.n_right) as f64, secs(t)));
            }
            points.push((
                (stats.n_left + stats.n_right) as f64,
                setup.self_s("blocking"),
            ));
            (
                stats.n_candidates as f64,
                stats.reduction_ratio,
                loglog_slope(&points),
                points.len(),
            )
        }
        _ => {
            let ds = &art.dataset;
            let cross = (ds.left.len() * ds.right.len()) as f64;
            (ds.len() as f64, 1.0 - ds.len() as f64 / cross, 0.0, 0)
        }
    };

    let p = &mut run.per_layer;
    p.push("synth.s", setup.self_s("synth"), "s", 1);
    p.push(
        "blocking.s",
        setup.self_s("blocking"),
        "s",
        setup.calls("blocking") as usize,
    );
    p.push("blocking.candidates", candidates, "pairs", 1);
    p.push("blocking.reduction_ratio", reduction_ratio, "frac", 1);
    p.push("blocking.exponent", blocking_exponent, "exponent", fitted);
    p.push("featurize.s", setup.self_s("featurize"), "s", 1);
    p.push(
        "featurize.pairs",
        setup.counted("featurize.pairs"),
        "pairs",
        1,
    );
    p.push("engine.materialize_s", setup.self_s("engine"), "s", 1);
    let train_s = tr.self_s("matcher.train");
    let train_calls = tr.calls("matcher.train") as usize;
    let flops = tr.counted("matcher.train_flops");
    p.push("matcher.train_s", train_s, "s", train_calls);
    p.push("matcher.train_calls", train_calls as f64, "calls", 1);
    p.push("matcher.train_flops", flops, "flop", train_calls);
    p.push(
        "matcher.train_gflops",
        flops / train_s / 1e9,
        "GFLOP/s",
        train_calls,
    );
    let predicts = tr.calls("matcher.predict") as usize;
    p.push(
        "matcher.predict_s",
        tr.self_s("matcher.predict"),
        "s",
        predicts,
    );
    p.push(
        "matcher.predict_rows",
        tr.counted("matcher.predict_rows"),
        "rows",
        predicts,
    );
    let builds = tr.calls("spatial.build") as usize;
    p.push("spatial.build_s", tr.self_s("spatial.build"), "s", builds);
    p.push(
        "spatial.kselect_s",
        tr.self_s("spatial.kselect"),
        "s",
        tr.calls("spatial.kselect") as usize,
    );
    p.push(
        "spatial.cluster_s",
        tr.self_s("spatial.cluster"),
        "s",
        tr.calls("spatial.cluster") as usize,
    );
    p.push(
        "spatial.graph_s",
        tr.self_s("spatial.graph"),
        "s",
        tr.calls("spatial.graph") as usize,
    );
    p.push(
        "spatial.nodes",
        tr.counted("spatial.nodes"),
        "nodes",
        builds,
    );
    p.push(
        "spatial.edges",
        tr.counted("spatial.edges"),
        "edges",
        builds,
    );
    p.push("spatial.exponent", spatial_exponent, "exponent", 3);
    let selections = tr.calls("selection") as usize;
    p.push("selection.self_s", tr.self_s("selection"), "s", selections);
    p.push("selection.calls", selections as f64, "calls", 1);
    p.push(
        "session.advance_self_s",
        tr.self_s("session"),
        "s",
        tr.calls("session") as usize,
    );
    let snaps = snapshots.calls("session.snapshot") as usize;
    let per_snap = snaps.max(1) as f64;
    p.push(
        "session.snapshot_s",
        snapshots.self_s("session.snapshot") / per_snap,
        "s",
        snaps,
    );
    p.push(
        "session.snapshot_bytes",
        snapshots.counted("session.snapshot_bytes") / per_snap,
        "B",
        snaps,
    );
    p.push("serve.step_s", serve.step_s, "s", serve.passes);
    p.push("serve.busy_frac", serve.busy_frac, "frac", serve.passes);
    p.push("serve.checkpoint_s", serve.checkpoint_s, "s", serve.passes);
    p.push(
        "serve.checkpoint_bytes",
        serve.checkpoint_bytes,
        "B",
        serve.passes,
    );
    p.push("serve.recover_s", serve.recover_s, "s", serve.passes);
    p.push("serve.failed_ops", serve.failed_ops, "count", serve.passes);
    let covered = tr.session_self_s();
    p.push("trace.coverage", covered / traced_s, "frac", twins.len());
    p.push("trace.other_s", traced_s - covered, "s", twins.len());
    let untraced_s: f64 = twin_s.iter().sum();
    p.push(
        "trace.overhead_frac",
        (traced_s - untraced_s) / untraced_s,
        "frac",
        twins.len(),
    );
    run.ledger.check("trace coverage <= 1", covered <= traced_s);
    Ok(())
}

// --- serve-32 ----------------------------------------------------------------

/// Sessions in the store: the four strategies × 8 seeds.
const SERVE_SESSIONS: usize = 32;
/// Nominal seconds per serve pass on a 2-thread x86-64 host.
const SERVE_UNIT_S: f64 = 5.0;
/// Whole set-ups timed per pass (`setup_s` is their median).
const SERVE_SETUPS: usize = 8;
/// The round after whose checkpoint each pass drops its store and
/// recovers it from its directory.
const RECOVER_AFTER_ROUND: usize = 2;

fn serve_experiment() -> ExperimentConfig {
    let mut experiment = ExperimentConfig::low_resource(4, 20);
    experiment.matcher.epochs = 8;
    experiment.battleship.kselect_sample = 128;
    experiment
}

type Plan = Vec<(String, StrategySpec, u64)>;

/// A store over a fresh directory with every session created and its
/// seed batch drawn: the end of serve set-up.
fn open_store(
    ledger: &mut Ledger,
    dir: &Path,
    scenario: &Scenario,
    plan: &Plan,
    experiment: &ExperimentConfig,
) -> Result<SessionStore, Abort> {
    let backend = ledger.op("open backend", DirBackend::new(dir))?;
    let store = SessionStore::new(Box::new(backend), SnapshotCodec::Binary);
    store.register_scenario(scenario.clone());
    for (id, spec, seed) in plan {
        let config = session_config(experiment, *spec, *seed);
        ledger.op("create session", store.create(id, scenario.name(), config))?;
    }
    let stepped = ledger.op("draw seed batches", store.step_ready_sessions())?;
    ledger.check(
        "every session awaits its seed labels",
        stepped.len() == plan.len()
            && stepped
                .iter()
                .all(|(_, p)| *p == SessionPhase::AwaitingLabels),
    );
    Ok(store)
}

#[derive(Default)]
struct Pass {
    session_s: Vec<f64>,
    waits: Vec<f64>,
    steps: usize,
    wall_s: f64,
    step_s: f64,
    checkpoint_s: f64,
    checkpoint_bytes: usize,
    recover_s: f64,
    reports: Vec<RunReport>,
    batches: Vec<Vec<Vec<PairIdx>>>,
}

/// Rounds of: answer every batch, `step_ready_sessions`,
/// `checkpoint_all` — until every session is done; once per pass, the
/// store is dropped and recovered.
fn serve_pass(
    ledger: &mut Ledger,
    mut store: SessionStore,
    dir: &Path,
    scenario: &Scenario,
    plan: &Plan,
) -> Result<Pass, Abort> {
    let n = plan.len();
    let mut pass = Pass {
        session_s: vec![f64::NAN; n],
        batches: vec![Vec::new(); n],
        ..Pass::default()
    };
    let art = ledger.op("artifacts", store.artifacts(&plan[0].0))?;
    let t0 = Instant::now();
    let mut submitted: Vec<Option<Instant>> = vec![None; n];
    for round in 0.. {
        for (i, (id, _, _)) in plan.iter().enumerate() {
            let batch = ledger.op("next query batch", store.next_query_batch(id))?;
            if batch.is_empty() {
                continue;
            }
            let answers: Vec<(PairIdx, Label)> = batch
                .iter()
                .map(|&p| (p, art.dataset.ground_truth(p)))
                .collect();
            pass.batches[i].push(batch);
            submitted[i] = Some(Instant::now());
            ledger.op("submit labels", store.submit_labels(id, &answers))?;
        }
        let t_step = Instant::now();
        let stepped = ledger.op("step ready sessions", store.step_ready_sessions())?;
        let ready = Instant::now();
        if stepped.is_empty() {
            break;
        }
        pass.step_s += ready.duration_since(t_step).as_secs_f64();
        pass.steps += stepped.len();
        for (id, phase) in &stepped {
            let i = plan.iter().position(|(p, _, _)| p == id).unwrap_or(0);
            match phase {
                SessionPhase::AwaitingLabels => {
                    if let Some(t) = submitted[i].take() {
                        pass.waits.push(ready.duration_since(t).as_secs_f64());
                    }
                }
                SessionPhase::Done => pass.session_s[i] = ready.duration_since(t0).as_secs_f64(),
                SessionPhase::SeedDraw | SessionPhase::Training => {}
            }
        }
        let t_ckpt = Instant::now();
        let written = ledger.op("checkpoint all", store.checkpoint_all())?;
        pass.checkpoint_s += secs(t_ckpt);
        pass.checkpoint_bytes += written.iter().map(|(_, b)| b).sum::<usize>();

        if round == RECOVER_AFTER_ROUND {
            let mut before = Vec::with_capacity(n);
            for (id, _, _) in plan {
                let status = ledger.op("status", store.get(id))?;
                let report = ledger.op("report", store.report(id))?;
                before.push((status, report_digest(&report)));
            }
            drop(store);
            let t_recover = Instant::now();
            let backend = ledger.op("reopen backend", DirBackend::new(dir))?;
            store = SessionStore::new(Box::new(backend), SnapshotCodec::Binary);
            store.register_scenario(scenario.clone());
            let recovered = ledger.op("recover", store.recover())?;
            pass.recover_s = secs(t_recover);
            ledger.check(
                "recover restores every session from its newest frame",
                recovered.recovered.len() == n
                    && recovered.quarantined.is_empty()
                    && recovered.lost.is_empty(),
            );
            let mut same = true;
            for ((id, _, _), (status, digest)) in plan.iter().zip(&before) {
                let s = ledger.op("status", store.get(id))?;
                let r = ledger.op("report", store.report(id))?;
                same &= s == *status && report_digest(&r) == *digest;
            }
            ledger.check("recovered sessions equal the dropped store's", same);
        }
    }
    pass.wall_s = secs(t0);
    ledger.check(
        "every session reached Done",
        pass.session_s.iter().all(|s| s.is_finite()),
    );
    for (id, _, _) in plan {
        pass.reports.push(ledger.op("report", store.report(id))?);
    }
    Ok(pass)
}

pub(crate) fn serve(run: &mut Run) -> Result<(), Abort> {
    let seed = run.args.seed;
    let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.06, DATA_SEED);
    let experiment = serve_experiment();
    // Each pass serves 32 fresh sessions: 8 seeds of its own × the four
    // strategies.
    let passes = units(run.args.seconds, SERVE_UNIT_S, 1);
    let plans: Vec<Plan> = (0..passes)
        .map(|p| {
            (0..SERVE_SESSIONS)
                .map(|i| {
                    let spec = StrategySpec::all()[i % 4];
                    let stream = (p * SERVE_SESSIONS / 4 + i / 4) as u64;
                    (format!("s{i:02}"), spec, derive(seed, 1 + stream))
                })
                .collect()
        })
        .collect();
    let base = run
        .work_dir
        .join(format!("serve-{}-{}", std::process::id(), seed));
    let result = serve_passes(run, &base, &scenario, &experiment, &plans);
    let removed = std::fs::remove_dir_all(&base);
    run.ledger
        .check("scratch directory removed", removed.is_ok());
    result
}

fn serve_passes(
    run: &mut Run,
    base: &Path,
    scenario: &Scenario,
    experiment: &ExperimentConfig,
    plans: &[Plan],
) -> Result<(), Abort> {
    let mut setup_s = Vec::new();
    let mut done: Vec<Pass> = Vec::new();
    let mut art: Option<Arc<DatasetArtifacts>> = None;
    for (p, plan) in plans.iter().enumerate() {
        let mut kept = None;
        for s in 0..SERVE_SETUPS {
            let dir = base.join(format!("pass{p}-setup{s}"));
            let t = Instant::now();
            let store = open_store(&mut run.ledger, &dir, scenario, plan, experiment)?;
            setup_s.push(secs(t));
            kept = Some((store, dir));
        }
        let Some((store, dir)) = kept else { continue };
        art = Some(run.ledger.op("artifacts", store.artifacts(&plan[0].0))?);
        done.push(serve_pass(&mut run.ledger, store, &dir, scenario, plan)?);
    }
    let Some(art) = art else {
        return Err(Abort("no serve pass ran".into()));
    };
    let digests: Vec<String> = done
        .iter()
        .flat_map(|p| p.reports.iter().map(report_digest))
        .collect();
    check_cross_run(run, plans.len(), &digests);

    let wall: f64 = done.iter().map(|p| p.wall_s).sum();
    let step_s: f64 = done.iter().map(|p| p.step_s).sum();
    let busy: f64 = done
        .iter()
        .flat_map(|p| &p.reports)
        .flat_map(|r| &r.iterations)
        .map(|it| it.train_secs + it.select_secs)
        .sum();
    let e2e = EndToEnd {
        setup_s,
        session_s: done.iter().flat_map(|p| p.session_s.clone()).collect(),
        waits: done.iter().flat_map(|p| p.waits.clone()).collect(),
        steps: done.iter().map(|p| p.steps).sum(),
        session_phase_s: wall,
        reports: done.iter().flat_map(|p| p.reports.clone()).collect(),
        blocking_recall: 1.0,
    };
    push_end_to_end(run, &e2e);
    run.extra.push("work.passes", done.len() as f64, "count", 1);
    run.extra.push(
        "work.sessions",
        (done.len() * SERVE_SESSIONS) as f64,
        "count",
        1,
    );
    run.extra
        .push("work.pairs", art.dataset.len() as f64, "pairs", 1);

    if run.args.trace {
        let n = done.len() as f64;
        let serve = ServeLayers {
            step_s: step_s / n,
            busy_frac: busy / (step_s * run.threads as f64),
            checkpoint_s: done.iter().map(|p| p.checkpoint_s).sum::<f64>() / n,
            checkpoint_bytes: done.iter().map(|p| p.checkpoint_bytes as f64).sum::<f64>() / n,
            recover_s: done.iter().map(|p| p.recover_s).sum::<f64>() / n,
            failed_ops: run.ledger.ops_failed as f64,
            passes: done.len(),
        };
        let first = &done[0];
        let twins: Vec<Twin<'_>> = plans[0]
            .iter()
            .take(4)
            .enumerate()
            .map(|(i, (_, spec, seed))| Twin {
                spec: *spec,
                seed: *seed,
                batches: &first.batches[i],
                report: &first.reports[i],
                session_s: None,
            })
            .collect();
        let source = Source::Curated {
            profile: DatasetProfile::amazon_google(),
            scale: 0.06,
        };
        traced(
            run,
            &art,
            &source,
            scenario.name(),
            experiment,
            &twins,
            serve,
        )?;
    }
    push_run_totals(run);
    Ok(())
}
