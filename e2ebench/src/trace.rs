//! The traced run's instruments: a span recorder with self-time
//! accounting, and stage-by-stage replicas of the two protocol paths
//! whose layers are otherwise called from inside the library —
//! `Scenario::materialize` and the `MatchSession` step loop with the
//! battleship strategy. The replicas call exactly the public functions
//! the library calls, in the same order with the same arguments, and
//! every traced run asserts that they reproduce the untraced artifacts,
//! query batches and reports bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use battleship::blocking::{block_tables, BlockingSpec, BlockingStats};
use battleship::budget::positive_budget;
use battleship::engine::DatasetArtifacts;
use battleship::report::IterationRecord;
use battleship::selection::select_side_with;
use battleship::spatial::{SpatialIndex, SpatialParams};
use battleship::strategies::{Selection, SelectionContext, SelectionScratch, StrategySpec};
use battleship::weak::weak_side;
use battleship::ExperimentConfig;
use em_cluster::{constrained_kmeans, select_k, ConstrainedConfig, KSelectConfig};
use em_core::{
    BinaryConfusion, Dataset, EmError, Label, Membership, PairIdx, Prediction, Result, Rng,
};
use em_graph::{build_graph_blocked, connected_components, BlockedConfig, EdgeConfig, NodeKind};
use em_matcher::{
    train_matcher, FeatureConfig, Featurizer, MatcherConfig, MatcherOutput, TrainedMatcher,
};
use em_synth::{assemble_dataset, generate, generate_pool, DatasetProfile, PoolProfile};
use em_vector::Embeddings;

/// Span names of the traced session partition. Their self times sum
/// to at most the traced session's wall time; the rest is
/// `trace.other_s` (the labeler and the loop between calls).
pub(crate) const SESSION_SPANS: [&str; 8] = [
    "session",
    "matcher.train",
    "matcher.predict",
    "selection",
    "spatial.build",
    "spatial.kselect",
    "spatial.cluster",
    "spatial.graph",
];

/// In-memory span recorder. A span's self time is its duration minus
/// the durations of the spans opened inside it.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    open: Vec<f64>,
    self_s: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub(crate) fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open.push(0.0);
        let t = Instant::now();
        let out = f(self);
        let dt = t.elapsed().as_secs_f64();
        let children = self.open.pop().unwrap_or(0.0);
        *self.self_s.entry(name).or_default() += dt - children;
        *self.calls.entry(name).or_default() += 1;
        if let Some(parent) = self.open.last_mut() {
            *parent += dt;
        }
        out
    }

    pub(crate) fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    pub(crate) fn self_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub(crate) fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    pub(crate) fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub(crate) fn session_self_s(&self) -> f64 {
        SESSION_SPANS.iter().map(|s| self.self_s(s)).sum()
    }
}

/// What a workload materializes: the raw-table source and its
/// candidate generation.
#[derive(Debug, Clone)]
pub(crate) enum Source {
    /// A Table-3 profile at a scale, with its curated pair list (no
    /// blocking).
    Curated { profile: DatasetProfile, scale: f64 },
    /// A streamed record pool blocked into candidates.
    Pool {
        profile: PoolProfile,
        blocking: BlockingSpec,
    },
}

/// `Scenario::materialize`, stage by stage: `synth` (generation),
/// `blocking`, `engine` (self: dataset assembly and naming) and
/// `featurize`. Returns the artifacts and, for pools, the blocking
/// stats.
pub(crate) fn materialize(
    tr: &mut Tracer,
    source: &Source,
    name: &str,
    gen_seed: u64,
) -> Result<(DatasetArtifacts, Option<BlockingStats>)> {
    tr.span("engine", |tr| {
        let mut rng = Rng::seed_from_u64(gen_seed);
        let (mut dataset, stats) = match source {
            Source::Curated { profile, scale } => {
                let profile = profile.clone().scaled(*scale);
                (tr.span("synth", |_| generate(&profile, &mut rng))?, None)
            }
            Source::Pool { profile, blocking } => {
                let mut pool = tr.span("synth", |_| generate_pool(profile, &mut rng))?;
                pool.name = name.to_string();
                let blocked = tr.span("blocking", |_| {
                    block_tables(&pool.left, &pool.right, blocking)
                })?;
                let stats = blocked.stats;
                (
                    assemble_dataset(pool, blocked.candidates, &mut rng)?,
                    Some(stats),
                )
            }
        };
        dataset.name = name.to_string();
        let (featurizer, features) = tr.span("featurize", |_| -> Result<_> {
            let featurizer = Featurizer::new(&dataset, FeatureConfig::default())?;
            let features = featurizer.featurize_all(&dataset)?;
            Ok((featurizer, features))
        })?;
        tr.count("featurize.pairs", dataset.len() as f64);
        Ok((
            DatasetArtifacts {
                dataset,
                featurizer,
                features,
            },
            stats,
        ))
    })
}

/// Inputs of one `SpatialIndex::build_normalized` call, kept to fit
/// the stage's scaling exponent after the session.
pub(crate) struct SpatialInput {
    pub(crate) normalized: Embeddings,
    pub(crate) kinds: Vec<NodeKind>,
    pub(crate) confs: Vec<f32>,
    pub(crate) params: SpatialParams,
}

/// A replayed session: its query batches, its records and its wall
/// time from first batch ready to done.
pub(crate) struct Replay {
    pub(crate) batches: Vec<Vec<PairIdx>>,
    pub(crate) records: Vec<IterationRecord>,
    pub(crate) session_s: f64,
    /// The heterogeneous spatial input of the first selection (the
    /// largest pool), when a battleship session captured it.
    pub(crate) spatial: Option<SpatialInput>,
}

struct Pending {
    pairs: Vec<PairIdx>,
    seed: bool,
    weak: Vec<(PairIdx, Label)>,
    select_secs: f64,
}

/// Drive one session through the protocol of `MatchSession` with the
/// labeler answering from ground truth, calling the matcher, strategy
/// and spatial layers directly under spans.
pub(crate) fn replay_session(
    tr: &mut Tracer,
    dataset: &Dataset,
    features: &Embeddings,
    experiment: &ExperimentConfig,
    spec: StrategySpec,
    seed: u64,
) -> Result<Replay> {
    let mut rng = Rng::seed_from_u64(seed);
    let split = dataset.split();
    let mut pool: Vec<PairIdx> = split.train.clone();
    let valid_idx = split.valid.clone();
    let valid_labels = dataset.ground_truth_of(&valid_idx);
    let test_idx = split.test.clone();
    let test_labels = dataset.ground_truth_of(&test_idx);
    let mut membership = Membership::new(dataset.len());
    let mut strategy = spec.build();
    let mut scratch = SelectionScratch::new();
    let mut spatial = None;

    let mut pending = Some(draw_seed(
        dataset,
        &mut pool,
        &mut membership,
        &mut rng,
        experiment,
    ));
    let t0 = Instant::now();
    let mut batches = Vec::new();
    let mut train: Vec<PairIdx> = Vec::new();
    let mut train_labels: Vec<Label> = Vec::new();
    let mut records: Vec<IterationRecord> = Vec::new();

    while let Some(batch) = pending.take() {
        if !batch.pairs.is_empty() {
            batches.push(batch.pairs.clone());
            let answers: Vec<Label> = batch
                .pairs
                .iter()
                .map(|&p| dataset.ground_truth(p))
                .collect();
            tr.span("session", |_| {
                train.extend_from_slice(&batch.pairs);
                train_labels.extend_from_slice(&answers);
            });
        }
        pending = tr.span("session", |tr| -> Result<Option<Pending>> {
            let matcher_config = MatcherConfig {
                seed: rng.next_u64(),
                ..experiment.matcher.clone()
            };
            let mut idx = train.clone();
            let mut labels = train_labels.clone();
            for &(p, l) in &batch.weak {
                idx.push(p);
                labels.push(l);
            }
            let t_train = Instant::now();
            let matcher = tr.span("matcher.train", |_| {
                train_matcher(
                    features,
                    &idx,
                    &labels,
                    &valid_idx,
                    &valid_labels,
                    &matcher_config,
                )
            })?;
            tr.count(
                "matcher.train_flops",
                train_flops(features, &matcher_config, idx.len(), valid_idx.len()),
            );
            let test_out = predict(tr, &matcher, features, &test_idx)?;
            let train_secs = t_train.elapsed().as_secs_f64();
            let predicted: Vec<Label> = test_out.predictions.iter().map(|p| p.label).collect();
            let metrics = BinaryConfusion::from_labels(&predicted, &test_labels)?.metrics();
            let new_positives = if batch.seed {
                train_labels.iter().filter(|l| l.is_match()).count()
            } else {
                batch
                    .pairs
                    .iter()
                    .filter(|&&p| dataset.ground_truth(p).is_match())
                    .count()
            };
            records.push(IterationRecord {
                iteration: records.len(),
                labels_used: train.len(),
                test_f1_pct: metrics.f1_pct(),
                precision: metrics.precision,
                recall: metrics.recall,
                train_secs,
                select_secs: batch.select_secs,
                new_positives,
                new_labels: batch.pairs.len(),
                weak_used: batch.weak.len(),
            });
            let completed = records.len() - 1;
            if completed >= experiment.al.iterations || pool.is_empty() {
                return Ok(None);
            }

            let t_select = Instant::now();
            let pool_out = predict(tr, &matcher, features, &pool)?;
            let train_out = predict(tr, &matcher, features, &train)?;
            let budget = experiment.al.budget.min(pool.len());
            let mut ctx = SelectionContext {
                dataset,
                features,
                pool: &pool,
                train: &train,
                train_labels: &train_labels,
                pool_preds: &pool_out.predictions,
                pool_reprs: &pool_out.representations,
                train_reprs: &train_out.representations,
                budget,
                iteration: completed,
                config: experiment,
                scratch: &mut scratch,
            };
            let capture = spatial.is_none();
            let selection = tr.span("selection", |tr| match spec {
                StrategySpec::Battleship => {
                    battleship_select(tr, &mut ctx, &mut rng, capture.then_some(&mut spatial))
                }
                _ => strategy.select(&mut ctx, &mut rng),
            })?;
            let select_secs = t_select.elapsed().as_secs_f64();
            if selection.to_label.len() > budget {
                return Err(EmError::InvalidConfig(
                    "selection exceeded its budget".into(),
                ));
            }
            membership.begin();
            for &p in &pool {
                membership.insert(p);
            }
            if selection.to_label.iter().any(|&p| !membership.contains(p)) {
                return Err(EmError::InvalidConfig("selection left the pool".into()));
            }
            membership.begin();
            for &p in &selection.to_label {
                membership.insert(p);
            }
            pool.retain(|&i| !membership.contains(i));
            Ok(Some(Pending {
                pairs: selection.to_label,
                seed: false,
                weak: selection.weak,
                select_secs,
            }))
        })?;
    }
    Ok(Replay {
        batches,
        records,
        session_s: t0.elapsed().as_secs_f64(),
        spatial,
    })
}

fn predict(
    tr: &mut Tracer,
    matcher: &TrainedMatcher,
    features: &Embeddings,
    rows: &[PairIdx],
) -> Result<MatcherOutput> {
    tr.count("matcher.predict_rows", rows.len() as f64);
    tr.span("matcher.predict", |_| matcher.predict(features, rows))
}

/// Multiply-adds ×2 of one training call, from its shapes: per epoch a
/// forward + backward (≈3 forwards) over the training rows plus a
/// forward over the validation rows.
fn train_flops(
    features: &Embeddings,
    config: &MatcherConfig,
    n_train: usize,
    n_valid: usize,
) -> f64 {
    let mut dims = vec![features.dim()];
    dims.extend_from_slice(&config.hidden);
    dims.push(1);
    let forward: f64 = dims.windows(2).map(|w| 2.0 * (w[0] * w[1]) as f64).sum();
    config.epochs as f64 * forward * (3.0 * n_train as f64 + n_valid as f64)
}

/// The balanced seed draw of `MatchSession` (`seed_size/2` per class,
/// topped up from leftovers).
fn draw_seed(
    dataset: &Dataset,
    pool: &mut Vec<PairIdx>,
    membership: &mut Membership,
    rng: &mut Rng,
    experiment: &ExperimentConfig,
) -> Pending {
    let seed_size = experiment.al.seed_size;
    let mut shuffled = pool.clone();
    rng.shuffle(&mut shuffled);
    let half = seed_size / 2;
    let (mut chosen, mut leftovers) = (Vec::with_capacity(seed_size), Vec::new());
    let (mut n_pos, mut n_neg) = (0usize, 0usize);
    for &idx in &shuffled {
        if chosen.len() >= seed_size {
            break;
        }
        let take = if dataset.ground_truth(idx).is_match() {
            n_pos += 1;
            n_pos <= half
        } else {
            n_neg += 1;
            n_neg <= seed_size - half
        };
        if take {
            chosen.push(idx);
        } else {
            leftovers.push(idx);
        }
    }
    for &idx in &leftovers {
        if chosen.len() >= seed_size {
            break;
        }
        chosen.push(idx);
    }
    membership.begin();
    for &idx in &chosen {
        membership.insert(idx);
    }
    pool.retain(|&i| !membership.contains(i));
    Pending {
        pairs: chosen,
        seed: true,
        weak: Vec::new(),
        select_secs: 0.0,
    }
}

/// `BattleshipStrategy::select` with its spatial builds under spans.
fn battleship_select(
    tr: &mut Tracer,
    ctx: &mut SelectionContext<'_>,
    rng: &mut Rng,
    capture: Option<&mut Option<SpatialInput>>,
) -> Result<Selection> {
    let params = &ctx.config.battleship;
    let n_pool = ctx.pool.len();
    if n_pool == 0 {
        return Ok(Selection::default());
    }
    let n_train = ctx.train.len();
    let (hetero_reprs, kinds, confs) = ctx.scratch.take(ctx.pool_reprs.dim())?;
    for i in 0..n_pool {
        hetero_reprs.push(ctx.pool_reprs.row(i))?;
        kinds.push(if ctx.pool_preds[i].label.is_match() {
            NodeKind::PredictedMatch
        } else {
            NodeKind::PredictedNonMatch
        });
        confs.push(ctx.pool_preds[i].confidence_in_label());
    }
    for j in 0..n_train {
        hetero_reprs.push(ctx.train_reprs.row(j))?;
        kinds.push(if ctx.train_labels[j].is_match() {
            NodeKind::LabeledMatch
        } else {
            NodeKind::LabeledNonMatch
        });
        confs.push(1.0);
    }
    hetero_reprs.normalize_rows();
    let hetero_params = SpatialParams::from((params, rng.next_u64()));
    if let Some(slot) = capture {
        *slot = Some(SpatialInput {
            normalized: hetero_reprs.clone(),
            kinds: kinds.clone(),
            confs: confs.clone(),
            params: hetero_params,
        });
    }
    let hetero = spatial_build(tr, hetero_reprs, kinds, confs, &hetero_params)?;

    let (pos_nodes, neg_nodes) = split_by_prediction(ctx.pool_preds);
    let build_side = |tr: &mut Tracer, positions: &[usize], kind: NodeKind, seed: u64| {
        if positions.is_empty() {
            return Ok(None);
        }
        let reprs = hetero_reprs.gather(positions)?;
        let confs: Vec<f32> = positions
            .iter()
            .map(|&p| ctx.pool_preds[p].confidence_in_label())
            .collect();
        let index = spatial_build(
            tr,
            &reprs,
            &vec![kind; positions.len()],
            &confs,
            &SpatialParams::from((params, seed)),
        )?;
        Ok::<_, EmError>(Some((index, positions.to_vec())))
    };
    let plus = build_side(tr, &pos_nodes, NodeKind::PredictedMatch, rng.next_u64())?;
    let minus = build_side(tr, &neg_nodes, NodeKind::PredictedNonMatch, rng.next_u64())?;

    let b_pos_target = positive_budget(ctx.budget, ctx.iteration);
    let (b_pos, b_neg) =
        split_budget_with_spill(b_pos_target, ctx.budget, pos_nodes.len(), neg_nodes.len());
    let mut to_label = Vec::with_capacity(ctx.budget);
    for (side, side_budget) in [(&plus, b_pos), (&minus, b_neg)] {
        let Some((index, positions)) = side else {
            continue;
        };
        let picked = select_side_with(
            index,
            &hetero.graph,
            positions,
            side_budget,
            params.alpha,
            params.beta,
            params.rho,
            params.centrality,
            rng,
        )?;
        to_label.extend(picked.iter().map(|&local| ctx.pool[positions[local]]));
    }

    let mut weak = Vec::new();
    if ctx.config.al.weak_supervision && ctx.config.al.weak_budget > 0 {
        let half = ctx.config.al.weak_budget / 2;
        let (w_pos, w_neg) = split_budget_with_spill(
            half,
            ctx.config.al.weak_budget,
            pos_nodes.len(),
            neg_nodes.len(),
        );
        for (side, side_budget) in [(&plus, w_pos), (&minus, w_neg)] {
            let Some((index, positions)) = side else {
                continue;
            };
            let preds: Vec<_> = positions.iter().map(|&p| ctx.pool_preds[p]).collect();
            let pairs: Vec<_> = positions.iter().map(|&p| ctx.pool[p]).collect();
            weak.extend(weak_side(
                index,
                &hetero.graph,
                positions,
                &preds,
                &pairs,
                side_budget,
                params.weak_method,
                params.beta,
                rng,
            )?);
        }
        let labeled: std::collections::HashSet<_> = to_label.iter().copied().collect();
        weak.retain(|(p, _)| !labeled.contains(p));
    }
    Ok(Selection { to_label, weak })
}

fn split_by_prediction(preds: &[Prediction]) -> (Vec<usize>, Vec<usize>) {
    let (pos, neg): (Vec<usize>, Vec<usize>) =
        (0..preds.len()).partition(|&i| preds[i].label.is_match());
    (pos, neg)
}

fn split_budget_with_spill(
    b_pos_target: usize,
    b: usize,
    n_pos: usize,
    n_neg: usize,
) -> (usize, usize) {
    let b_pos = b_pos_target.min(n_pos);
    let b_neg = (b - b_pos).min(n_neg);
    let unspent = b - b_pos - b_neg;
    ((b_pos + unspent).min(n_pos), b_neg)
}

/// `SpatialIndex::build_normalized` with its k-selection, constrained
/// clustering and graph stages under spans.
fn spatial_build(
    tr: &mut Tracer,
    normalized: &Embeddings,
    kinds: &[NodeKind],
    confs: &[f32],
    params: &SpatialParams,
) -> Result<SpatialIndex> {
    tr.span("spatial.build", |tr| {
        let n = normalized.len();
        if n == 0 {
            return Err(EmError::EmptyInput("spatial index nodes".into()));
        }
        let k_lo = (1.0 / params.cluster_max_frac).ceil() as usize;
        let k_hi = (1.0 / params.cluster_min_frac).floor() as usize;
        let (clusters, k) = if n < k_lo.max(4) * 2 || k_lo + 2 > k_hi.min(n) {
            (vec![0usize; n], 1)
        } else {
            let (k_min, k_max) = (k_lo.max(2), k_hi.min(n));
            let gathered;
            let sweep: &Embeddings = if n > params.kselect_sample {
                let mut rng = Rng::seed_from_u64(params.seed ^ 0x5A5A);
                gathered = normalized.gather(&rng.sample_indices(n, params.kselect_sample))?;
                &gathered
            } else {
                normalized
            };
            let config = KSelectConfig {
                k_min,
                k_max,
                kmeans_iters: 6,
                silhouette_sample: 256,
                seed: params.seed,
                ann: params.ann,
                ..Default::default()
            };
            let k = tr.span("spatial.kselect", |_| select_k(sweep, config))?.k;
            let mut config = ConstrainedConfig::from_fractions(
                n,
                k,
                params.cluster_min_frac,
                params.cluster_max_frac,
                params.seed,
            )?;
            if config.min_size * k > n {
                config.min_size = n / k;
            }
            if config.max_size * k < n {
                config.max_size = n.div_ceil(k);
            }
            config.ann = params.ann;
            let assignment = tr
                .span("spatial.cluster", |_| {
                    constrained_kmeans(normalized, config)
                })?
                .assignment;
            (assignment, k)
        };
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &c) in clusters.iter().enumerate() {
            members[c].push(i);
        }
        let (graph, components) = tr.span("spatial.graph", |_| -> Result<_> {
            let graph = build_graph_blocked(
                normalized,
                kinds,
                confs,
                &members,
                &BlockedConfig::from_policy(
                    EdgeConfig {
                        q: params.q,
                        extra_ratio: params.extra_ratio,
                    },
                    &params.ann,
                    params.seed ^ 0xA22_0E55,
                ),
            )?;
            let components = connected_components(&graph);
            Ok((graph, components))
        })?;
        tr.count("spatial.nodes", n as f64);
        tr.count("spatial.edges", graph.n_edges() as f64);
        Ok(SpatialIndex {
            graph,
            components,
            clusters,
            k,
        })
    })
}

/// Scaling exponent of `SpatialIndex::build_normalized` over ¼, ½ and
/// all rows of a captured input (strided subsets keep its mix of
/// kinds); each size is the median of three builds.
pub(crate) fn spatial_exponent(input: &SpatialInput) -> Result<f64> {
    let n = input.normalized.len();
    let mut points = Vec::new();
    for stride in [4usize, 2, 1] {
        let rows: Vec<usize> = (0..n).step_by(stride).collect();
        let normalized = input.normalized.gather(&rows)?;
        let kinds: Vec<NodeKind> = rows.iter().map(|&r| input.kinds[r]).collect();
        let confs: Vec<f32> = rows.iter().map(|&r| input.confs[r]).collect();
        let mut times = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(SpatialIndex::build_normalized(
                &normalized,
                &kinds,
                &confs,
                &input.params,
            )?);
            times.push(t.elapsed().as_secs_f64());
        }
        points.push((rows.len() as f64, crate::record::median(&times)));
    }
    Ok(crate::record::loglog_slope(&points))
}
