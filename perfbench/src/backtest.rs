//! `backtest`: the paper's hold-out procedure, offline.
//!
//! Sliding window w = 140, K = 20 of 40 lags, next-working-day scenario,
//! a retrain at every slide over each vehicle's whole period, for LR and
//! Lasso (α = 0.1) on the calling thread. One op is one (vehicle, model)
//! evaluation: the vehicle's view is built and evaluated; each op is
//! one host-clock stretch. No network, store or disk is touched.
//!
//! The fleet and its 40-vehicle pool are fixed so that each (vehicle,
//! model) percentage error can be checked against
//! `reference/backtest_pe.json`, and so that every seed does the same
//! work per cycle of ops; the seed orders the ops.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use vup_core::evaluate::{evaluate_vehicle, first_evaluable_slot};
use vup_core::select::select_lags;
use vup_core::window::{build_dataset_arena, feature_row_into};
use vup_core::{ModelSpec, PipelineConfig, Scenario, VehicleView};
use vup_fleetsim::{Fleet, FleetConfig, VehicleId};
use vup_ml::scaler::StandardScaler;
use vup_ml::{ArenaStats, Regressor, RegressorSpec, TrainArena};

use crate::measure::{Acc, HostClock, SplitMix, Total};
use crate::report::Phase;

/// Seed of the fixed fleet the references were computed on.
const FLEET_SEED: u64 = 2019;
/// Vehicles generated; the pool is drawn from them in id order.
const FLEET_SIZE: usize = 100;
/// Vehicles in the pool.
const POOL_SIZE: usize = 40;
/// Series-length band of pool vehicles, in scenario slots: a
/// full-period evaluation makes 380-655 retrains.
const POOL_LEN: std::ops::RangeInclusive<usize> = 500..=800;
/// Absolute tolerance on a percentage error against its reference, as
/// the fig5 golden test uses.
const PE_TOLERANCE: f64 = 1e-9;
/// Traced ops re-run through `evaluate_vehicle` for the bit-identity
/// check (the rest are checked against the references).
const TRACE_VERIFY: usize = 12;

/// The two models of the workload, with their reference labels.
fn models() -> [(&'static str, RegressorSpec); 2] {
    [
        ("LR", RegressorSpec::Linear),
        ("Lasso", RegressorSpec::lasso_paper()),
    ]
}

/// The paper's own procedure: defaults (w = 140, K = 20 of 40 lags,
/// next-working-day, sliding) with a retrain at every slide.
fn config(spec: &RegressorSpec) -> PipelineConfig {
    PipelineConfig {
        model: ModelSpec::Learned(spec.clone()),
        retrain_every: 1,
        ..PipelineConfig::default()
    }
}

fn fleet() -> Fleet {
    Fleet::generate(FleetConfig::small(FLEET_SIZE, FLEET_SEED))
}

/// The pool: the first [`POOL_SIZE`] vehicles whose series length lies
/// in [`POOL_LEN`].
fn pool(fleet: &Fleet) -> Vec<u32> {
    (0..FLEET_SIZE as u32)
        .filter(|&id| {
            let len = VehicleView::build(fleet, VehicleId(id), Scenario::NextWorkingDay).len();
            POOL_LEN.contains(&len)
        })
        .take(POOL_SIZE)
        .collect()
}

#[derive(Debug, Serialize, Deserialize)]
struct Reference {
    fleet_seed: u64,
    fleet_size: usize,
    entries: Vec<ReferenceEntry>,
}

#[derive(Debug, Serialize, Deserialize)]
struct ReferenceEntry {
    vehicle_id: u32,
    model: String,
    percentage_error: f64,
    retrains: usize,
}

const REFERENCE: &str = include_str!("../reference/backtest_pe.json");

/// Evaluates every (pool vehicle, model) pair and writes the references.
pub fn write_reference(path: &Path) -> Result<(), String> {
    let fleet = fleet();
    let mut entries = Vec::new();
    for id in pool(&fleet) {
        for (label, spec) in models() {
            let view = VehicleView::build(&fleet, VehicleId(id), Scenario::NextWorkingDay);
            let eval = evaluate_vehicle(&view, &config(&spec))
                .map_err(|e| format!("vehicle {id} {label}: {e}"))?;
            entries.push(ReferenceEntry {
                vehicle_id: id,
                model: label.to_string(),
                percentage_error: eval.percentage_error,
                retrains: eval.retrain_count,
            });
        }
    }
    let reference = Reference {
        fleet_seed: FLEET_SEED,
        fleet_size: FLEET_SIZE,
        entries,
    };
    let json = serde_json::to_string_pretty(&reference).expect("reference serializes");
    std::fs::write(path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// One op of the plan: a pool vehicle and a model index into [`models`].
type Op = (u32, usize);

struct Setup {
    fleet: Fleet,
    ops: Vec<Op>,
    configs: Vec<PipelineConfig>,
    reference: BTreeMap<(u32, usize), f64>,
}

/// The reference errors by (vehicle, model index).
fn load_reference() -> Result<BTreeMap<(u32, usize), f64>, String> {
    let parsed: Reference =
        serde_json::from_str(REFERENCE).map_err(|e| format!("backtest reference: {e}"))?;
    if parsed.fleet_seed != FLEET_SEED || parsed.fleet_size != FLEET_SIZE {
        return Err("backtest reference was computed on another fleet".into());
    }
    let labels: Vec<&str> = models().iter().map(|(l, _)| *l).collect();
    let mut reference = BTreeMap::new();
    for entry in &parsed.entries {
        let model = labels
            .iter()
            .position(|l| *l == entry.model)
            .ok_or_else(|| format!("backtest reference: unknown model {}", entry.model))?;
        reference.insert((entry.vehicle_id, model), entry.percentage_error);
    }
    Ok(reference)
}

/// Fleet synthesis, reference load, the seeded op plan, and one
/// discarded warm-up op per model, each a host-clock stretch of `spent`.
fn setup(seed: u64, host: &mut HostClock, spent: &mut Total) -> Result<Setup, String> {
    let fleet = host.time_into(spent, fleet);
    let (reference, pool) =
        host.time_into(spent, || load_reference().map(|r| (r, pool(&fleet))))?;
    if pool.len() < POOL_SIZE {
        return Err(format!("backtest pool holds only {} vehicles", pool.len()));
    }
    let mut ops: Vec<Op> = pool
        .iter()
        .flat_map(|&id| (0..models().len()).map(move |m| (id, m)))
        .collect();
    SplitMix::new(seed).shuffle(&mut ops);

    let configs: Vec<PipelineConfig> = models().iter().map(|(_, s)| config(s)).collect();
    for config in &configs {
        host.time_into(spent, || {
            std::hint::black_box(evaluate_op(&fleet, pool[0], config))
                .map_err(|e| format!("backtest warm-up: {e}"))
        })?;
    }
    Ok(Setup {
        fleet,
        ops,
        configs,
        reference,
    })
}

/// One op as the program runs it: build the view, evaluate.
fn evaluate_op(
    fleet: &Fleet,
    id: u32,
    config: &PipelineConfig,
) -> vup_core::Result<vup_core::evaluate::VehicleEvaluation> {
    let view = VehicleView::build(fleet, VehicleId(id), config.scenario);
    evaluate_vehicle(&view, config)
}

/// Runs the workload: `setups` timed set-ups (the last one is kept),
/// then whole cycles of ops while the next one is predicted to end
/// within `budget`.
pub fn run(seed: u64, budget: Duration, traced: bool, setups: usize) -> Result<Phase, String> {
    let mut host = HostClock::new();
    let mut phase = Phase::default();
    let mut state = None;
    for _ in 0..setups.max(1) {
        // The previous set-up is freed first, so peak memory holds one.
        drop(state.take());
        let mut spent = Total::default();
        state = Some(setup(seed, &mut host, &mut spent)?);
        phase.add_setup(&spent);
    }
    let state = state.expect("at least one set-up ran");
    let spans = Spans::default();
    let mut traced_outputs: Vec<(Op, Vec<f64>)> = Vec::new();

    let started = Instant::now();
    let mut matched = 0usize;
    let mut cycles = 0usize;
    let mut last_cycle = Duration::ZERO;
    let mut cycle_walls = Vec::new();
    // Whole cycles only, so every run does the same work whatever the
    // seed: a cycle starts while it is predicted to end within budget.
    while cycles == 0 || started.elapsed() + last_cycle <= budget {
        let cycle_started = Instant::now();
        for &op in &state.ops {
            let (id, model) = op;
            let config = &state.configs[model];
            phase.attempted += 1;
            let (result, t) = host.time(|| {
                if traced {
                    let spec = &models()[model].1;
                    traced_evaluate(&state.fleet, id, config, spec, &spans)
                } else {
                    evaluate_op(&state.fleet, id, config).map(|e| Evaluated {
                        predicted: Vec::new(),
                        percentage_error: e.percentage_error,
                        retrains: e.retrain_count,
                    })
                }
            });
            phase.add_busy(&t);
            match std::hint::black_box(result) {
                Ok(eval) => {
                    phase.add_latency(t.ms(), t.scaled_ms());
                    let retrains = eval.retrains.max(1) as f64;
                    phase.add_retrain(t.ms() / retrains, t.scaled_ms() / retrains);
                    match state.reference.get(&op) {
                        Some(&want) if (eval.percentage_error - want).abs() <= PE_TOLERANCE => {
                            matched += 1
                        }
                        Some(&want) => phase.fail(format!(
                            "vehicle {id} {}: PE {} differs from reference {want}",
                            models()[model].0,
                            eval.percentage_error
                        )),
                        None => phase.fail(format!("vehicle {id}: no reference PE")),
                    }
                    if traced
                        && traced_outputs.len() < TRACE_VERIFY
                        && traced_outputs.iter().all(|(o, _)| *o != op)
                    {
                        traced_outputs.push((op, eval.predicted));
                    }
                }
                Err(e) => {
                    phase.failed += 1;
                    phase.add_failed_latency();
                    phase.notes.push(format!("vehicle {id} failed: {e}"));
                }
            }
        }
        cycles += 1;
        last_cycle = cycle_started.elapsed();
        cycle_walls.push(format!("{:.2}", last_cycle.as_secs_f64()));
    }
    phase.calibration_ms = host.median_calibration_ms();

    if traced {
        // The rebuilt loop must reproduce evaluate_vehicle bit for bit.
        for ((id, model), predicted) in &traced_outputs {
            match evaluate_op(&state.fleet, *id, &state.configs[*model]) {
                Ok(eval) => {
                    let want: Vec<f64> = eval.points.iter().map(|p| p.predicted).collect();
                    if want.len() != predicted.len()
                        || want
                            .iter()
                            .zip(predicted)
                            .any(|(a, b)| a.to_bits() != b.to_bits())
                    {
                        phase.fail(format!(
                            "vehicle {id} {}: traced loop differs from evaluate_vehicle",
                            models()[*model].0
                        ));
                    }
                }
                Err(e) => phase.fail(format!("vehicle {id}: evaluate_vehicle failed: {e}")),
            }
        }
        phase.notes.push(format!(
            "traced loop bit-identical to evaluate_vehicle on {} (vehicle, model) pairs",
            traced_outputs.len()
        ));
        phase.layers = spans.metrics(phase.completed(), clock_total_ms(&phase));
    }
    phase.notes.push(format!(
        "{cycles} cycles of {} ops ({} s each); {matched} of {} evaluations matched their reference PE within {PE_TOLERANCE:e}",
        state.ops.len(),
        cycle_walls.join(", "),
        phase.completed()
    ));
    Ok(phase)
}

/// Sum of completed op latencies, the parent span of every layer span.
fn clock_total_ms(phase: &Phase) -> f64 {
    phase
        .measured
        .latency_ms
        .iter()
        .filter(|l| l.is_finite())
        .sum()
}

/// What one evaluation yields for the checks.
struct Evaluated {
    /// Every prediction in slot order (traced loop only).
    predicted: Vec<f64>,
    percentage_error: f64,
    retrains: usize,
}

/// Layer spans of the traced loop.
#[derive(Default)]
struct Spans {
    view: Acc,
    fit: Acc,
    select: Acc,
    window: Acc,
    scale: Acc,
    linear: Acc,
    lasso: Acc,
    predict: Acc,
    arena: std::sync::Mutex<ArenaStats>,
}

impl Spans {
    /// Per-layer metrics over `ops` evaluations whose latencies sum to
    /// `total_ms`.
    fn metrics(&self, ops: u64, total_ms: f64) -> Vec<(&'static str, f64)> {
        let ops = ops.max(1) as f64;
        let per_call = |acc: &Acc| acc.ms() / acc.calls().max(1) as f64;
        let arena = *self.arena.lock().expect("arena stats lock");
        let rows = (arena.reused_rows + arena.filled_rows).max(1) as f64;
        let self_ms = total_ms - self.view.ms() - self.fit.ms() - self.predict.ms();
        vec![
            ("ml.linear.fit_ms", per_call(&self.linear)),
            ("ml.lasso.fit_ms", per_call(&self.lasso)),
            ("ml.fit.ms", self.fit.ms() / ops),
            ("ml.fit.calls", self.fit.calls() as f64 / ops),
            ("ml.scale.ms", self.scale.ms() / ops),
            ("core.select.ms", self.select.ms() / ops),
            ("core.window.ms", self.window.ms() / ops),
            ("core.window.reuse_ratio", arena.reused_rows as f64 / rows),
            ("core.view.ms", self.view.ms() / ops),
            ("core.view.calls", self.view.calls() as f64 / ops),
            ("ml.predict.ms", self.predict.ms() / ops),
            ("ml.predict.calls", self.predict.calls() as f64 / ops),
            ("core.evaluate.self_ms", self_ms / ops),
        ]
    }
}

/// Schema key for [`TrainArena`] reuse, built as `FittedPredictor`
/// builds its own: the series identity, the feature flags and the lags.
fn arena_key(view: &VehicleView, config: &PipelineConfig, lags: &[usize]) -> u64 {
    let f = &config.features;
    let can_idx = f.can_channels.indices();
    vup_ml::arena::fingerprint(
        [
            view.vehicle_id.0 as u64,
            config.scenario as u64,
            f.lag_hours as u64,
            f.target_calendar as u64,
            f.target_weather as u64,
            can_idx.len() as u64,
        ]
        .into_iter()
        .chain(can_idx.iter().map(|&c| c as u64))
        .chain([lags.len() as u64])
        .chain(lags.iter().map(|&l| l as u64)),
    )
}

/// A fitted model of the traced loop.
struct Fitted {
    lags: Vec<usize>,
    scaler: StandardScaler,
    model: Box<dyn Regressor + Send + Sync>,
}

/// `evaluate_vehicle` rebuilt from the public calls it makes, each
/// timed: `VehicleView::build`, `select_lags`, `build_dataset_arena`,
/// `StandardScaler`, `Regressor::fit` and the predict path.
fn traced_evaluate(
    fleet: &Fleet,
    id: u32,
    config: &PipelineConfig,
    spec: &RegressorSpec,
    spans: &Spans,
) -> vup_core::Result<Evaluated> {
    config.validate()?;
    let view = spans
        .view
        .time(|| VehicleView::build(fleet, VehicleId(id), config.scenario));
    let start = first_evaluable_slot(config);
    if view.len() <= start + 1 {
        return Err(vup_ml::MlError::NotEnoughSamples {
            required: start + 2,
            actual: view.len(),
        });
    }
    let regressor_span = match spec {
        RegressorSpec::Linear => &spans.linear,
        _ => &spans.lasso,
    };
    let mut arena = TrainArena::new();
    let mut fitted: Option<Fitted> = None;
    let mut retrains = 0usize;
    let mut predicted = Vec::with_capacity(view.len() - start);
    let mut actual = Vec::with_capacity(view.len() - start);
    let mut row = Vec::new();
    for target in start..view.len() {
        if fitted.is_none() || (target - start).is_multiple_of(config.retrain_every) {
            let fit_started = Instant::now();
            let (from, to) = (target - config.train_window, target);
            let lags = spans.select.time(|| {
                select_lags(
                    &view.hours_range(from, to),
                    config.effective_k(),
                    config.max_lag,
                )
            });
            let key = arena_key(&view, config, &lags);
            let mut dataset = spans.window.time(|| {
                build_dataset_arena(
                    &mut arena,
                    key,
                    &view,
                    from + config.max_lag,
                    to,
                    &lags,
                    &config.features,
                )
            })?;
            let scaler = spans.scale.time(|| {
                let scaler = StandardScaler::fit(dataset.x())?;
                dataset.standardize_in_place(&scaler)?;
                Ok::<_, vup_ml::MlError>(scaler)
            })?;
            let mut model = spec.build();
            regressor_span.time(|| model.fit(&dataset))?;
            arena.reclaim(dataset);
            spans.fit.add(fit_started.elapsed());
            fitted = Some(Fitted {
                lags,
                scaler,
                model,
            });
            retrains += 1;
        }
        let f = fitted.as_ref().expect("fitted above");
        let hours = spans.predict.time(|| {
            row.clear();
            row.resize(config.features.n_features(f.lags.len()), 0.0);
            feature_row_into(&view, target, &f.lags, &config.features, &mut row);
            f.scaler.transform_row(&mut row)?;
            f.model.predict_row(&row).map(|h| h.clamp(0.0, 24.0))
        })?;
        predicted.push(hours);
        actual.push(view.slot(target).hours);
    }
    let mut stats = spans.arena.lock().expect("arena stats lock");
    *stats = stats.merged(arena.stats());
    drop(stats);
    Ok(Evaluated {
        percentage_error: vup_ml::metrics::percentage_error(&predicted, &actual)?,
        predicted,
        retrains,
    })
}
