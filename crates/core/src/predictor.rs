//! Per-vehicle model fitting and prediction.
//!
//! [`FittedPredictor::fit`] performs one training pass exactly as the
//! paper prescribes: compute the ACF of the training window's utilization
//! series, keep the `K` strongest lags, build the windowed records,
//! standardize the features, and train the configured regressor. The
//! naive baselines (LV, MA) skip the feature machinery and forecast from
//! the raw series.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};
use vup_ml::baseline::BaselineSpec;
use vup_ml::instrument::MlTimers;
use vup_ml::scaler::StandardScaler;
use vup_ml::{Regressor, SavedModel, TrainArena};

use crate::config::{ModelSpec, PipelineConfig};
use crate::select::select_lags;
use crate::view::VehicleView;
use crate::window::{build_dataset_arena, feature_row_into};

/// Physical bounds on a daily-hours prediction.
const MIN_HOURS: f64 = 0.0;
/// Upper physical bound (a day has 24 hours).
const MAX_HOURS: f64 = 24.0;

thread_local! {
    /// Per-thread feature-row scratch for the predict hot path; fully
    /// overwritten on every use, so sharing it across predictors is safe.
    static PREDICT_ROW: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Schema fingerprint for [`TrainArena`] reuse: everything a design-matrix
/// row's contents depend on besides the target index — the vehicle, the
/// scenario that shaped the view, the selected lags and the feature
/// flags. Section counts separate the variable-length parts.
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

#[derive(Clone)]
enum FittedKind {
    Baseline(BaselineSpec),
    Learned {
        scaler: StandardScaler,
        model: Box<dyn Regressor + Send + Sync>,
    },
}

/// A model fitted on one training window of one vehicle.
///
/// `Clone + Send + Sync` by construction, so `vup-serve` can hold one in
/// an `Arc` and serve predictions from many threads at once.
#[derive(Clone)]
pub struct FittedPredictor {
    kind: FittedKind,
    lags: Vec<usize>,
    config: PipelineConfig,
    /// Timing hooks carried from fitting; predictions self-record their
    /// duration into `timers.predict_nanos`. No-op (and clock-free)
    /// unless fitted through [`FittedPredictor::fit_arena_observed`] with
    /// live timers.
    timers: MlTimers,
}

impl FittedPredictor {
    /// Fits on the training window of slots `[train_from, train_to)`.
    ///
    /// For learned models the window must hold at least
    /// `max_lag + 2` slots so that at least two records exist.
    pub fn fit(
        view: &VehicleView,
        config: &PipelineConfig,
        train_from: usize,
        train_to: usize,
    ) -> crate::Result<FittedPredictor> {
        Self::fit_arena_observed(
            view,
            config,
            train_from,
            train_to,
            &MlTimers::disabled(),
            &mut TrainArena::new(),
        )
    }

    /// [`FittedPredictor::fit`] with timing, building the design matrix
    /// through a caller-owned [`TrainArena`]. The whole fit is recorded
    /// into `timers.fit_nanos` under an `ml_fit` span, and the returned
    /// predictor keeps a clone of `timers` so each later
    /// [`predict`](FittedPredictor::predict) records into
    /// `timers.predict_nanos`. A sequence of retrain episodes for the
    /// *same vehicle stream* can share one arena to reuse buffers and the
    /// overlapping window rows; a one-off fit passes a fresh
    /// `TrainArena::new()`. Neither the arena nor the timing ever changes
    /// what is fitted or predicted — results are bit-identical to
    /// [`FittedPredictor::fit`].
    pub fn fit_arena_observed(
        view: &VehicleView,
        config: &PipelineConfig,
        train_from: usize,
        train_to: usize,
        timers: &MlTimers,
        arena: &mut TrainArena,
    ) -> crate::Result<FittedPredictor> {
        let mut span = timers.trace.child("ml_fit");
        span.arg("vehicle", view.vehicle_id.0);
        span.arg("train_from", train_from);
        span.arg("train_to", train_to);
        let result = timers
            .fit_nanos
            .time(|| Self::fit_inner(view, config, train_from, train_to, timers, arena));
        if let Ok(fitted) = &result {
            span.arg("lags", fitted.lags.len());
        }
        result
    }

    fn fit_inner(
        view: &VehicleView,
        config: &PipelineConfig,
        train_from: usize,
        train_to: usize,
        timers: &MlTimers,
        arena: &mut TrainArena,
    ) -> crate::Result<FittedPredictor> {
        config.validate()?;
        if train_to > view.len() || train_from >= train_to {
            return Err(vup_ml::MlError::NotEnoughSamples {
                required: 2,
                actual: 0,
            });
        }
        match &config.model {
            ModelSpec::Baseline(spec) => Ok(FittedPredictor {
                kind: FittedKind::Baseline(*spec),
                lags: Vec::new(),
                config: config.clone(),
                timers: timers.clone(),
            }),
            ModelSpec::Learned(spec) => {
                let window_len = train_to - train_from;
                if window_len < config.max_lag + 2 {
                    return Err(vup_ml::MlError::NotEnoughSamples {
                        required: config.max_lag + 2,
                        actual: window_len,
                    });
                }
                // Statistics-based feature selection on the window's series.
                let train_hours = view.hours_range(train_from, train_to);
                let lags = select_lags(&train_hours, config.effective_k(), config.max_lag);

                let mut dataset = build_dataset_arena(
                    arena,
                    arena_key(view, config, &lags),
                    view,
                    train_from + config.max_lag,
                    train_to,
                    &lags,
                    &config.features,
                )?;
                // Fit-then-transform in place: the same arithmetic as
                // `StandardScaler::fit_transform` without cloning the
                // arena-owned matrix.
                let scaler = StandardScaler::fit(dataset.x())?;
                dataset.standardize_in_place(&scaler)?;
                let mut model = spec.build();
                model.fit(&dataset)?;
                arena.reclaim(dataset);
                Ok(FittedPredictor {
                    kind: FittedKind::Learned { scaler, model },
                    lags,
                    config: config.clone(),
                    timers: timers.clone(),
                })
            }
        }
    }

    /// The lags selected during fitting (empty for baselines).
    pub fn selected_lags(&self) -> &[usize] {
        &self.lags
    }

    /// The configuration this predictor was fitted under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Display label of the fitted model.
    pub fn label(&self) -> &'static str {
        self.config.model.label()
    }

    /// Predicts the utilization hours of slot `target`, clamped to the
    /// physical `[0, 24]` range.
    ///
    /// `target` must leave enough history: `max_lag` slots for learned
    /// models, at least one slot for the baselines.
    pub fn predict(&self, view: &VehicleView, target: usize) -> crate::Result<f64> {
        self.timers
            .predict_nanos
            .time(|| self.predict_inner(view, target))
    }

    fn predict_inner(&self, view: &VehicleView, target: usize) -> crate::Result<f64> {
        if target > view.len() {
            return Err(vup_ml::MlError::InvalidParameter {
                name: "target",
                reason: format!("slot {target} beyond series of {}", view.len()),
            });
        }
        let raw = match &self.kind {
            FittedKind::Baseline(spec) => {
                if target == 0 {
                    return Err(vup_ml::MlError::NotEnoughSamples {
                        required: 1,
                        actual: 0,
                    });
                }
                let history_start = match spec {
                    BaselineSpec::LastValue => target - 1,
                    BaselineSpec::MovingAverage(p) => target.saturating_sub(*p),
                };
                let history = view.hours_range(history_start, target);
                spec.build()?.forecast(&history)?
            }
            FittedKind::Learned { scaler, model } => {
                let max_lag = self.config.max_lag;
                if target < max_lag {
                    return Err(vup_ml::MlError::NotEnoughSamples {
                        required: max_lag,
                        actual: target,
                    });
                }
                PREDICT_ROW.with(|cell| {
                    let mut row = cell.borrow_mut();
                    row.clear();
                    row.resize(self.config.features.n_features(self.lags.len()), 0.0);
                    feature_row_into(view, target, &self.lags, &self.config.features, &mut row);
                    scaler.transform_row(&mut row)?;
                    model.predict_row(&row)
                })?
            }
        };
        Ok(raw.clamp(MIN_HOURS, MAX_HOURS))
    }

    /// Snapshots everything needed to rebuild this predictor into the
    /// serializable [`SavedPredictor`] envelope.
    pub fn save(&self) -> SavedPredictor {
        let kind = match &self.kind {
            FittedKind::Baseline(spec) => SavedPredictorKind::Baseline(*spec),
            FittedKind::Learned { scaler, model } => SavedPredictorKind::Learned {
                scaler: scaler.clone(),
                model: model.save(),
            },
        };
        SavedPredictor {
            kind,
            lags: self.lags.clone(),
            config: self.config.clone(),
        }
    }
}

/// Serializable counterpart of the private fitted-model state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SavedPredictorKind {
    /// A naive series baseline (no fit state beyond the spec).
    Baseline(BaselineSpec),
    /// A learned regressor with its feature scaler.
    Learned {
        /// The standardizer fitted on the training window.
        scaler: StandardScaler,
        /// The fitted estimator, type-tagged for restoration.
        model: SavedModel,
    },
}

/// A serializable snapshot of a [`FittedPredictor`].
///
/// Captures the fitted model (or baseline spec), the selected lags and
/// the pipeline configuration — everything [`FittedPredictor::predict`]
/// consults. Because the JSON shim round-trips `f64` values bit-exactly,
/// a save → serialize → deserialize → restore cycle yields a predictor
/// whose outputs are bit-identical to the original's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedPredictor {
    kind: SavedPredictorKind,
    lags: Vec<usize>,
    config: PipelineConfig,
}

impl SavedPredictor {
    /// The configuration the snapshotted predictor was fitted under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Rebuilds the live predictor.
    ///
    /// The restored predictor carries disabled timers: snapshots hold
    /// model state, not observability wiring.
    pub fn restore(self) -> FittedPredictor {
        let kind = match self.kind {
            SavedPredictorKind::Baseline(spec) => FittedKind::Baseline(spec),
            SavedPredictorKind::Learned { scaler, model } => FittedKind::Learned {
                scaler,
                model: model.restore(),
            },
        };
        FittedPredictor {
            kind,
            lags: self.lags,
            config: self.config,
            timers: MlTimers::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use crate::scenario::Scenario;
    use vup_fleetsim::fleet::{Fleet, FleetConfig, VehicleId};
    use vup_ml::RegressorSpec;

    fn view() -> VehicleView {
        let fleet = Fleet::generate(FleetConfig::small(5, 2024));
        VehicleView::build(&fleet, VehicleId(0), Scenario::NextWorkingDay)
    }

    fn config_with(model: ModelSpec) -> PipelineConfig {
        PipelineConfig {
            model,
            scenario: Scenario::NextWorkingDay,
            strategy: Strategy::Sliding,
            train_window: 140,
            max_lag: 30,
            k: 10,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn learned_model_fits_and_predicts_in_range() {
        let v = view();
        let cfg = config_with(ModelSpec::Learned(RegressorSpec::Linear));
        let fitted = FittedPredictor::fit(&v, &cfg, 0, 140).unwrap();
        assert_eq!(fitted.selected_lags().len(), 10);
        assert_eq!(fitted.label(), "LR");
        for t in 140..160 {
            let p = fitted.predict(&v, t).unwrap();
            assert!((0.0..=24.0).contains(&p), "prediction {p} out of range");
        }
    }

    #[test]
    fn all_paper_models_fit() {
        let v = view();
        for model in ModelSpec::paper_suite() {
            let cfg = config_with(model);
            let fitted = FittedPredictor::fit(&v, &cfg, 0, 140)
                .unwrap_or_else(|e| panic!("{} failed: {e}", cfg.model.label()));
            let p = fitted.predict(&v, 150).unwrap();
            assert!((0.0..=24.0).contains(&p));
        }
    }

    #[test]
    fn baseline_lv_predicts_previous_slot() {
        let v = view();
        let cfg = config_with(ModelSpec::Baseline(BaselineSpec::LastValue));
        let fitted = FittedPredictor::fit(&v, &cfg, 0, 140).unwrap();
        let p = fitted.predict(&v, 141).unwrap();
        assert_eq!(p, v.slot(140).hours.clamp(0.0, 24.0));
        assert!(fitted.selected_lags().is_empty());
    }

    #[test]
    fn baseline_ma_averages_trailing_window() {
        let v = view();
        let cfg = config_with(ModelSpec::Baseline(BaselineSpec::MovingAverage(30)));
        let fitted = FittedPredictor::fit(&v, &cfg, 0, 140).unwrap();
        let p = fitted.predict(&v, 150).unwrap();
        let expect: f64 = v.hours_range(120, 150).iter().sum::<f64>() / 30.0;
        assert!((p - expect.clamp(0.0, 24.0)).abs() < 1e-12);
    }

    #[test]
    fn window_too_small_for_learned_model_errors() {
        let v = view();
        let cfg = config_with(ModelSpec::Learned(RegressorSpec::Linear));
        assert!(matches!(
            FittedPredictor::fit(&v, &cfg, 0, cfg.max_lag + 1),
            Err(vup_ml::MlError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn prediction_requires_history() {
        let v = view();
        let cfg = config_with(ModelSpec::Learned(RegressorSpec::Linear));
        let fitted = FittedPredictor::fit(&v, &cfg, 0, 140).unwrap();
        // Not enough lag history at slot 5.
        assert!(fitted.predict(&v, 5).is_err());
        // Beyond the series.
        assert!(fitted.predict(&v, v.len() + 1).is_err());
    }

    #[test]
    fn observed_fit_records_spans_without_changing_results() {
        let v = view();
        let cfg = config_with(ModelSpec::Learned(RegressorSpec::Linear));
        let registry = vup_obs::Registry::new();
        let timers = MlTimers::register(&registry);

        let plain = FittedPredictor::fit(&v, &cfg, 0, 140).unwrap();
        let observed =
            FittedPredictor::fit_arena_observed(&v, &cfg, 0, 140, &timers, &mut TrainArena::new())
                .unwrap();
        assert_eq!(timers.fit_nanos.count(), 1);

        let a = plain.predict(&v, 150).unwrap();
        let b = observed.predict(&v, 150).unwrap();
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "timing must not perturb predictions"
        );
        assert_eq!(timers.predict_nanos.count(), 1);
        // The un-observed predictor recorded nothing.
        assert_eq!(timers.fit_nanos.count(), 1);
    }

    #[test]
    fn saved_predictor_round_trips_bit_identically() {
        let v = view();
        // Every paper model plus RF must survive a save → JSON →
        // restore cycle with bit-identical predictions.
        let mut models = ModelSpec::paper_suite();
        models.push(ModelSpec::Learned(RegressorSpec::Forest(
            vup_ml::forest::ForestParams {
                n_trees: 5,
                ..vup_ml::forest::ForestParams::default()
            },
        )));
        for model in models {
            let cfg = config_with(model);
            let fitted = FittedPredictor::fit(&v, &cfg, 0, 140).unwrap();
            let json = serde_json::to_string(&fitted.save()).unwrap();
            let saved: SavedPredictor = serde_json::from_str(&json).unwrap();
            assert_eq!(saved.config(), &cfg);
            let restored = saved.restore();
            assert_eq!(restored.selected_lags(), fitted.selected_lags());
            for t in 140..170 {
                assert_eq!(
                    restored.predict(&v, t).unwrap().to_bits(),
                    fitted.predict(&v, t).unwrap().to_bits(),
                    "{} diverged at slot {t}",
                    cfg.model.label()
                );
            }
        }
    }

    #[test]
    fn selection_is_window_dependent() {
        // Fitting on different windows may (and for non-stationary series
        // usually does) select different lags; both must be valid.
        let v = view();
        let cfg = config_with(ModelSpec::Learned(RegressorSpec::Linear));
        let a = FittedPredictor::fit(&v, &cfg, 0, 140).unwrap();
        let b = FittedPredictor::fit(&v, &cfg, 200, 340).unwrap();
        for lags in [a.selected_lags(), b.selected_lags()] {
            assert_eq!(lags.len(), 10);
            assert!(lags.iter().all(|&l| (1..=30).contains(&l)));
        }
    }
}
