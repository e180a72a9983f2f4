//! Pins the snapshot file format.
//!
//! A snapshot holds the fitted model in the serde shim's binary
//! `Content` encoding, every float as its exact bits: for an SVR, its
//! support rows, dual coefficients and bias, and the feature scaler. A
//! change to the SMO solver, the kernel matrix or the binary codec that
//! moves a single bit of any of them fails the golden test. The other
//! tests pin what the format must keep: every model kind serves the
//! same bits after a restart, and a file in the retired JSON format
//! (version 1) is quarantined, never misread.

use serde::Content;
use vup_core::{FittedPredictor, ModelSpec, PipelineConfig, VehicleView};
use vup_fleetsim::fleet::{Fleet, FleetConfig, VehicleId};
use vup_ml::forest::ForestParams;
use vup_ml::svr::SvrParams;
use vup_ml::RegressorSpec;
use vup_obs::SpanCtx;
use vup_serve::persist::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use vup_serve::{decode_frame_exact, ModelStore, SnapshotStore};

/// The snapshot [`persisted_svr_snapshot_matches_the_golden_bytes`]
/// writes, recorded when format version 2 was introduced.
const GOLDEN: &[u8] = include_bytes!("golden/svr_snapshot.snap");

/// The same snapshot in format version 1 (a JSON payload), as the
/// builds before version 2 wrote it.
const GOLDEN_V1: &[u8] = include_bytes!("golden/svr_snapshot_v1.snap");

fn svr_config() -> PipelineConfig {
    let features = PipelineConfig::default().features;
    PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Svr(SvrParams::paper_scaled(
            features.n_features(5),
        ))),
        train_window: 60,
        max_lag: 10,
        k: 5,
        features,
        ..PipelineConfig::default()
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vup-snapshot-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn persisted_svr_snapshot_matches_the_golden_bytes() {
    let config = svr_config();
    let fleet = Fleet::generate(FleetConfig::small(1, 7));
    let view = VehicleView::build(&fleet, VehicleId(0), config.scenario);
    let predictor = FittedPredictor::fit(&view, &config, 0, 60).unwrap();

    let dir = temp_dir("golden");
    let store = ModelStore::open(&dir).unwrap();
    store.insert(VehicleId(0), &config, predictor, 60, &SpanCtx::disabled());
    let mut snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(snaps.len(), 1, "one snapshot in {}", dir.display());
    let bytes = std::fs::read(snaps.pop().unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        bytes == GOLDEN,
        "snapshot differs from the golden ({} vs {} bytes, first difference at byte {:?})",
        bytes.len(),
        GOLDEN.len(),
        bytes.iter().zip(GOLDEN).position(|(a, b)| a != b)
    );
}

/// The format change moved bytes, not values: the version 2 golden
/// decodes to the very tree whose JSON is the version 1 golden's
/// payload, and takes well under the JSON's bytes.
#[test]
fn the_golden_holds_exactly_what_the_v1_golden_held() {
    let v1 = decode_frame_exact(SNAPSHOT_MAGIC, 1, GOLDEN_V1).unwrap();
    let v2 = decode_frame_exact(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, GOLDEN).unwrap();
    let tree = Content::decode_binary(v2).unwrap();
    assert_eq!(serde_json::to_string(&tree).unwrap().as_bytes(), v1);
    assert!(v2.len() * 10 < v1.len() * 7, "{} vs {}", v2.len(), v1.len());
}

#[test]
fn a_version_1_snapshot_is_quarantined_as_version() {
    let config = svr_config();
    let name = SnapshotStore::file_name(VehicleId(0), ModelStore::fingerprint(&config));
    let dir = temp_dir("v1");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(&name), GOLDEN_V1).unwrap();

    let store = ModelStore::open(&dir).unwrap();
    let stats = store.recovery().unwrap();
    assert_eq!(stats.files_seen, 1);
    assert_eq!(stats.recovered, 0);
    assert_eq!(stats.quarantined.len(), 1);
    assert_eq!(stats.quarantined[0].file, name);
    assert_eq!(stats.quarantined[0].reason, "version");
    assert_eq!(stats.recovered + stats.quarantined.len(), stats.files_seen);
    assert!(dir
        .join("quarantine")
        .join(format!("{name}.version"))
        .exists());
    assert!(
        store.peek(VehicleId(0), &config).is_none(),
        "nothing warm-started"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Persist → reopen (recovery) → predict, for every model kind the
/// pipeline can serve: the recovered models predict bit for bit what
/// the fitted ones did.
#[test]
fn every_model_kind_serves_the_same_bits_after_a_restart() {
    let fleet = Fleet::generate(FleetConfig::small(5, 2024));
    let mut models = ModelSpec::paper_suite();
    models.push(ModelSpec::Learned(RegressorSpec::Forest(ForestParams {
        n_trees: 5,
        ..ForestParams::default()
    })));
    let labels: Vec<&str> = models.iter().map(|m| m.label()).collect();
    assert_eq!(labels, ["LV", "MA", "LR", "Lasso", "SVR", "GB", "RF"]);
    let configs: Vec<PipelineConfig> = models
        .into_iter()
        .map(|model| PipelineConfig {
            model,
            max_lag: 30,
            k: 10,
            ..PipelineConfig::default()
        })
        .collect();
    let view = VehicleView::build(&fleet, VehicleId(0), configs[0].scenario);

    let dir = temp_dir("every-kind");
    let store = ModelStore::open(&dir).unwrap();
    let fitted: Vec<FittedPredictor> = configs
        .iter()
        .map(|config| {
            let predictor = FittedPredictor::fit(&view, config, 0, 140).unwrap();
            store.insert(
                VehicleId(0),
                config,
                predictor.clone(),
                140,
                &SpanCtx::disabled(),
            );
            predictor
        })
        .collect();
    drop(store);

    let reopened = ModelStore::open(&dir).unwrap();
    let stats = reopened.recovery().unwrap();
    assert_eq!(stats.files_seen, configs.len());
    assert_eq!(stats.recovered, configs.len(), "{:?}", stats.quarantined);
    for (config, original) in configs.iter().zip(&fitted) {
        let label = config.model.label();
        let entry = reopened.peek(VehicleId(0), config).expect(label);
        assert_eq!(entry.trained_at, 140, "{label}");
        assert_eq!(entry.predictor.config(), config, "{label}");
        assert_eq!(
            entry.predictor.selected_lags(),
            original.selected_lags(),
            "{label}"
        );
        for t in 140..170 {
            assert_eq!(
                entry.predictor.predict(&view, t).unwrap().to_bits(),
                original.predict(&view, t).unwrap().to_bits(),
                "{label} diverged at slot {t}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boosted trees persist without the per-leaf training-row indices
/// that only the fit reads: a paper-configuration GB snapshot took
/// 46 266 bytes while it carried them, and takes 21 466 without.
/// The restored model still predicts bit for bit what the fitted one
/// did.
#[test]
fn a_gb_snapshot_holds_no_fit_state_and_restores_bit_for_bit() {
    let fleet = Fleet::generate(FleetConfig::small(5, 2024));
    let config = PipelineConfig {
        model: ModelSpec::paper_suite()
            .into_iter()
            .find(|m| m.label() == "GB")
            .expect("the paper suite has GB"),
        ..PipelineConfig::default()
    };
    let view = VehicleView::build(&fleet, VehicleId(0), config.scenario);
    let (from, to) = (0, config.train_window);
    let predictor = FittedPredictor::fit(&view, &config, from, to).unwrap();

    let dir = temp_dir("gb");
    let store = ModelStore::open(&dir).unwrap();
    store.insert(
        VehicleId(0),
        &config,
        predictor.clone(),
        to,
        &SpanCtx::disabled(),
    );
    drop(store);
    let name = SnapshotStore::file_name(VehicleId(0), ModelStore::fingerprint(&config));
    let bytes = std::fs::metadata(dir.join(name)).unwrap().len();
    assert!(bytes * 2 < 46_266, "GB snapshot is {bytes} bytes");

    let reopened = ModelStore::open(&dir).unwrap();
    let entry = reopened.peek(VehicleId(0), &config).expect("GB recovered");
    for t in to..to + 30 {
        assert_eq!(
            entry.predictor.predict(&view, t).unwrap().to_bits(),
            predictor.predict(&view, t).unwrap().to_bits(),
            "GB diverged at slot {t}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
