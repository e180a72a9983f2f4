//! Pins the bytes of one persisted SVR snapshot.
//!
//! The snapshot holds the fitted model as JSON: the SVR's support rows,
//! dual coefficients and bias, and the feature scaler. A change to the
//! SMO solver, the kernel matrix or the JSON float writer that moves a
//! single bit of any of them fails here.

use vup_core::{FittedPredictor, ModelSpec, PipelineConfig, VehicleView};
use vup_fleetsim::fleet::{Fleet, FleetConfig, VehicleId};
use vup_ml::svr::SvrParams;
use vup_ml::RegressorSpec;
use vup_serve::ModelStore;

/// The snapshot [`persisted_svr_snapshot_matches_the_golden_bytes`]
/// writes, recorded when the test was added.
const GOLDEN: &[u8] = include_bytes!("golden/svr_snapshot.snap");

#[test]
fn persisted_svr_snapshot_matches_the_golden_bytes() {
    let features = PipelineConfig::default().features;
    let config = PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Svr(SvrParams::paper_scaled(
            features.n_features(5),
        ))),
        train_window: 60,
        max_lag: 10,
        k: 5,
        features,
        ..PipelineConfig::default()
    };
    let fleet = Fleet::generate(FleetConfig::small(1, 7));
    let view = VehicleView::build(&fleet, VehicleId(0), config.scenario);
    let predictor = FittedPredictor::fit(&view, &config, 0, 60).unwrap();

    let dir = std::env::temp_dir().join(format!("vup-snapshot-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).unwrap();
    store.insert(VehicleId(0), &config, predictor, 60);
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
