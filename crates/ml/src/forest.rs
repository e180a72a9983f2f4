//! Random-forest regression (related-work baseline).
//!
//! The paper's related work uses Random Forests for on-road fleets
//! (public buses \[14\], waste collectors \[8\], heavy-duty trucks \[3\]); this
//! module provides that comparator. Each tree is grown on a bootstrap
//! sample of the rows and a random *subspace* of the features (per-tree
//! feature bagging à la Ho, rather than per-node sampling — equally valid
//! for decorrelating trees and it keeps the CART base learner unchanged);
//! predictions average over the ensemble. Fully deterministic for a given
//! seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vup_linalg::Matrix;

use serde::{Deserialize, Serialize};

use crate::tree::{RegressionTree, TreeParams};
use crate::{Dataset, MlError, Regressor, Result};

/// Hyperparameters for [`RandomForest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth of each tree (deeper than boosting stumps — forests
    /// rely on low-bias base learners).
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features per tree; `None` uses `ceil(sqrt(p))`.
    pub max_features: Option<usize>,
    /// RNG seed for bootstrapping and subspace sampling.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 100,
            max_depth: 8,
            min_samples_leaf: 2,
            max_features: None,
            seed: 42,
        }
    }
}

impl ForestParams {
    fn validate(&self) -> Result<()> {
        if self.n_trees == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_trees",
                reason: "must be positive".into(),
            });
        }
        if self.max_depth == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_depth",
                reason: "must be at least 1".into(),
            });
        }
        if self.max_features == Some(0) {
            return Err(MlError::InvalidParameter {
                name: "max_features",
                reason: "must be at least 1 when set".into(),
            });
        }
        Ok(())
    }
}

/// Bagged regression-tree ensemble (the related-work "RF" model).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    params: ForestParams,
    fitted: Option<FittedForest>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct FittedForest {
    /// `(feature_subset, tree)` pairs; the tree sees only those columns.
    members: Vec<(Vec<usize>, RegressionTree)>,
    n_features: usize,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(params: ForestParams) -> RandomForest {
        RandomForest {
            params,
            fitted: None,
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.members.len())
    }
}

/// Samples `k` distinct indices from `0..p` (Fisher–Yates prefix).
fn sample_features(rng: &mut StdRng, p: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..p).collect();
    for i in 0..k.min(p) {
        let j = rng.random_range(i..p);
        all.swap(i, j);
    }
    let mut subset = all[..k.min(p)].to_vec();
    subset.sort_unstable();
    subset
}

impl Regressor for RandomForest {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        self.params.validate()?;
        let n = data.len();
        let p = data.n_features();
        if n < 2 {
            return Err(MlError::NotEnoughSamples {
                required: 2,
                actual: n,
            });
        }
        let k = self
            .params
            .max_features
            .unwrap_or_else(|| (p as f64).sqrt().ceil() as usize)
            .clamp(1, p);
        let tree_params = TreeParams {
            max_depth: self.params.max_depth,
            min_samples_leaf: self.params.min_samples_leaf,
        };

        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let x = data.x();
        let y = data.y();
        let mut members = Vec::with_capacity(self.params.n_trees);
        for _ in 0..self.params.n_trees {
            let features = sample_features(&mut rng, p, k);
            // Bootstrap rows, projecting onto the tree's feature subspace.
            let mut boot_x = Vec::with_capacity(n * features.len());
            let mut boot_y = Vec::with_capacity(n);
            for _ in 0..n {
                let i = rng.random_range(0..n);
                let row = x.row(i);
                boot_x.extend(features.iter().map(|&j| row[j]));
                boot_y.push(y[i]);
            }
            let boot = Matrix::from_vec(n, features.len(), boot_x)?;
            let mut tree = RegressionTree::new(tree_params.clone());
            tree.fit_structure(&boot, &boot_y)?;
            tree.finish_fit();
            members.push((features, tree));
        }
        self.fitted = Some(FittedForest {
            members,
            n_features: p,
        });
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if row.len() != f.n_features {
            return Err(MlError::FeatureMismatch {
                expected: f.n_features,
                actual: row.len(),
            });
        }
        let mut sum = 0.0;
        let mut projected = Vec::new();
        for (features, tree) in &f.members {
            projected.clear();
            projected.extend(features.iter().map(|&j| row[j]));
            sum += tree.predict_value(&projected)?;
        }
        Ok(sum / f.members.len() as f64)
    }

    fn name(&self) -> &'static str {
        "RF"
    }

    fn clone_box(&self) -> Box<dyn Regressor + Send + Sync> {
        Box::new(self.clone())
    }

    fn save(&self) -> crate::SavedModel {
        crate::SavedModel::Forest(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset_2d(n: usize, f: impl Fn(f64, f64) -> f64) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i % 20) as f64 / 2.0;
                let b = ((i * 7) % 13) as f64;
                vec![a, b]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| f(r[0], r[1])).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs).unwrap(), y).unwrap()
    }

    #[test]
    fn fits_nonlinear_surface_reasonably() {
        let data = dataset_2d(200, |a, b| if a > 5.0 { 8.0 + b * 0.1 } else { 2.0 });
        let mut rf = RandomForest::new(ForestParams::default());
        rf.fit(&data).unwrap();
        assert_eq!(rf.n_trees(), Some(100));
        let low = rf.predict_row(&[2.0, 5.0]).unwrap();
        let high = rf.predict_row(&[8.0, 5.0]).unwrap();
        assert!(low < 4.0, "low-region prediction {low}");
        assert!(high > 6.0, "high-region prediction {high}");
    }

    #[test]
    fn deterministic_for_a_seed_and_varies_across_seeds() {
        let data = dataset_2d(100, |a, b| a + b);
        let fit = |seed| {
            let mut rf = RandomForest::new(ForestParams {
                seed,
                n_trees: 20,
                ..ForestParams::default()
            });
            rf.fit(&data).unwrap();
            rf.predict_row(&[3.0, 4.0]).unwrap()
        };
        assert_eq!(fit(1), fit(1));
        assert_ne!(fit(1), fit(2));
    }

    #[test]
    fn averaging_reduces_single_tree_variance() {
        // Noisy target: a 100-tree forest's training error should not be
        // wildly worse than, and usually better than, a single deep tree's
        // test behaviour; here we just check the forest interpolates the
        // broad structure without exploding.
        let data = dataset_2d(150, |a, b| 3.0 * (a > 4.0) as u8 as f64 + 0.2 * b);
        let mut rf = RandomForest::new(ForestParams {
            n_trees: 50,
            ..ForestParams::default()
        });
        rf.fit(&data).unwrap();
        for i in 0..data.len() {
            let p = rf.predict_row(data.x().row(i)).unwrap();
            assert!((p - data.y()[i]).abs() < 3.0);
        }
    }

    #[test]
    fn feature_subsampling_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let s = sample_features(&mut rng, 10, 3);
            assert_eq!(s.len(), 3);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&j| j < 10));
        }
        // k >= p takes everything.
        assert_eq!(sample_features(&mut rng, 4, 9), vec![0, 1, 2, 3]);
    }

    #[test]
    fn validation_errors() {
        let data = dataset_2d(10, |a, _| a);
        for bad in [
            ForestParams {
                n_trees: 0,
                ..ForestParams::default()
            },
            ForestParams {
                max_depth: 0,
                ..ForestParams::default()
            },
            ForestParams {
                max_features: Some(0),
                ..ForestParams::default()
            },
        ] {
            assert!(RandomForest::new(bad).fit(&data).is_err());
        }
        let rf = RandomForest::new(ForestParams::default());
        assert!(matches!(
            rf.predict_row(&[1.0, 2.0]),
            Err(MlError::NotFitted)
        ));
        let mut fitted = RandomForest::new(ForestParams {
            n_trees: 3,
            ..ForestParams::default()
        });
        fitted.fit(&data).unwrap();
        assert!(matches!(
            fitted.predict_row(&[1.0]),
            Err(MlError::FeatureMismatch { .. })
        ));
    }
}
