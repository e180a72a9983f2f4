//! Depth-limited regression trees (CART-style, exact greedy splits).
//!
//! The gradient-boosting ensemble uses these as base learners; the paper's
//! configuration is `max_depth = 1`, i.e. decision stumps. The tree exposes
//! a two-phase fit used by LAD TreeBoost: the *structure* is grown on one
//! target vector (the pseudo-residuals) while the *leaf values* may be
//! recomputed from another quantity (the median of the raw residuals in
//! each leaf).

use serde::{Deserialize, Serialize};
use vup_linalg::Matrix;

use crate::{Dataset, MlError, Regressor, Result};

/// Hyperparameters for [`RegressionTree`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth; depth 1 is a decision stump.
    pub max_depth: usize,
    /// Minimum number of samples a leaf may hold.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 1,
            min_samples_leaf: 1,
        }
    }
}

impl TreeParams {
    fn validate(&self) -> Result<()> {
        if self.max_depth == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_depth",
                reason: "must be at least 1".into(),
            });
        }
        if self.min_samples_leaf == 0 {
            return Err(MlError::InvalidParameter {
                name: "min_samples_leaf",
                reason: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        /// SSE reduction achieved by this split (for feature importances).
        gain: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f64,
    },
}

/// A fitted CART regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    n_features: usize,
    /// Sample indices captured per leaf by [`Self::fit_structure`],
    /// aligned with leaf node ids — used by gradient boosting to
    /// recompute leaf values. Fit state only: consumed by
    /// [`Self::override_leaf_values`] and dropped by every finished fit,
    /// so fitted (and persisted) trees carry it empty. The field stays so
    /// that snapshots which still hold it decode.
    leaf_samples: Vec<(usize, Vec<usize>)>,
}

impl RegressionTree {
    /// Creates an unfitted tree.
    pub fn new(params: TreeParams) -> Self {
        RegressionTree {
            params,
            nodes: Vec::new(),
            n_features: 0,
            leaf_samples: Vec::new(),
        }
    }

    /// Number of leaves in the fitted tree.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Grows the tree structure on `(x, targets)`.
    ///
    /// `x` is borrowed directly (not via [`Dataset`]) because boosting calls
    /// this in a loop with changing pseudo-targets over a fixed matrix.
    pub fn fit_structure(&mut self, x: &Matrix, targets: &[f64]) -> Result<()> {
        self.params.validate()?;
        if x.rows() != targets.len() {
            return Err(MlError::SampleMismatch {
                x_rows: x.rows(),
                y_len: targets.len(),
            });
        }
        if x.rows() == 0 {
            return Err(MlError::NotEnoughSamples {
                required: 1,
                actual: 0,
            });
        }
        self.nodes.clear();
        self.leaf_samples.clear();
        self.n_features = x.cols();
        let mut indices: Vec<usize> = (0..x.rows()).collect();
        self.build(x, targets, &mut indices, 0);
        Ok(())
    }

    fn build(&mut self, x: &Matrix, y: &[f64], indices: &mut [usize], depth: usize) -> usize {
        let can_split = depth < self.params.max_depth
            && indices.len() >= 2 * self.params.min_samples_leaf
            && indices.len() >= 2;
        if can_split {
            if let Some((feature, threshold, gain)) = self.best_split(x, y, indices) {
                // Partition indices in place around the threshold.
                let mid = partition(indices, |&i| x[(i, feature)] <= threshold);
                // A degenerate partition (all on one side) cannot happen for
                // a valid split, but guard anyway.
                if mid > 0 && mid < indices.len() {
                    let node_id = self.nodes.len();
                    self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
                    let (left_idx, right_idx) = indices.split_at_mut(mid);
                    let left = self.build(x, y, left_idx, depth + 1);
                    let right = self.build(x, y, right_idx, depth + 1);
                    self.nodes[node_id] = Node::Split {
                        feature,
                        threshold,
                        gain,
                        left,
                        right,
                    };
                    return node_id;
                }
            }
        }
        // Leaf: mean of targets.
        let sum: f64 = indices.iter().map(|&i| y[i]).sum();
        let value = sum / indices.len() as f64;
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { value });
        self.leaf_samples.push((node_id, indices.to_vec()));
        node_id
    }

    /// Exact greedy split search: for every feature, sort the node's
    /// samples by feature value and scan split points, maximizing the SSE
    /// reduction via prefix sums. Returns `(feature, threshold, gain)` or
    /// `None` when no valid split exists (e.g. all feature values
    /// identical).
    fn best_split(&self, x: &Matrix, y: &[f64], indices: &[usize]) -> Option<(usize, f64, f64)> {
        let n = indices.len();
        let total_sum: f64 = indices.iter().map(|&i| y[i]).sum();
        let baseline = total_sum * total_sum / n as f64;
        let min_leaf = self.params.min_samples_leaf;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for feature in 0..x.cols() {
            order.clear();
            order.extend_from_slice(indices);
            order.sort_by(|&a, &b| {
                x[(a, feature)]
                    .partial_cmp(&x[(b, feature)])
                    .expect("non-finite feature value")
            });
            let mut left_sum = 0.0;
            for (pos, &i) in order.iter().enumerate().take(n - 1) {
                left_sum += y[i];
                let n_left = pos + 1;
                let n_right = n - n_left;
                if n_left < min_leaf || n_right < min_leaf {
                    continue;
                }
                let xv = x[(i, feature)];
                let xn = x[(order[pos + 1], feature)];
                if xv == xn {
                    continue; // cannot separate equal values
                }
                // SSE reduction ∝ n·(mean_l − mean_r)² weighted; equivalent
                // score: left_sum²/n_l + right_sum²/n_r (larger is better).
                let right_sum = total_sum - left_sum;
                let score =
                    left_sum * left_sum / n_left as f64 + right_sum * right_sum / n_right as f64;
                let threshold = 0.5 * (xv + xn);
                match best {
                    Some((_, _, s)) if score <= s => {}
                    _ => best = Some((feature, threshold, score)),
                }
            }
        }
        best.map(|(f, t, score)| (f, t, (score - baseline).max(0.0)))
    }

    /// Replaces each leaf's value with `leaf_value(samples)` where
    /// `samples` are the training-sample indices routed to that leaf by the
    /// last [`fit_structure`](Self::fit_structure) call. Consumes those
    /// indices: a second call changes nothing.
    pub fn override_leaf_values(&mut self, leaf_value: impl Fn(&[usize]) -> f64) {
        for (node_id, samples) in std::mem::take(&mut self.leaf_samples) {
            if let Node::Leaf { value } = &mut self.nodes[node_id] {
                *value = leaf_value(&samples);
            }
        }
    }

    /// Drops the per-leaf sample indices of the last
    /// [`fit_structure`](Self::fit_structure) call once nothing will
    /// override the leaf values.
    pub(crate) fn finish_fit(&mut self) {
        self.leaf_samples = Vec::new();
    }

    /// Routes a feature row to its leaf and returns the leaf value.
    pub fn predict_value(&self, row: &[f64]) -> Result<f64> {
        if self.nodes.is_empty() {
            return Err(MlError::NotFitted);
        }
        if row.len() != self.n_features {
            return Err(MlError::FeatureMismatch {
                expected: self.n_features,
                actual: row.len(),
            });
        }
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return Ok(*value),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

impl RegressionTree {
    /// Per-feature importance: the total SSE reduction contributed by
    /// splits on each feature. `n_features` sizes the output (prediction
    /// rows may be wider than the features actually split on).
    pub fn feature_importances(&self, n_features: usize) -> Vec<f64> {
        let mut out = vec![0.0; n_features];
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                if *feature < n_features {
                    out[*feature] += gain;
                }
            }
        }
        out
    }
}

/// Stable two-way partition: reorders `slice` so elements satisfying `pred`
/// come first; returns the split point.
fn partition<T: Copy>(slice: &mut [T], pred: impl Fn(&T) -> bool) -> usize {
    let mut buf: Vec<T> = Vec::with_capacity(slice.len());
    buf.extend(slice.iter().copied().filter(|v| pred(v)));
    let mid = buf.len();
    buf.extend(slice.iter().copied().filter(|v| !pred(v)));
    slice.copy_from_slice(&buf);
    mid
}

impl Regressor for RegressionTree {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        self.fit_structure(data.x(), data.y())?;
        self.finish_fit();
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        self.predict_value(row)
    }

    fn name(&self) -> &'static str {
        "Tree"
    }

    fn clone_box(&self) -> Box<dyn Regressor + Send + Sync> {
        Box::new(self.clone())
    }

    fn save(&self) -> crate::SavedModel {
        crate::SavedModel::Tree(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_1d(xs: &[f64]) -> Matrix {
        let rows: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs).unwrap()
    }

    #[test]
    fn stump_finds_step_boundary() {
        let x = matrix_1d(&[1.0, 2.0, 3.0, 10.0, 11.0, 12.0]);
        let y = [0.0, 0.0, 0.0, 5.0, 5.0, 5.0];
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit_structure(&x, &y).unwrap();
        assert_eq!(tree.n_leaves(), 2);
        assert_eq!(tree.predict_value(&[2.0]).unwrap(), 0.0);
        assert_eq!(tree.predict_value(&[11.0]).unwrap(), 5.0);
        // Threshold lies between 3 and 10.
        assert_eq!(tree.predict_value(&[6.5]).unwrap(), 0.0);
        assert_eq!(tree.predict_value(&[6.6]).unwrap(), 5.0);
    }

    #[test]
    fn deeper_tree_fits_two_steps() {
        let x = matrix_1d(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let y = [0.0, 0.0, 3.0, 3.0, 3.0, 3.0, 9.0, 9.0];
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 2,
            min_samples_leaf: 1,
        });
        tree.fit_structure(&x, &y).unwrap();
        assert!(tree.n_leaves() >= 3);
        assert_eq!(tree.predict_value(&[0.5]).unwrap(), 0.0);
        assert_eq!(tree.predict_value(&[4.0]).unwrap(), 3.0);
        assert_eq!(tree.predict_value(&[7.0]).unwrap(), 9.0);
    }

    #[test]
    fn constant_features_produce_single_leaf() {
        let x = matrix_1d(&[2.0, 2.0, 2.0]);
        let y = [1.0, 2.0, 3.0];
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit_structure(&x, &y).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict_value(&[2.0]).unwrap(), 2.0); // mean
    }

    #[test]
    fn picks_most_informative_feature() {
        // Feature 0 is noise, feature 1 separates the targets perfectly.
        let x = Matrix::from_rows(&[&[5.0, 0.0], &[1.0, 0.1], &[4.0, 0.9], &[2.0, 1.0]]).unwrap();
        let y = [0.0, 0.0, 8.0, 8.0];
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit_structure(&x, &y).unwrap();
        match &tree.nodes[0] {
            Node::Split { feature, .. } => assert_eq!(*feature, 1),
            Node::Leaf { .. } => panic!("expected a split"),
        }
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let x = matrix_1d(&[1.0, 2.0, 3.0, 4.0]);
        let y = [0.0, 0.0, 10.0, 10.0];
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 3,
            min_samples_leaf: 2,
        });
        tree.fit_structure(&x, &y).unwrap();
        for (_, samples) in &tree.leaf_samples {
            assert!(samples.len() >= 2);
        }
    }

    #[test]
    fn leaf_override_changes_predictions() {
        let x = matrix_1d(&[1.0, 2.0, 10.0, 11.0]);
        let y = [0.0, 0.0, 4.0, 4.0];
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit_structure(&x, &y).unwrap();
        // Replace each leaf value with the max sample index in the leaf.
        tree.override_leaf_values(|samples| *samples.iter().max().unwrap() as f64);
        assert_eq!(tree.predict_value(&[1.5]).unwrap(), 1.0);
        assert_eq!(tree.predict_value(&[10.5]).unwrap(), 3.0);
    }

    #[test]
    fn validation_errors() {
        let mut tree = RegressionTree::new(TreeParams::default());
        assert!(matches!(
            tree.predict_value(&[1.0]),
            Err(MlError::NotFitted)
        ));
        let x = matrix_1d(&[1.0, 2.0]);
        assert!(tree.fit_structure(&x, &[1.0]).is_err());
        assert!(tree.fit_structure(&Matrix::zeros(0, 1), &[]).is_err());
        let bad = RegressionTree::new(TreeParams {
            max_depth: 0,
            min_samples_leaf: 1,
        });
        let mut bad = bad;
        assert!(bad.fit_structure(&x, &[1.0, 2.0]).is_err());

        tree.fit_structure(&x, &[1.0, 2.0]).unwrap();
        assert!(matches!(
            tree.predict_value(&[1.0, 2.0]),
            Err(MlError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn importances_reflect_the_informative_feature() {
        // Feature 1 separates the targets; feature 0 is noise.
        let x = Matrix::from_rows(&[&[5.0, 0.0], &[1.0, 0.1], &[4.0, 0.9], &[2.0, 1.0]]).unwrap();
        let y = [0.0, 0.0, 8.0, 8.0];
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit_structure(&x, &y).unwrap();
        let imp = tree.feature_importances(2);
        assert_eq!(imp[0], 0.0);
        assert!(imp[1] > 0.0);
        // A single-leaf tree has zero importance everywhere.
        let mut flat = RegressionTree::new(TreeParams::default());
        flat.fit_structure(&x, &[1.0; 4]).unwrap();
        assert!(flat.feature_importances(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn partition_is_stable() {
        let mut v = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mid = partition(&mut v, |&x| x % 2 == 0);
        assert_eq!(mid, 3);
        assert_eq!(&v[..3], &[4, 2, 6]);
        assert_eq!(&v[3..], &[3, 1, 1, 5, 9]);
    }

    #[test]
    fn regressor_trait_roundtrip() {
        let x = matrix_1d(&[1.0, 2.0, 3.0, 4.0]);
        let data = Dataset::new(x, vec![1.0, 1.0, 5.0, 5.0]).unwrap();
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit(&data).unwrap();
        assert_eq!(tree.name(), "Tree");
        let preds = tree.predict(data.x()).unwrap();
        assert_eq!(preds, vec![1.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn finished_fits_drop_leaf_samples_and_old_encodings_still_decode() {
        let x = matrix_1d(&[1.0, 2.0, 10.0, 11.0]);
        let data = Dataset::new(x.clone(), vec![0.0, 0.0, 4.0, 4.0]).unwrap();
        let mut fitted = RegressionTree::new(TreeParams::default());
        fitted.fit(&data).unwrap();
        assert!(
            fitted.leaf_samples.is_empty(),
            "a plain fit keeps no fit state"
        );

        let mut overridden = RegressionTree::new(TreeParams::default());
        overridden.fit_structure(&x, data.y()).unwrap();
        assert_eq!(overridden.leaf_samples.len(), 2);
        overridden.override_leaf_values(|samples| samples.len() as f64);
        assert!(
            overridden.leaf_samples.is_empty(),
            "the override consumes them"
        );

        // Trees persisted before the samples were dropped still carry
        // them; they decode and predict as before.
        let mut old = RegressionTree::new(TreeParams::default());
        old.fit_structure(&x, data.y()).unwrap();
        let json = serde_json::to_string(&old).unwrap();
        assert!(json.contains("leaf_samples"));
        let decoded: RegressionTree = serde_json::from_str(&json).unwrap();
        for v in [0.0, 1.5, 6.0, 10.5, 20.0] {
            assert_eq!(
                decoded.predict_value(&[v]).unwrap().to_bits(),
                fitted.predict_value(&[v]).unwrap().to_bits()
            );
        }
    }
}
