//! Hyperparameter grid search with a time-ordered hold-out.
//!
//! The paper reports running "a grid search to fit the model to the
//! analyzed data distribution" (§4.2). Because the samples are windowed
//! time-series records, random K-fold would leak future information;
//! candidates are instead scored by training on the oldest fraction of
//! samples and measuring the paper's Percentage Error on the newest
//! remainder.

use crate::lasso::LassoParams;
use crate::metrics;
use crate::{Dataset, MlError, RegressorSpec, Result};

/// Score of one evaluated candidate.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// The candidate configuration.
    pub spec: RegressorSpec,
    /// Hold-out Percentage Error (lower is better); `None` when the fit or
    /// the metric failed for this candidate.
    pub pe: Option<f64>,
}

/// Exhaustive search over a list of candidate configurations.
#[derive(Debug, Clone)]
pub struct GridSearch {
    candidates: Vec<RegressorSpec>,
    validation_fraction: f64,
}

impl GridSearch {
    /// Creates a search over the given candidates; 25 % of the samples
    /// (the newest) are held out for scoring.
    pub fn new(candidates: Vec<RegressorSpec>) -> Result<Self> {
        Self::with_validation_fraction(candidates, 0.25)
    }

    /// Creates a search holding out the newest `validation_fraction` of
    /// samples (must be in `(0, 1)`).
    pub fn with_validation_fraction(
        candidates: Vec<RegressorSpec>,
        validation_fraction: f64,
    ) -> Result<Self> {
        if candidates.is_empty() {
            return Err(MlError::InvalidParameter {
                name: "candidates",
                reason: "grid must contain at least one candidate".into(),
            });
        }
        if !(validation_fraction > 0.0 && validation_fraction < 1.0) {
            return Err(MlError::InvalidParameter {
                name: "validation_fraction",
                reason: format!("must be in (0, 1), got {validation_fraction}"),
            });
        }
        Ok(GridSearch {
            candidates,
            validation_fraction,
        })
    }

    /// Scores every candidate and returns `(best, all_scores)`. Candidates
    /// whose fit fails are skipped; an error is returned only when *no*
    /// candidate could be scored.
    pub fn run(&self, data: &Dataset) -> Result<(RegressorSpec, Vec<CandidateScore>)> {
        let (train, valid) = data.split_fraction(1.0 - self.validation_fraction)?;
        let mut scores = Vec::with_capacity(self.candidates.len());
        for spec in &self.candidates {
            let pe = Self::score_candidate(spec, &train, &valid);
            scores.push(CandidateScore {
                spec: spec.clone(),
                pe,
            });
        }
        let best = scores
            .iter()
            .filter_map(|s| s.pe.map(|pe| (s.spec.clone(), pe)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("PE is finite"))
            .map(|(spec, _)| spec)
            .ok_or_else(|| MlError::InvalidParameter {
                name: "candidates",
                reason: "no candidate could be fitted and scored".into(),
            })?;
        Ok((best, scores))
    }

    fn score_candidate(spec: &RegressorSpec, train: &Dataset, valid: &Dataset) -> Option<f64> {
        let mut model = spec.build();
        model.fit(train).ok()?;
        let pred = model.predict(valid.x()).ok()?;
        metrics::percentage_error(&pred, valid.y()).ok()
    }
}

/// Lasso candidates over a list of α values.
pub fn lasso_grid(alphas: &[f64]) -> Vec<RegressorSpec> {
    alphas
        .iter()
        .map(|&alpha| {
            RegressorSpec::Lasso(LassoParams {
                alpha,
                ..LassoParams::default()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_linalg::Matrix;

    fn linear_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let y: Vec<f64> = (0..n).map(|i| 2.0 * i as f64 + 3.0).collect();
        Dataset::new(Matrix::from_rows(&refs).unwrap(), y).unwrap()
    }

    #[test]
    fn grid_builders_enumerate_cross_products() {
        assert_eq!(lasso_grid(&[0.01, 0.1, 1.0]).len(), 3);
    }

    #[test]
    fn picks_the_obviously_better_candidate() {
        // On noise-free linear data, tiny-alpha Lasso must beat huge-alpha
        // Lasso (which collapses to predicting the mean).
        let data = linear_dataset(40);
        let grid = GridSearch::new(lasso_grid(&[1e-6, 1e6])).unwrap();
        let (best, scores) = grid.run(&data).unwrap();
        assert_eq!(
            best, scores[0].spec,
            "expected the small-alpha candidate to win"
        );
        assert!(scores[0].pe.unwrap() < scores[1].pe.unwrap());
    }

    #[test]
    fn reports_scores_for_all_candidates() {
        let data = linear_dataset(30);
        let grid = GridSearch::new(RegressorSpec::paper_suite()).unwrap();
        let (_, scores) = grid.run(&data).unwrap();
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|s| s.pe.is_some()));
    }

    #[test]
    fn construction_validation() {
        assert!(GridSearch::new(vec![]).is_err());
        assert!(GridSearch::with_validation_fraction(lasso_grid(&[0.1]), 0.0).is_err());
        assert!(GridSearch::with_validation_fraction(lasso_grid(&[0.1]), 1.0).is_err());
    }

    #[test]
    fn too_small_dataset_fails_gracefully() {
        let data = linear_dataset(1);
        let grid = GridSearch::new(lasso_grid(&[0.1])).unwrap();
        assert!(grid.run(&data).is_err());
    }
}
