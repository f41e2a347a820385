//! # p3gm-classifiers
//!
//! Downstream classifiers and evaluation metrics for the P3GM reproduction.
//!
//! The paper measures the utility of synthetic data by training classifiers
//! on it and evaluating them on *real* held-out test data (the
//! train-on-synthetic / test-on-real protocol of Jordon et al.).  For
//! tabular data it uses four classifiers — logistic regression, AdaBoost,
//! gradient boosting and XGBoost — scored by AUROC and AUPRC; for images it
//! trains a small CNN scored by accuracy.  This crate reimplements all of
//! them:
//!
//! * [`metrics`] — accuracy, AUROC, AUPRC.
//! * [`logistic`] — binary logistic regression trained with full-batch
//!   gradient descent.
//! * [`tree`] — depth-limited regression trees (the weak learner shared by
//!   the boosting models) and decision stumps.
//! * [`adaboost`] — AdaBoost over decision stumps.
//! * [`gbm`] — gradient boosting with regression trees on the logistic
//!   loss (scikit-learn's `GradientBoostingClassifier` analogue).
//! * [`xgboost`] — second-order (Newton) boosting with L2 regularization on
//!   leaf weights (the XGBoost objective).
//! * [`mlp_classifier`] — a multi-class MLP softmax classifier; the
//!   classifier the evaluation harness trains for the image experiments.
//! * [`suite`] — the paper's four-classifier evaluation harness producing
//!   the AUROC/AUPRC rows of Tables V and VI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaboost;
pub mod gbm;
pub mod logistic;
pub mod metrics;
pub mod mlp_classifier;
pub mod suite;
pub mod tree;
pub mod xgboost;

pub use adaboost::AdaBoost;
pub use gbm::GradientBoosting;
pub use logistic::LogisticRegression;
pub use metrics::{accuracy, auprc, auroc};
pub use mlp_classifier::MlpClassifier;
pub use suite::{evaluate_binary_suite, BinaryScores, ClassifierKind, SuiteReport};
pub use xgboost::XgBoost;

use p3gm_linalg::Matrix;

/// Common interface of the binary classifiers used in Tables V and VI.
///
/// Labels are 0/1; `predict_score` returns a real-valued score that is
/// monotone in the predicted probability of the positive class (AUROC/AUPRC
/// only need the ranking).
pub trait BinaryClassifier {
    /// Fits the classifier on rows of `x` with 0/1 `labels`.
    fn fit(&mut self, x: &Matrix, labels: &[usize]);

    /// Returns a score for the positive class for one row.
    fn predict_score(&self, x: &[f64]) -> f64;

    /// Predicts the hard label for one row (score threshold 0.5 for
    /// probability-like scores, 0.0 for margin-like scores — implementors
    /// override when needed).
    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.predict_score(x) >= 0.5)
    }

    /// Scores every row of a matrix.
    fn predict_scores(&self, x: &Matrix) -> Vec<f64> {
        x.row_iter().map(|row| self.predict_score(row)).collect()
    }
}
