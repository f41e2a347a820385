//! DP-SGD: differentially private stochastic gradient descent (paper §II-D).
//!
//! This module glues per-example gradients to the gradient-privatization
//! primitive in `p3gm-privacy` and an [`crate::optimizer`] step. Training
//! uses the streamed step, [`DpSgdConfig::privatize_streamed`], which
//! clips and sums each example's gradient as it is computed
//! (`p3gm_privacy::clip_and_sum_rows` states the chunking, fold order and
//! zeroed scratch row), so no `B x P` batch is ever built.
//! [`DpSgdConfig::step`] / [`DpSgdConfig::step_observed`] take a
//! materialised batch (e.g. from [`crate::mlp::Mlp::per_example_gradients`])
//! and read its rows in place through the same clip-and-sum loop. The
//! privacy *accounting* for the resulting training run lives in
//! `p3gm-privacy::rdp` — the trainer here only reports the (steps,
//! sampling-rate, noise) triple the accountant needs.

use crate::optimizer::Optimizer;
use p3gm_linalg::Matrix;
use p3gm_privacy::mechanisms::{privatize_gradient_rows, privatize_gradient_sum_counted};
use p3gm_privacy::PrivacyError;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters of a DP-SGD run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpSgdConfig {
    /// Per-example gradient clipping norm `C`.
    pub clip_norm: f64,
    /// Noise multiplier σ (noise std is `σ · C`).
    pub noise_multiplier: f64,
    /// Expected lot (batch) size `B`.
    pub batch_size: usize,
}

impl Default for DpSgdConfig {
    fn default() -> Self {
        DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            batch_size: 256,
        }
    }
}

impl DpSgdConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), PrivacyError> {
        if self.clip_norm <= 0.0 || self.noise_multiplier < 0.0 || self.batch_size == 0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("invalid DP-SGD configuration: {self:?}"),
            });
        }
        Ok(())
    }

    /// The sampling probability `q = B / N` used by the privacy accountant
    /// for a dataset of `n` records.
    ///
    /// Clamped to `1.0` when `batch_size >= n` (a full-batch lot); the
    /// accountant accepts that boundary and charges the plain
    /// Gaussian-mechanism RDP curve for it.
    pub fn sampling_probability(&self, n: usize) -> f64 {
        (self.batch_size as f64 / n.max(1) as f64).min(1.0)
    }

    /// Privatizes a materialised batch of per-example gradients (`B x P`,
    /// one flat gradient per row — the layout
    /// [`crate::mlp::Mlp::per_example_gradients`] produces) and applies one
    /// optimizer step to `params`. Returns the privatized average gradient
    /// (useful for logging gradient norms).
    pub fn step<R: Rng + ?Sized, O: Optimizer + ?Sized>(
        &self,
        rng: &mut R,
        per_example_grads: &Matrix,
        params: &mut [f64],
        optimizer: &mut O,
    ) -> Result<Vec<f64>, PrivacyError> {
        self.step_observed(rng, per_example_grads, params, optimizer)
            .map(|outcome| outcome.gradient)
    }

    /// Like [`step`](DpSgdConfig::step) but also reports what happened:
    /// how many per-example gradients the clip actually touched. The extra
    /// fields are telemetry derived from the same fused pass — no extra
    /// randomness, no change to the update — for `TrainReport` / metrics.
    /// The rows are read in place by the same clip-and-sum loop as
    /// [`privatize_streamed`](Self::privatize_streamed), so the update has
    /// the bits of the streamed step on the same gradients.
    pub fn step_observed<R: Rng + ?Sized, O: Optimizer + ?Sized>(
        &self,
        rng: &mut R,
        per_example_grads: &Matrix,
        params: &mut [f64],
        optimizer: &mut O,
    ) -> Result<DpSgdStepOutcome, PrivacyError> {
        self.validate()?;
        let (noisy, clipped) = privatize_gradient_sum_counted(
            rng,
            per_example_grads,
            self.clip_norm,
            self.noise_multiplier,
            self.batch_size,
        )?;
        optimizer.step(params, &noisy);
        Ok(DpSgdStepOutcome {
            gradient: noisy,
            clipped_examples: clipped,
            examples: per_example_grads.rows() as u64,
        })
    }

    /// The streamed DP-SGD step on a lot of `rows` examples over `dim`
    /// parameters: `example_gradient(i, row)` writes example `i`'s gradient
    /// into a zeroed scratch row and returns a per-example value `T`; each
    /// gradient is clipped and summed as soon as it is written (see
    /// `p3gm_privacy::clip_and_sum_rows` for the chunking and fold order),
    /// so the `B x P` batch is never materialised. Returns the outcome,
    /// whose `gradient` is the privatized average, and every example's `T`
    /// in row order.
    ///
    /// The caller applies `outcome.gradient` with `Optimizer::step`: the
    /// gradient producer usually borrows the model that owns the optimizer.
    pub fn privatize_streamed<R: Rng + ?Sized, T: Send>(
        &self,
        rng: &mut R,
        rows: usize,
        dim: usize,
        example_gradient: impl Fn(usize, &mut [f64]) -> T + Sync,
    ) -> Result<(DpSgdStepOutcome, Vec<T>), PrivacyError> {
        self.validate()?;
        let (gradient, clipped, values) = privatize_gradient_rows(
            rng,
            rows,
            dim,
            self.clip_norm,
            self.noise_multiplier,
            self.batch_size,
            example_gradient,
        )?;
        let outcome = DpSgdStepOutcome {
            gradient,
            clipped_examples: clipped,
            examples: rows as u64,
        };
        Ok((outcome, values))
    }
}

/// What one observed DP-SGD step did (see [`DpSgdConfig::step_observed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DpSgdStepOutcome {
    /// The privatized average gradient that was applied.
    pub gradient: Vec<f64>,
    /// Rows of the lot whose L2 norm exceeded the clip norm.
    pub clipped_examples: u64,
    /// Rows in the lot (the realized, not configured, lot size).
    pub examples: u64,
}

/// Samples a lot of `batch_size` example indices uniformly without
/// replacement from `0..n` (the paper assumes uniformly sampled batches, so
/// the sampling probability of any one record is `B/N`).
pub fn sample_batch_indices<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    batch_size: usize,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(batch_size.min(n));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn config_validation() {
        assert!(DpSgdConfig::default().validate().is_ok());
        assert!(DpSgdConfig {
            clip_norm: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DpSgdConfig {
            noise_multiplier: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DpSgdConfig {
            batch_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn sampling_probability_clamped() {
        let cfg = DpSgdConfig {
            batch_size: 100,
            ..Default::default()
        };
        assert!((cfg.sampling_probability(1000) - 0.1).abs() < 1e-12);
        assert_eq!(cfg.sampling_probability(50), 1.0);
    }

    #[test]
    fn full_batch_configuration_is_accountable() {
        // batch_size >= n clamps q to 1.0; the accountant must accept the
        // clamped value instead of erroring after training already ran.
        let cfg = DpSgdConfig {
            batch_size: 100,
            ..Default::default()
        };
        let q = cfg.sampling_probability(50);
        assert_eq!(q, 1.0);
        let mut acc = p3gm_privacy::RdpAccountant::default();
        acc.add_dp_sgd(
            10,
            q,
            cfg.noise_multiplier,
            p3gm_privacy::rdp::DpSgdBound::PaperEq4,
        )
        .unwrap();
        let spec = acc.to_dp(1e-5).unwrap();
        assert!(spec.epsilon.is_finite() && spec.epsilon > 0.0);
    }

    #[test]
    fn step_without_noise_is_clipped_sgd() {
        let mut r = rng();
        let cfg = DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 0.0,
            batch_size: 2,
        };
        let mut params = vec![0.0, 0.0];
        let mut opt = Sgd::new(1.0);
        // Two identical unit-norm gradients → average is the gradient itself.
        let grads = Matrix::from_rows(&[vec![0.6, 0.8], vec![0.6, 0.8]]).unwrap();
        let noisy = cfg.step(&mut r, &grads, &mut params, &mut opt).unwrap();
        assert!((noisy[0] - 0.6).abs() < 1e-12);
        assert!((params[0] + 0.6).abs() < 1e-12);
        assert!((params[1] + 0.8).abs() < 1e-12);
    }

    #[test]
    fn step_with_noise_changes_params() {
        let mut r = rng();
        let cfg = DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 2.0,
            batch_size: 4,
        };
        let mut params = vec![0.0; 8];
        let mut opt = Sgd::new(0.1);
        let grads = Matrix::zeros(4, 8);
        cfg.step(&mut r, &grads, &mut params, &mut opt).unwrap();
        // Pure noise: parameters moved away from zero.
        assert!(params.iter().any(|&p| p.abs() > 1e-6));
    }

    #[test]
    fn batch_indices_are_unique_and_in_range() {
        let mut r = rng();
        let idx = sample_batch_indices(&mut r, 100, 32);
        assert_eq!(idx.len(), 32);
        assert!(idx.iter().all(|&i| i < 100));
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
        // Requesting more than n clamps.
        assert_eq!(sample_batch_indices(&mut r, 5, 32).len(), 5);
    }
}
