//! The epoch loop shared by the (DP-)VAE and the Decoding Phase of
//! (P3)PGM: lot sizing, lot and noise draws, the streamed lot gradient, and
//! the epoch's loss and clip telemetry.
//!
//! Each lot's gradient is streamed through `p3gm_privacy::clip_and_sum_rows`
//! — clipped for DP-SGD, unclipped otherwise — so no `B x P` per-example
//! matrix is built.

use crate::history::EpochStats;
use crate::report::TrainReport;
use crate::{CoreError, Result};
use p3gm_linalg::{vector, Matrix};
use p3gm_nn::dpsgd::{sample_batch_indices, DpSgdConfig};
use p3gm_privacy::{clip_and_sum_rows, sampling};
use rand::Rng;

/// One training epoch over `n` rows: `steps` lots of `batch` rows each.
#[derive(Debug)]
pub(crate) struct Epoch {
    /// Rows per lot (the configured batch size, clamped to `1..=n`).
    batch: usize,
    /// Lots per epoch, `ceil(n / batch)`.
    pub(crate) steps: usize,
    dp: Option<DpSgdConfig>,
    recon_sum: f64,
    kl_sum: f64,
    examples: usize,
    report: TrainReport,
}

impl Epoch {
    /// Sizes an epoch over `n > 0` rows; `private` selects DP-SGD with the
    /// given clip norm and noise multiplier.
    pub(crate) fn new(
        n: usize,
        batch_size: usize,
        private: bool,
        clip_norm: f64,
        noise_multiplier: f64,
    ) -> Self {
        let batch = batch_size.min(n).max(1);
        Epoch {
            batch,
            steps: n.div_ceil(batch),
            dp: private.then_some(DpSgdConfig {
                clip_norm,
                noise_multiplier,
                batch_size: batch,
            }),
            recon_sum: 0.0,
            kl_sum: 0.0,
            examples: 0,
            report: TrainReport::new(),
        }
    }

    /// Draws one lot of rows of `data` and its `latent_dim`-wide
    /// reparametrization noise, and returns the lot's average gradient over
    /// `dim` parameters (privatized for DP-SGD).
    ///
    /// The noise is drawn serially, row-major, before any gradient;
    /// `example_gradient(x, eps, out)` then writes one example's gradient
    /// into a zeroed `out` on worker threads and returns its
    /// (reconstruction, KL) losses, which are summed in row order.
    pub(crate) fn lot_gradient<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data: &Matrix,
        latent_dim: usize,
        dim: usize,
        example_gradient: impl Fn(&[f64], &[f64], &mut [f64]) -> (f64, f64) + Sync,
    ) -> Result<Vec<f64>> {
        let indices = sample_batch_indices(rng, data.rows(), self.batch);
        let xb = data
            .select_rows(&indices)
            .map_err(|e| CoreError::Substrate { msg: e.to_string() })?;
        let b = xb.rows();
        let eps = Matrix::from_fn(b, latent_dim, |_, _| sampling::normal(rng, 0.0, 1.0));
        let fill = |i: usize, out: &mut [f64]| example_gradient(xb.row(i), eps.row(i), out);
        let (gradient, losses) = match &self.dp {
            Some(cfg) => {
                let (outcome, losses) = cfg
                    .privatize_streamed(rng, b, dim, fill)
                    .map_err(|e| CoreError::Substrate { msg: e.to_string() })?;
                self.report.dp_sgd_steps += 1;
                self.report.clipped_examples += outcome.clipped_examples;
                self.report.clip_measured_examples += outcome.examples;
                (outcome.gradient, losses)
            }
            None => {
                let (mut sum, _, losses) = clip_and_sum_rows(b, dim, f64::INFINITY, fill);
                vector::scale(1.0 / b as f64, &mut sum);
                (sum, losses)
            }
        };
        for (recon, kl) in losses {
            self.recon_sum += recon;
            self.kl_sum += kl;
            self.examples += 1;
        }
        Ok(gradient)
    }

    /// The epoch's statistics (mean losses per example) and its telemetry:
    /// one epoch plus the DP-SGD steps and clip counts of its lots.
    pub(crate) fn finish(mut self, epoch: usize) -> (EpochStats, TrainReport) {
        let per_example = self.examples.max(1) as f64;
        let stats = EpochStats {
            epoch,
            reconstruction_loss: self.recon_sum / per_example,
            kl_loss: self.kl_sum / per_example,
            steps: self.steps,
        };
        self.report.epochs = 1;
        (stats, self.report)
    }
}
