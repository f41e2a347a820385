//! # p3gm-nn
//!
//! Minimal neural-network substrate for the P3GM reproduction.
//!
//! The paper's encoder and decoder are two-layer fully-connected networks
//! (`[d, 1000, d']` and `[d', 1000, d]` with ReLU), trained with DP-SGD.
//! This crate provides everything needed to train such networks — and the
//! small CNN used as a downstream image classifier — from scratch on a
//! single CPU core:
//!
//! * [`activation`] — ReLU / sigmoid / tanh / softplus / identity with
//!   derivatives.
//! * [`linear`] — a fully-connected layer with explicit forward/backward.
//! * [`mlp`] — multi-layer perceptrons with *per-example* backpropagation
//!   and flat parameter/gradient vectors (the representation DP-SGD's
//!   per-example clipping needs).
//! * [`loss`] — MSE, Bernoulli cross-entropy with logits, softmax
//!   cross-entropy, and the Gaussian-VAE KL divergence, all returning both
//!   value and gradient.
//! * [`optimizer`] — SGD (with momentum) and Adam operating on flat
//!   parameter vectors.
//! * [`dpsgd`] — the DP-SGD update rule: clip per-example gradients, add
//!   Gaussian noise, average, and take an optimizer step.
//! * [`conv`] — a small Conv2d + MaxPool2d CNN with the architecture of the
//!   paper's Table VII image classifier. The evaluation harness does not
//!   use it: `p3gm-eval` scores images with `p3gm-classifiers`'
//!   `MlpClassifier`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod conv;
pub mod dpsgd;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optimizer;

pub use activation::Activation;
pub use dpsgd::{DpSgdConfig, DpSgdStepOutcome};
pub use linear::Linear;
pub use mlp::{Mlp, MlpCache};
pub use optimizer::{Adam, Optimizer, Sgd};
