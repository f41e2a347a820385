//! The training stack: generated datasets, the timed `fit`, its output
//! checks, and the traced per-layer breakdown of one fit.

use crate::report::{per_call_us, Report};
use crate::stats::{median, Tally};
use crate::trace::Tracer;
use p3gm_core::config::PgmConfig;
use p3gm_core::pgm::PhasedGenerativeModel;
use p3gm_core::snapshot::SynthesisSnapshot;
use p3gm_core::synthesis::LabelledSynthesizer;
use p3gm_core::TrainReport;
use p3gm_datasets::Dataset;
use p3gm_linalg::eigen::SymmetricEigen;
use p3gm_linalg::{stats, Matrix};
use p3gm_mixture::dpem::{self, DpEmConfig};
use p3gm_nn::dpsgd::DpSgdConfig;
use p3gm_nn::optimizer::Adam;
use p3gm_preprocess::pca::DpPca;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A dataset generator, its train/held-out sizes and the model to fit.
pub struct FitSpec {
    pub generate: fn(&mut StdRng, usize) -> Dataset,
    pub n_train: usize,
    pub n_heldout: usize,
    pub config: PgmConfig,
}

/// Prepared rows of one workload: the first `n_train` rows train, the rest
/// are held out for the reconstruction-loss check.
pub struct Prepared {
    pub synthesizer: LabelledSynthesizer,
    pub train: Matrix,
    pub heldout: Matrix,
}

/// Generates the dataset from `seed` and prepares it for the model.
pub fn prepare(spec: &FitSpec, seed: u64) -> Result<Prepared, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (spec.generate)(&mut rng, spec.n_train + spec.n_heldout);
    let (synthesizer, all) =
        LabelledSynthesizer::prepare(&data.features, &data.labels, data.n_classes)
            .map_err(|e| format!("prepare: {e}"))?;
    let rows = |range: std::ops::Range<usize>| {
        all.select_rows(&range.collect::<Vec<_>>())
            .map_err(|e| format!("split: {e}"))
    };
    Ok(Prepared {
        synthesizer,
        train: rows(0..spec.n_train)?,
        heldout: rows(spec.n_train..all.rows())?,
    })
}

/// Threads every measured fit and layer call runs on. At the default count
/// (two on a 2-CPU host) each parallel kernel spawns its workers per call;
/// a `fit-credit` fit dispatches ~114k chunks that way, and its wall time
/// moved up to 3× between runs as other tenants loaded a shared host,
/// against ±10% at one thread. The traced run also times the fit at the
/// default count (`parallel.fit_s_default_threads`).
pub const FIT_THREADS: usize = 1;

/// One full fit, as a user calls it, on `threads` threads.
pub fn fit(
    train: &Matrix,
    config: &PgmConfig,
    seed: u64,
    threads: usize,
) -> Result<(PhasedGenerativeModel, TrainReport), String> {
    p3gm_parallel::with_threads(threads, || {
        let mut rng = StdRng::seed_from_u64(seed);
        PhasedGenerativeModel::fit_with_report(&mut rng, train, config.clone(), None)
            .map(|(model, _, report)| (model, report))
            .map_err(|e| format!("fit: {e}"))
    })
}

/// The fit's own output checks: the stamped guarantee is the one the
/// configuration promises for `n` rows, and DP-SGD took exactly
/// `epochs × ⌈n/B⌉` steps.
pub fn check_fit(
    model: &PhasedGenerativeModel,
    report: &TrainReport,
    config: &PgmConfig,
    n: usize,
) -> Result<(), String> {
    let steps = (config.epochs * n.div_ceil(config.batch_size)) as u64;
    if report.dp_sgd_steps != steps {
        return Err(format!(
            "dp_sgd_steps {} != epochs × ⌈n/B⌉ = {steps}",
            report.dp_sgd_steps
        ));
    }
    let stamped = model.training_privacy_spec();
    if stamped.is_none() || stamped != config.privacy_spec(n) {
        return Err(format!(
            "training_privacy_spec {stamped:?} != config.privacy_spec(n) {:?}",
            config.privacy_spec(n)
        ));
    }
    Ok(())
}

/// Runs one fit, checks it, and compares its snapshot bytes with `expected`
/// (set from the first fit when `None`). Returns the fit's wall time, its
/// snapshot and its held-out reconstruction loss; `None` when the fit or a
/// check failed.
pub fn timed_checked_fit(
    prepared: &Prepared,
    config: &PgmConfig,
    seed: u64,
    expected: &mut Option<Vec<u8>>,
    tally: &mut Tally,
) -> Option<(f64, SynthesisSnapshot, f64)> {
    let start = Instant::now();
    let fitted = fit(&prepared.train, config, seed, FIT_THREADS);
    let seconds = start.elapsed().as_secs_f64();
    let (model, report) = match fitted {
        Ok(f) => f,
        Err(e) => {
            tally.record(Err(("fit", e)));
            return None;
        }
    };
    let heldout = model.reconstruction_loss(&prepared.heldout);
    let checked = check_fit(&model, &report, config, prepared.train.rows());
    let snapshot = SynthesisSnapshot::capture(model).with_synthesizer(prepared.synthesizer.clone());
    let bytes = snapshot.to_bytes();
    let outcome = checked
        .map_err(|e| ("fit-check", e))
        .and_then(|()| match expected {
            Some(first) if *first != bytes => Err((
                "fit-determinism",
                "two fits from the same seed gave different snapshot bytes".to_string(),
            )),
            Some(_) => Ok(()),
            None => {
                *expected = Some(bytes);
                Ok(())
            }
        });
    let ok = outcome.is_ok();
    tally.record(outcome);
    ok.then_some((seconds, snapshot, heldout))
}

/// The traced breakdown of one fit on `train`: the fit at the default
/// thread count, the same fit untraced and split into its phases on
/// [`FIT_THREADS`], and each lower layer timed on this workload's own
/// inputs. Returns the reference fit's model.
pub fn trace_fit(
    train: &Matrix,
    config: &PgmConfig,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    report: &mut Report,
) -> Option<PhasedGenerativeModel> {
    let n = train.rows();
    let d = train.cols();

    // Reference fit at the default thread count, with the exact count of
    // pool chunks it dispatches.
    let default_threads = p3gm_parallel::max_threads();
    let chunks_before = p3gm_parallel::pool_stats().chunks_total;
    let start = Instant::now();
    let reference_fit = fit(train, config, seed, default_threads);
    let default_threads_s = start.elapsed().as_secs_f64();
    let chunks = p3gm_parallel::pool_stats().chunks_total - chunks_before;
    let (reference_model, fit_report) = match reference_fit {
        Ok(f) => f,
        Err(e) => {
            tally.record(Err(("fit", e)));
            return None;
        }
    };
    tally.record(check_fit(&reference_model, &fit_report, config, n).map_err(|e| ("fit-check", e)));
    let reference = reference_model.to_bytes();

    let start = Instant::now();
    let single = fit(train, config, seed, FIT_THREADS);
    let untraced_s = start.elapsed().as_secs_f64();
    tally.record(match single {
        Ok((model, _)) if model.to_bytes() == reference => Ok(()),
        Ok(_) => Err((
            "fit-determinism",
            format!("the {FIT_THREADS}-thread fit differs from the default-thread fit"),
        )),
        Err(e) => Err(("fit", e)),
    });

    p3gm_parallel::with_threads(FIT_THREADS, || {
        // The same fit, phase by phase, inside spans.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut phased = TrainReport::new();
        let traced = tracer.span(0, "fit", |t| {
            let mut model = t.span(0, "core.encode_phase", |_| {
                PhasedGenerativeModel::encode_phase_observed(
                    &mut rng,
                    train,
                    config.clone(),
                    &mut phased,
                )
            })?;
            for _ in 0..config.epochs {
                t.span(0, "core.train_epoch", |_| {
                    model.train_epoch_observed(&mut rng, train, &mut phased)
                })?;
            }
            Ok::<_, p3gm_core::CoreError>(model)
        });
        let same = match traced {
            Ok(model) if model.to_bytes() == reference && phased == fit_report => Ok(()),
            Ok(_) => Err((
                "fit-determinism",
                "phase-by-phase fit differs from fit_with_report".to_string(),
            )),
            Err(e) => Err(("fit", format!("traced fit: {e}"))),
        };
        tally.record(same);

        // Lower layers on this workload's inputs, as the encoding phase calls
        // them. DP-PCA and DP-EM start from the fit's own random state, so each
        // call repeats exactly the work of the encoding phase. Each round calls
        // the encoding phase, DP-PCA and DP-EM back to back, so the three calls
        // of a round run under the same conditions on a shared host; the layer
        // check below compares them within a round. Rounds repeat for
        // LAYER_ROUNDS_BUDGET, and at least LAYER_ROUNDS times. Each
        // layer is reported by its fastest call: outside interference only ever
        // slows a call. The phase inside the traced fit stays the reported one.
        let scaled = train.scale(1.0 / (d as f64).sqrt());
        let fit_rng = StdRng::seed_from_u64(seed);
        let em = DpEmConfig {
            n_components: config.mog_components,
            iterations: config.em_iterations,
            sigma_e: config.sigma_e,
            covariance_regularization: 1e-4,
            clip_norm: 1.0,
        };
        let last = |tracer: &Tracer, name| tracer.durations(name).last().copied().unwrap_or(0.0);
        let mut round_ratios = Vec::new();
        let rounds_start = Instant::now();
        while round_ratios.len() < LAYER_ROUNDS || rounds_start.elapsed() < LAYER_ROUNDS_BUDGET {
            let mut rng = fit_rng.clone();
            tracer.span(4, "core.encode_phase", |_| {
                black_box(
                    PhasedGenerativeModel::encode_phase_observed(
                        &mut rng,
                        train,
                        config.clone(),
                        &mut TrainReport::new(),
                    )
                    .ok(),
                );
            });
            let mut rng = fit_rng.clone();
            let dp_pca = tracer.span(1, "preprocess.dp_pca", |_| {
                DpPca::fit(&mut rng, &scaled, config.latent_dim, config.eps_p)
            });
            let projected = match dp_pca.and_then(|pca| pca.transform(&scaled)) {
                Ok(projected) => projected,
                Err(e) => {
                    tally.fail("layer", format!("DpPca: {e}"));
                    break;
                }
            };
            if let Err(e) =
                tracer.span(3, "mixture.dp_em", |_| dpem::fit(&mut rng, &projected, &em))
            {
                tally.fail("layer", format!("dpem::fit: {e}"));
                break;
            }
            round_ratios.push(
                (last(tracer, "preprocess.dp_pca") + last(tracer, "mixture.dp_em"))
                    / last(tracer, "core.encode_phase"),
            );
        }
        let covariance = stats::covariance_matrix(&scaled, None).expect("non-empty training rows");
        tracer.span(2, "linalg.eigen", |_| {
            black_box(SymmetricEigen::new(&covariance).expect("covariance is symmetric"));
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let batch = config.batch_size.min(n);
        let (h, l) = (config.hidden_dim, config.latent_dim);
        // Encoder-variance and decoder MLPs: d → h → l and l → h → d.
        let n_params = (d * h + h + h * l + l) + (l * h + h + h * d + d);
        let grads = Matrix::from_fn(batch, n_params, |_, _| rng.gen_range(-0.05..0.05));
        let mut params = vec![0.0; n_params];
        let mut optimizer = Adam::new(config.learning_rate);
        let dpsgd = DpSgdConfig {
            clip_norm: config.clip_norm,
            noise_multiplier: config.sigma_s,
            batch_size: batch,
        };
        let step_us = per_call_us(1, Duration::from_millis(300), || {
            black_box(
                dpsgd
                    .step_observed(&mut rng, &grads, &mut params, &mut optimizer)
                    .expect("valid DP-SGD config"),
            );
        });

        let encode = tracer.durations("core.encode_phase")[0];
        let epochs = tracer.durations("core.train_epoch");
        let traced_total = tracer.durations("fit")[0];
        let phases = encode + epochs.iter().sum::<f64>();
        if (phases - traced_total).abs() > 0.03 * traced_total {
            tally.fail(
                "trace-sum",
                format!("encode + epochs = {phases} s, traced fit = {traced_total} s"),
            );
        }
        let fastest = |name| tracer.durations(name).into_iter().reduce(f64::min);
        let pca_s = fastest("preprocess.dp_pca").unwrap_or(f64::NAN);
        let em_s = fastest("mixture.dp_em").unwrap_or(f64::NAN);
        match median(&round_ratios) {
            Some(ratio) if ratio <= ENCODE_SUM_TOLERANCE => {}
            ratio => tally.fail(
                "trace-sum",
                format!(
                    "(dp_pca + dp_em) / encode phase per round {round_ratios:?}, \
                     median {ratio:?} > {ENCODE_SUM_TOLERANCE}"
                ),
            ),
        }

        report.metric("core.encode_phase_s", encode, "s");
        report.metric(
            "core.train_epoch_s",
            epochs.iter().sum::<f64>() / epochs.len().max(1) as f64,
            "s",
        );
        report.metric("core.dp_sgd_steps", fit_report.dp_sgd_steps as f64, "count");
        report.metric(
            "core.clipped_fraction",
            fit_report.clipped_fraction().unwrap_or(0.0),
            "ratio",
        );
        report.metric("preprocess.dp_pca_s", pca_s, "s");
        report.metric("linalg.eigen_s", tracer.durations("linalg.eigen")[0], "s");
        report.metric("mixture.dp_em_s", em_s, "s");
        report.metric("nn.dpsgd_step_us", step_us, "us");
        report.metric("parallel.threads", default_threads as f64, "count");
        report.metric("parallel.chunks_per_fit", chunks as f64, "count");
        report.metric("parallel.fit_s_default_threads", default_threads_s, "s");
        report.metric("trace.fit_overhead_s", traced_total - untraced_s, "s");
        report.detail(
            "fit_trace",
            format!(
                "{{\"untraced_fit_s\":{untraced_s},\"traced_fit_s\":{traced_total},\
                 \"epochs\":{},\"n_params\":{n_params},\"rows\":{n},\"cols\":{d},\
                 \"layer_round_ratios\":{round_ratios:?}}}",
                epochs.len()
            ),
        );
    });
    Some(reference_model)
}

/// Rounds of back-to-back encoding phase, DP-PCA and DP-EM calls per
/// traced run at least, and the time after which no further round starts.
const LAYER_ROUNDS: usize = 3;
const LAYER_ROUNDS_BUDGET: Duration = Duration::from_secs(6);

/// The median over the rounds of `(DP-PCA + DP-EM) / encoding phase` may
/// exceed 1 by this factor before the breakdown is reported as
/// inconsistent: the encoding phase contains both calls. On `fit-credit`
/// DP-EM is nearly all of the encoding phase, so the ratio sits just under
/// 1, and single rounds on a shared 2-CPU host ranged from 0.6 to 1.7;
/// medians over a run ranged from 0.86 to 1.17.
const ENCODE_SUM_TOLERANCE: f64 = 1.25;
