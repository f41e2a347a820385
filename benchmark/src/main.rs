//! End-to-end benchmark of P3GM: fitting at two dimensionalities and
//! serving through the default server configuration, with a traced
//! per-layer breakdown. See README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fit-credit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! carry the host fingerprint and per-metric sample counts.

mod bodies;
mod client;
mod fit;
mod host;
mod report;
mod serve;
mod stats;
mod trace;

use fit::{FitSpec, Prepared};
use p3gm_core::config::PgmConfig;
use p3gm_core::snapshot::SynthesisSnapshot;
use p3gm_datasets::images::mnist_like;
use p3gm_datasets::tabular::kaggle_credit_like;
use report::Report;
use serve::{Load, Served};
use stats::{median, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-ups of a timed run, all before its first fit; `setup_s` is their
/// median. Set-ups between the serving slices made the peak resident memory
/// of `fit-image` vary by 10% between runs.
const SETUP_REPEATS: usize = 11;
/// Fits per run at least, so two fits from one seed can be compared.
const MIN_FITS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    FitCredit,
    FitImage,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "fit-credit" => Workload::FitCredit,
            "fit-image" => Workload::FitImage,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FitCredit => "fit-credit",
            Workload::FitImage => "fit-image",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload <fit-credit|fit-image> --seed <n> [--seconds <s>] [--trace <0|1>]");
            std::process::exit(2);
        }
    };
    println!("{{\"fingerprint\":{}}}", host::fingerprint(args.seed));
    let work = WorkDir::new(&args);
    let mut tally = Tally::default();
    let mut report = Report::default();
    let mut tracer = Tracer::new(Instant::now());
    let ticks_before = host::cpu_ticks();
    run(&args, &work.0, &mut tracer, &mut tally, &mut report);
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, host::cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        report.detail("host_steal_share", share.to_string());
    }
    if args.trace {
        let path = Path::new(".bench_work").join("traces").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            tally.fail("trace", format!("{}: {e}", path.display()));
        }
        let self_times = tracer
            .self_times()
            .iter()
            .map(|(name, s)| format!("\"{name}\":{s}"))
            .collect::<Vec<_>>()
            .join(",");
        report.detail("self_time_s", format!("{{{self_times}}}"));
        report.detail("trace_file", host::json_str(&path.display().to_string()));
    } else {
        report.metric("success_rate", 1.0 - tally.error_rate(), "ratio");
        report.metric(
            "peak_rss_mb",
            host::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        );
    }
    let failures = tally
        .reasons
        .iter()
        .map(|(kind, (count, msg))| {
            format!(
                "{}:{{\"count\":{count},\"first\":{}}}",
                host::json_str(kind),
                host::json_str(msg)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    report.detail("error_rate", tally.error_rate().to_string());
    report.detail("failures", format!("{{{failures}}}"));
    let details = report
        .details
        .iter()
        .map(|(k, v)| format!("{}:{v}", host::json_str(k)))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"workload\":\"{}\",\"trace\":{},\"detail\":{{{details}}}}}",
        args.workload.name(),
        args.trace
    );
    let correct = report.correct(&tally);
    println!("{}", report.result_line(&tally));
    drop(work);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Scratch directory of one run inside the checkout, removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(args: &Args) -> Self {
        let dir = Path::new(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fit_spec(workload: Workload) -> FitSpec {
    match workload {
        Workload::FitCredit => FitSpec {
            generate: kaggle_credit_like,
            n_train: 10_000,
            n_heldout: 1_000,
            config: PgmConfig {
                epochs: 5,
                ..PgmConfig::default()
            },
        },
        Workload::FitImage => FitSpec {
            generate: |rng, n| mnist_like(rng, n, 20),
            n_train: 2_000,
            n_heldout: 200,
            config: PgmConfig {
                epochs: 2,
                ..PgmConfig::default()
            },
        },
    }
}

/// Set-up is dataset generation and prepare, from the workload seed. A
/// timed run fits once, serves the fitted model, and then takes turns
/// between [`serve::SLICES`] serving slices and further fits, each side
/// for half of `--seconds`: both then sample the whole run, and a period of
/// slower host that covers part of it reaches both alike. A traced run
/// traces the fit first and then serves.
fn run(args: &Args, work: &Path, tracer: &mut Tracer, tally: &mut Tally, report: &mut Report) {
    let spec = fit_spec(args.workload);
    let fit_seed = args.seed ^ 0xf17_f17;
    let mut setup = Vec::new();
    let Some(prepared) = set_up(&spec, args.seed, None, &mut setup, tally) else {
        return;
    };
    if !args.trace {
        for _ in 1..SETUP_REPEATS {
            set_up(&spec, args.seed, Some(&prepared), &mut setup, tally);
        }
    }
    let serve_seconds = args.seconds / 2.0;
    let mut fit_s = Vec::new();
    let mut expected = None;

    let snapshot = if args.trace {
        let Some(model) = fit::trace_fit(
            &prepared.train,
            &spec.config,
            fit_seed,
            tracer,
            tally,
            report,
        ) else {
            return;
        };
        SynthesisSnapshot::capture(model).with_synthesizer(prepared.synthesizer.clone())
    } else {
        let Some((seconds, snapshot, heldout)) =
            fit::timed_checked_fit(&prepared, &spec.config, fit_seed, &mut expected, tally)
        else {
            return;
        };
        fit_s.push(seconds);
        report.metric("heldout_recon_loss", heldout, "nats");
        snapshot
    };

    let served = match Served::start(&work.join("models"), snapshot) {
        Ok(s) => s,
        Err(e) => return tally.record(Err(("setup", e))),
    };
    let mut load = Load::new(&served, args.seed);
    let mut charges = load.warm_up(tally);
    if args.trace {
        charges += serve::trace_serve(
            &mut load,
            serve_seconds,
            args.seed,
            work,
            tracer,
            tally,
            report,
        );
    } else {
        let mut slices = Vec::new();
        let mut fitting = true;
        for k in 0..serve::SLICES {
            let mut slice = load.run(
                serve_seconds / serve::SLICES as f64,
                args.seed.wrapping_add(k as u64),
                None,
            );
            charges += slice.charges;
            tally.merge(std::mem::take(&mut slice.tally));
            slices.push(slice);
            let fits_due = (args.seconds - serve_seconds) * (k + 1) as f64 / serve::SLICES as f64;
            while fitting && (fit_s.len() < MIN_FITS || fit_s.iter().sum::<f64>() < fits_due) {
                match fit::timed_checked_fit(
                    &prepared,
                    &spec.config,
                    fit_seed,
                    &mut expected,
                    tally,
                ) {
                    Some((seconds, ..)) => fit_s.push(seconds),
                    None => fitting = false,
                }
            }
        }
        serve::report_load(report, &slices);
        report.metric("setup_s", median(&setup).expect("set-up ran"), "s");
        report.metric("fit_s", median(&fit_s).expect("a fit ran"), "s");
        report.detail("fit_s", format!("{{\"samples\":{fit_s:?}}}"));
    }
    load.check_ledger(charges, tally);
    served.server.shutdown();
}

/// One set-up: generates and prepares the workload's rows from `seed`,
/// appends its wall time to `times`, and checks that it generated the rows
/// of `first`.
fn set_up(
    spec: &FitSpec,
    seed: u64,
    first: Option<&Prepared>,
    times: &mut Vec<f64>,
    tally: &mut Tally,
) -> Option<Prepared> {
    let start = Instant::now();
    let result = fit::prepare(spec, seed);
    times.push(start.elapsed().as_secs_f64());
    match result {
        Ok(prepared) => {
            if first.is_some_and(|f| f.train.as_slice() != prepared.train.as_slice()) {
                tally.fail(
                    "setup",
                    "the same seed generated different rows".to_string(),
                );
            }
            Some(prepared)
        }
        Err(e) => {
            tally.record(Err(("setup", e)));
            None
        }
    }
}
