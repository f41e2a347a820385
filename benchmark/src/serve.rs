//! The serving stack: the fitted model's snapshot behind the default
//! `ServerConfig`, a closed-loop keep-alive client with output checks, and
//! the traced breakdown of a request.

use crate::bodies;
use crate::client::{one_shot, request_bytes, Client, Reply};
use crate::report::{per_call_us, Report};
use crate::stats::{median, summarize, Tally};
use crate::trace::Tracer;
use p3gm_core::snapshot::SynthesisSnapshot;
use p3gm_server::http::{read_request, Limits};
use p3gm_server::ledger::BudgetLedger;
use p3gm_server::registry::{Registry, RegistryConfig};
use p3gm_server::{json, start, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The served model's name.
const MODEL: &str = "fitted";
/// Rows per sample request.
const ROWS: usize = 64;
/// Distinct request seeds. The server caches no responses, so repeating a
/// seed saves it no work; it bounds the reference samples the output check
/// keeps.
const SEED_POOL: usize = 16;
/// Latency charged to a failed request: it misses any latency limit.
const FAILED_LATENCY_S: f64 = 30.0;
/// Rows per `sample_rows` probe call: the server's streamed chunk size.
const CHUNK_ROWS: usize = 512;
/// Equal time slices the serving load of a timed run is cut into; the
/// run's fits take turns with them. Each serving metric is the median of
/// its per-slice values, so an episode of outside interference (on a shared
/// host, periods of slower CPU or fsync lasting tens of seconds) that covers
/// fewer than half of the slices does not move the result.
pub const SLICES: usize = 10;

/// The fitted model's snapshot file and the server in front of it.
pub struct Served {
    dir: PathBuf,
    snapshot: SynthesisSnapshot,
    pub server: ServerHandle,
}

impl Served {
    /// Writes the snapshot into `dir` and starts the server with every
    /// default: durable ledger in the model directory, reactor core,
    /// metrics on, two executors.
    pub fn start(dir: &Path, snapshot: SynthesisSnapshot) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{MODEL}.snapshot"));
        std::fs::write(&path, snapshot.to_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let server =
            start(ServerConfig::builder(dir).build()).map_err(|e| format!("start: {e}"))?;
        Ok(Served {
            dir: dir.to_path_buf(),
            snapshot,
            server,
        })
    }

    fn epsilon(&self) -> f64 {
        self.snapshot.privacy_stamp().map_or(0.0, |s| s.epsilon)
    }
}

/// One completed (or failed) request of a load.
struct Record {
    latency: f64,
    ttfb: f64,
    sample: bool,
    ok: bool,
}

/// A load's records and accounting.
pub struct LoadResult {
    records: Vec<Record>,
    pub tally: Tally,
    /// Sample requests answered 200: each is charged once.
    pub charges: u64,
    pub elapsed: f64,
}

/// The request mix against the served model, with everything the output
/// checks need: a closed loop on one keep-alive connection (the client
/// waits for each reply before sending the next request) where three in
/// four requests are `POST /models/fitted/sample {"seed": s, "n": 64}` and
/// one in four is `GET /models/fitted`.
pub struct Load<'a> {
    served: &'a Served,
    seeds: Vec<u64>,
    /// Reference rows per seed, as bit patterns.
    refs: Vec<Vec<Vec<u64>>>,
    /// Sample request bytes per seed.
    samples: Vec<Vec<u8>>,
    detail: Vec<u8>,
    /// Hashes of the bodies that passed the bit comparison, by seed index:
    /// a later body with the same hash passes without parsing again.
    verified: HashMap<usize, u64>,
}

impl<'a> Load<'a> {
    pub fn new(served: &'a Served, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e4d_5eed);
        // Request seeds stay within the JSON integer range the server takes.
        let seeds: Vec<u64> = (0..SEED_POOL).map(|_| rng.next_u64() >> 11).collect();
        let refs = seeds
            .iter()
            .map(|&s| {
                let rows = served.snapshot.sample(s, ROWS);
                rows.row_iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect()
            })
            .collect();
        let samples = seeds
            .iter()
            .map(|&s| request_bytes("POST", &format!("/models/{MODEL}/sample"), &body(s)))
            .collect();
        Load {
            served,
            seeds,
            refs,
            samples,
            detail: request_bytes("GET", &format!("/models/{MODEL}"), ""),
            verified: HashMap::new(),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.served.server.addr()
    }

    /// Checks one sample response against the in-process reference.
    fn check_sample(
        &mut self,
        seed_index: usize,
        reply: &Reply,
    ) -> Result<(), (&'static str, String)> {
        if reply.status != 200 {
            return Err(("status", format!("sample: HTTP {}", reply.status)));
        }
        if !reply.chunked {
            return Err(("body", "a sample response was not streamed".to_string()));
        }
        let hash = body_hash(&reply.body);
        if let Some(&verified) = self.verified.get(&seed_index) {
            return if verified == hash {
                Ok(())
            } else {
                Err((
                    "body",
                    format!("seed {seed_index}: body changed between requests"),
                ))
            };
        }
        bodies::json_rows_bits(&reply.body)
            .and_then(|rows| bodies::compare(&rows, &self.refs[seed_index]))
            .map_err(|e| ("body", format!("seed {seed_index}: {e}")))?;
        self.verified.insert(seed_index, hash);
        Ok(())
    }

    /// Every sample request of the pool once: the first decodes the
    /// snapshot (a cold registry load), and every body is verified against
    /// its reference before timing. Returns the sample requests charged.
    pub fn warm_up(&mut self, tally: &mut Tally) -> u64 {
        let mut client = Client::new(self.addr());
        let mut charges = 0;
        for seed_index in 0..SEED_POOL {
            let outcome = match client.send(&self.samples[seed_index]) {
                Ok(reply) => {
                    charges += u64::from(reply.status == 200);
                    let checked = self.check_sample(seed_index, &reply);
                    client.recycle(reply.body);
                    checked
                }
                Err(e) => Err(("io", e.to_string())),
            };
            tally.record(outcome);
        }
        charges
    }

    /// Runs the closed loop for `seconds`, recording spans when a tracer is
    /// given.
    pub fn run(&mut self, seconds: f64, seed: u64, mut tracer: Option<&mut Tracer>) -> LoadResult {
        let origin = Instant::now();
        let deadline = origin + Duration::from_secs_f64(seconds);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut client = Client::new(self.addr());
        let mut result = LoadResult {
            records: Vec::new(),
            tally: Tally::default(),
            charges: 0,
            elapsed: 0.0,
        };
        let mut op = 0u64;
        while Instant::now() < deadline {
            let seed_index = rng.gen_range(0..SEED_POOL);
            let sample = rng.gen_range(0..4) != 0;
            let request = if sample {
                &self.samples[seed_index]
            } else {
                &self.detail
            };
            let start = Instant::now();
            let sent = client.send(request);
            let checked = Instant::now();
            let (outcome, latency, ttfb) = match &sent {
                Ok(reply) => {
                    let outcome = if sample {
                        result.charges += u64::from(reply.status == 200);
                        self.check_sample(seed_index, reply)
                    } else {
                        check_detail(reply)
                    };
                    (
                        outcome,
                        reply.latency.as_secs_f64(),
                        reply.ttfb.as_secs_f64(),
                    )
                }
                Err(e) => (
                    Err(("io", e.to_string())),
                    FAILED_LATENCY_S,
                    FAILED_LATENCY_S,
                ),
            };
            if let Some(t) = tracer.as_deref_mut() {
                let trace = (1 << 48) | op;
                let end = Instant::now();
                let root = t.record(trace, "request", None, start, end);
                if let Ok(reply) = &sent {
                    let first = start + reply.ttfb;
                    t.record(trace, "client.first_byte", Some(root), start, first);
                    t.record(
                        trace,
                        "client.body",
                        Some(root),
                        first,
                        start + reply.latency,
                    );
                }
                t.record(trace, "check", Some(root), checked, end);
            }
            result.records.push(Record {
                latency,
                ttfb,
                sample,
                ok: outcome.is_ok(),
            });
            result.tally.record(outcome);
            if let Ok(reply) = sent {
                client.recycle(reply.body);
            }
            op += 1;
        }
        result.elapsed = origin.elapsed().as_secs_f64();
        result
    }

    /// Exactly-once charging: the model's spent ε equals its stamp ε added
    /// once per sample request answered 200.
    pub fn check_ledger(&self, charges: u64, tally: &mut Tally) {
        let epsilon = self.served.epsilon();
        let expected = (0..charges).fold(0.0f64, |spent, _| spent + epsilon);
        let outcome = one_shot(self.addr(), "GET", &format!("/models/{MODEL}"))
            .map_err(|e| ("io", e.to_string()))
            .and_then(|reply| check_detail(&reply).map(|()| reply))
            .and_then(|reply| {
                let spent =
                    bodies::json_number(&reply.body, "spent_epsilon").map_err(|e| ("ledger", e))?;
                if spent.to_bits() == expected.to_bits() {
                    Ok(())
                } else {
                    Err((
                        "ledger",
                        format!("spent ε {spent} != {charges} charges × ε {epsilon} = {expected}"),
                    ))
                }
            });
        tally.record(outcome);
    }
}

fn body(seed: u64) -> String {
    format!("{{\"seed\": {seed}, \"n\": {ROWS}}}")
}

/// A fixed-key hash of a response body (SipHash with zero keys, the same in
/// every process).
fn body_hash(body: &[u8]) -> u64 {
    let mut hasher = std::hash::DefaultHasher::new();
    body.hash(&mut hasher);
    hasher.finish()
}

fn check_detail(reply: &Reply) -> Result<(), (&'static str, String)> {
    if reply.status != 200 {
        return Err(("status", format!("detail: HTTP {}", reply.status)));
    }
    bodies::json_number(&reply.body, "spent_epsilon")
        .map(|_| ())
        .map_err(|e| ("body", format!("detail: {e}")))
}

/// The end-to-end serving metric of a load run as `slices`: per slice, the
/// percentile rule over the latencies; the median over the slices of their
/// medians is `latency_ms.p50`. Throughput, the latency tail and the times
/// to first byte go to the details only: their run-to-run spread on a
/// shared host reached or passed the largest bound an end-to-end metric may
/// have.
pub fn report_load(report: &mut Report, slices: &[LoadResult]) {
    let mut throughput = Vec::new();
    let mut latency = Vec::new();
    let mut ttfb = Vec::new();
    for slice in slices {
        let records = &slice.records;
        throughput.push(records.iter().filter(|r| r.ok).count() as f64 / slice.elapsed);
        let latencies: Vec<f64> = records.iter().map(|r| r.latency).collect();
        let ttfbs: Vec<f64> = records
            .iter()
            .filter(|r| r.sample)
            .map(|r| r.ttfb)
            .collect();
        latency.extend(summarize(&latencies, 0.99));
        ttfb.extend(summarize(&ttfbs, 0.99));
    }
    report.detail(
        "throughput_rps",
        median(&throughput).unwrap_or(f64::NAN).to_string(),
    );
    let p50 = report.timing("latency_ms", &latency, 1e3);
    report.metric("latency_ms.p50", p50, "ms");
    report.timing("ttfb_ms", &ttfb, 1e3);
}

/// Series of a Prometheus text scrape, keyed by `name{labels}`.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let reply = one_shot(addr, "GET", "/metrics").map_err(|e| format!("scrape: {e}"))?;
    if reply.status != 200 {
        return Err(format!("scrape: HTTP {}", reply.status));
    }
    let text = String::from_utf8(reply.body).map_err(|_| "scrape: not UTF-8".to_string())?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Sum over the series of metric `name` of their change between scrapes,
/// skipping the scrapes' own `/metrics` route.
fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after
        .iter()
        .filter(|(series, _)| {
            series.split('{').next() == Some(name) && !series.contains("route=\"/metrics\"")
        })
        .map(|(series, v)| v - before.get(series).copied().unwrap_or(0.0))
        .sum()
}

/// The traced breakdown of a request: an untraced and a traced half of the
/// load, the server's own counters around the traced half, and each
/// serving layer timed on this workload's inputs. Returns the sample
/// requests charged.
pub fn trace_serve(
    load: &mut Load,
    seconds: f64,
    seed: u64,
    work_dir: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    report: &mut Report,
) -> u64 {
    let mean = |load: &LoadResult| {
        load.records.iter().map(|r| r.latency).sum::<f64>() / load.records.len().max(1) as f64
    };
    let addr = load.addr();
    let untraced = load.run(seconds / 2.0, seed, None);
    let before = scrape(addr);
    let traced = load.run(seconds / 2.0, seed ^ 1, Some(tracer));
    let after = scrape(addr);
    let charges = untraced.charges + traced.charges;
    let overhead_us = (mean(&traced) - mean(&untraced)) * 1e6;
    tally.merge(untraced.tally);
    tally.merge(traced.tally);
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            tally.fail("scrape", e);
            return charges;
        }
    };

    let requests = delta(&before, &after, "p3gm_requests_total").max(1.0);
    let service_s = delta(&before, &after, "p3gm_request_duration_seconds_sum")
        / delta(&before, &after, "p3gm_request_duration_seconds_count").max(1.0);
    let first_byte_s = delta(&before, &after, "p3gm_stream_first_byte_seconds_sum")
        / delta(&before, &after, "p3gm_stream_first_byte_seconds_count").max(1.0);
    let records = &traced.records;
    let streamed: Vec<&Record> = records.iter().filter(|r| r.sample && r.ok).collect();
    let streamed_share = streamed.len() as f64 / records.len().max(1) as f64;
    let mean_ttfb = records.iter().map(|r| r.ttfb).sum::<f64>() / records.len().max(1) as f64;
    let tails: Vec<f64> = streamed.iter().map(|r| r.latency - r.ttfb).collect();
    let stream_tail_s = median(&tails).unwrap_or(f64::NAN);

    // Layer probes on the workload's own inputs.
    let limits = Limits::default();
    let read_us = per_call_us(200, Duration::from_millis(200), || {
        black_box(read_request(&mut &load.samples[0][..], &limits).expect("well-formed request"));
    });
    let body = body(load.seeds[0]);
    let parse_us = per_call_us(200, Duration::from_millis(200), || {
        black_box(json::parse(&body).expect("well-formed body"));
    });
    let (registry, _) = Registry::open_with(&load.served.dir, RegistryConfig::default())
        .expect("model directory is readable");
    let cold = Instant::now();
    let loaded = registry.get(MODEL);
    let cold_get_ms = cold.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = loaded {
        tally.fail("layer", format!("Registry::get: {e}"));
    }
    let get_us = per_call_us(1000, Duration::from_millis(200), || {
        black_box(registry.get(MODEL).ok());
    });
    let epsilon = load.served.epsilon();
    let ledger_dir = work_dir.join("ledger-probe");
    let _ = std::fs::create_dir_all(&ledger_dir);
    // Pre-filled with the served model's entry, as the server's ledger is.
    let charge_us = match BudgetLedger::open(ledger_dir.join("ledger.p3gm"), None) {
        Ok(mut durable) => per_call_us(1, Duration::from_millis(300), || {
            durable
                .charge(MODEL, epsilon, 1e-5)
                .expect("durable charge");
        }),
        Err(e) => {
            tally.fail("layer", format!("BudgetLedger::open: {e}"));
            f64::NAN
        }
    };
    let mut memory = BudgetLedger::in_memory(None);
    let charge_inmem_us = per_call_us(1000, Duration::from_millis(200), || {
        black_box(memory.charge(MODEL, epsilon, 1e-5).ok());
    });
    let snapshot = &load.served.snapshot;
    let sample_rows_us = per_call_us(1, Duration::from_millis(200), || {
        black_box(snapshot.sample_rows(load.seeds[0], 0, CHUNK_ROWS));
    });

    report.metric("http.read_request_us", read_us, "us");
    report.metric("json.parse_us", parse_us, "us");
    report.metric("registry.get_us", get_us, "us");
    report.metric("registry.cold_get_ms", cold_get_ms, "ms");
    report.metric("ledger.charge_us", charge_us, "us");
    report.metric("ledger.charge_inmem_us", charge_inmem_us, "us");
    report.metric("core.sample_rows_us", sample_rows_us, "us");
    report.metric("server.service_us", service_s * 1e6, "us");
    report.metric(
        "server.wait_us",
        (mean_ttfb - service_s - streamed_share * first_byte_s) * 1e6,
        "us",
    );
    report.metric("server.first_byte_ms", first_byte_s * 1e3, "ms");
    report.metric("server.stream_tail_ms", stream_tail_s * 1e3, "ms");
    // The first chunk of a JSON sample body is its prefix, so every row is
    // generated after it reaches the client.
    report.metric(
        "server.serialize_write_ms",
        stream_tail_s * 1e3 - sample_rows_us * 1e-3 * ROWS as f64 / CHUNK_ROWS as f64,
        "ms",
    );
    report.metric(
        "server.reactor_wakeups_per_req",
        delta(&before, &after, "p3gm_reactor_wakeups_total") / requests,
        "count",
    );
    report.metric(
        "server.keepalive_reuse_ratio",
        delta(&before, &after, "p3gm_keepalive_reuse_total") / requests,
        "ratio",
    );
    report.metric("trace.request_overhead_us", overhead_us, "us");
    report.detail(
        "serve_trace",
        format!(
            "{{\"traced_requests\":{},\"server_requests\":{requests}}}",
            records.len()
        ),
    );
    charges
}
