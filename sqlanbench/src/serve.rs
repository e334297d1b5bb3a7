//! The user's side: `/predict` traffic against the published bundle,
//! served by `sqlan-serve` on a loopback port.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sqlan_core::Problem;
use sqlan_serve::{
    normalize_statement, Client, MetricsSnapshot, ModelRegistry, PredictRequest, PredictResponse,
    Prediction, ScoringConfig, ScoringEngine, ServeConfig, ServerHandle, TraceDump,
};

use crate::load::{self, Outcome, Request};
use crate::stats::{self, Tail};
use crate::trace::Tracer;
use crate::Metrics;

/// The latency limit every served rate is held to: p99 of the requests
/// sent, with failed or refused requests counted as misses.
pub const LIMIT_P99_MS: f64 = 20.0;

/// Served problems alternate between these two.
const PROBLEMS: [Problem; 2] = [Problem::ErrorClassification, Problem::AnswerSize];

/// Requests a ladder step sends at least, so p99 has ten samples
/// beyond it.
const MIN_REQUESTS: usize = stats::WINDOW;

/// What one serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every statement new after normalisation: 8 per request.
    Cold,
    /// One statement per request, Zipf-skewed over a cached set.
    Hot,
}

impl Traffic {
    pub fn statements_per_request(self) -> usize {
        match self {
            Traffic::Cold => 8,
            Traffic::Hot => 1,
        }
    }
}

/// Fixed rates of one workload, in requests per second.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    pub low: f64,
    pub high: f64,
    /// Requests the low and high phases send at least.
    pub min_requests: usize,
    /// First ladder rate.
    pub ladder_start: f64,
}

/// Requests of the low phase replayed in process for `serve.score_ms`.
const REPLAYED: usize = 500;

/// Runs of a ladder step that must all fail before the step fails.
const ATTEMPTS: usize = 3;

/// Ratio between consecutive ladder rates.
pub const LADDER_RATIO: f64 = 1.07;

/// Most distinct rates one ladder tries. Reruns of a failed step do not
/// count, so stalls of the machine cannot lower the ceiling. From the
/// hot ladder's start the ceiling is 94k requests/s, six steps above
/// the fastest figure seen on a 2-vCPU VM (62.7k).
const MAX_LADDER_RATES: usize = 20;

/// The ladder also stops after this many times `--seconds`, so a run
/// stays bounded in time whatever the host.
const LADDER_BUDGETS: f64 = 3.0;

// ---- traffic ---------------------------------------------------------------

/// Split `statement` around the integer part of its last numeric literal
/// outside quotes, so the literal can be replaced. `None` if it has none.
pub fn literal_slot(statement: &str) -> Option<(String, String)> {
    let bytes = statement.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut quote: Option<u8> = None;
    let mut slot = None;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if let Some(q) = quote {
            if b == q {
                quote = None;
            }
            i += 1;
            continue;
        }
        if b == b'\'' || b == b'"' {
            quote = Some(b);
            i += 1;
            continue;
        }
        if b.is_ascii_digit() && (i == 0 || !(ident(bytes[i - 1]) || bytes[i - 1] == b'.')) {
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j == bytes.len() || !ident(bytes[j]) {
                slot = Some((i, j));
            }
            i = j;
            continue;
        }
        i += 1;
    }
    slot.map(|(a, b)| (statement[..a].to_string(), statement[b..].to_string()))
}

/// Seeded literal variants of the logs' statements, each new after
/// [`normalize_statement`] for the whole run.
#[derive(Debug)]
pub struct ColdSource {
    slots: Vec<(String, String)>,
    pos: usize,
    rng: StdRng,
    seen: HashSet<String>,
}

impl ColdSource {
    pub fn new(statements: &[String], seed: u64) -> ColdSource {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut slots: Vec<(String, String)> =
            statements.iter().filter_map(|s| literal_slot(s)).collect();
        slots.shuffle(&mut rng);
        assert!(!slots.is_empty(), "no statement has a numeric literal");
        ColdSource {
            slots,
            pos: 0,
            rng,
            seen: statements.iter().map(|s| normalize_statement(s)).collect(),
        }
    }

    pub fn next_statement(&mut self) -> String {
        loop {
            let (prefix, suffix) = &self.slots[self.pos % self.slots.len()];
            self.pos += 1;
            let v: u64 = self.rng.gen_range(1..1_000_000_000);
            let s = format!("{prefix}{v}{suffix}");
            if self.seen.insert(normalize_statement(&s)) {
                return s;
            }
        }
    }
}

/// About 2k distinct statements, drawn Zipf-skewed (exponent 1).
#[derive(Debug)]
pub struct HotSource {
    pub set: Vec<String>,
    cdf: Vec<f64>,
    rng: StdRng,
}

pub const HOT_SET: usize = 2000;

impl HotSource {
    pub fn new(statements: &[String], seed: u64) -> HotSource {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = HashSet::new();
        let mut set: Vec<String> = statements
            .iter()
            .filter(|s| seen.insert(normalize_statement(s)))
            .cloned()
            .collect();
        set.shuffle(&mut rng);
        set.truncate(HOT_SET);
        let mut acc = 0.0;
        let cdf = (1..=set.len())
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        HotSource { set, cdf, rng }
    }

    pub fn next_statement(&mut self) -> String {
        let total = *self.cdf.last().expect("hot set is not empty");
        let x = self.rng.gen_range(0.0..total);
        let rank = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.set.len() - 1);
        self.set[rank].clone()
    }
}

/// The statements behind one workload's requests.
#[derive(Debug)]
pub enum Source {
    Cold(ColdSource),
    Hot(HotSource),
}

impl Source {
    pub fn new(traffic: Traffic, statements: &[String], seed: u64) -> Source {
        match traffic {
            Traffic::Cold => Source::Cold(ColdSource::new(statements, seed)),
            Traffic::Hot => Source::Hot(HotSource::new(statements, seed)),
        }
    }

    fn next_statement(&mut self) -> String {
        match self {
            Source::Cold(s) => s.next_statement(),
            Source::Hot(s) => s.next_statement(),
        }
    }
}

/// One planned request: what it asks and the bytes that ask it.
#[derive(Debug, Clone)]
pub struct Planned {
    pub problem: Problem,
    pub statements: Vec<String>,
}

fn body(problem: Problem, statements: &[String]) -> String {
    serde_json::to_string(&PredictRequest {
        problem: problem.name().to_string(),
        statements: statements.to_vec(),
    })
    .expect("request serializes")
}

/// `n` requests of `per` statements each, due at `rate` on a seeded
/// Poisson schedule. Requests go to the connections in turn and the
/// problem alternates every second request, so both connections carry
/// both problems.
pub fn plan(
    source: &mut Source,
    per: usize,
    n: usize,
    rate: f64,
    seed: u64,
) -> (Vec<Request>, Vec<Planned>) {
    let due = load::poisson_schedule(n, rate, seed);
    let mut requests = Vec::with_capacity(n);
    let mut planned = Vec::with_capacity(n);
    for (i, due) in due.into_iter().enumerate() {
        let problem = PROBLEMS[(i / 2) % 2];
        let statements: Vec<String> = (0..per).map(|_| source.next_statement()).collect();
        requests.push(Request {
            conn: i % load::CONNECTIONS,
            due,
            bytes: load::predict_request(&body(problem, &statements)),
        });
        planned.push(Planned {
            problem,
            statements,
        });
    }
    (requests, planned)
}

// ---- phases ----------------------------------------------------------------

/// One phase's requests and what became of them.
#[derive(Debug)]
pub struct Phase {
    pub name: String,
    pub rate: f64,
    pub planned: Vec<Planned>,
    pub outcomes: Vec<Outcome>,
    pub start: Instant,
    /// Wrong answers, one line each.
    pub failures: Vec<String>,
    /// Statements sent.
    pub statements: usize,
}

impl Phase {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(Outcome::latency_ms).collect()
    }

    /// Requests whose answer is not a 200 carrying one non-degraded
    /// prediction per statement.
    fn check_answers(&self) -> Vec<String> {
        self.outcomes
            .iter()
            .zip(&self.planned)
            .enumerate()
            .filter_map(|(i, (o, p))| {
                let why = answer_problem(o, p.statements.len())?;
                Some(format!("{} request {i}: {why}", self.name))
            })
            .collect()
    }
}

fn answer_problem(o: &Outcome, statements: usize) -> Option<String> {
    if o.done.is_none() {
        return Some("no response".into());
    }
    if o.status != 200 {
        return Some(format!("status {}", o.status));
    }
    let text = String::from_utf8_lossy(&o.body);
    match serde_json::from_str::<PredictResponse>(&text) {
        Err(e) => Some(format!("unparseable body ({e})")),
        Ok(r) if r.degraded => Some("degraded answer".into()),
        Ok(r) if r.predictions.len() != statements => Some(format!(
            "{} predictions for {statements} statements",
            r.predictions.len()
        )),
        Ok(_) => None,
    }
}

/// The step passes if its p99 ([`stats::windowed_p99`]; failures count
/// as misses) meets the limit and the backlog did not grow.
pub fn step_passes(outcomes: &[Outcome], rate: f64) -> bool {
    let lat: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
    let p99_ok = stats::windowed_p99(&lat).is_some_and(|p| p <= LIMIT_P99_MS);
    p99_ok && !backlog_grew(outcomes, rate)
}

/// The backlog grew if, when the last request fell due, more requests
/// were still unanswered than arrive within one latency limit.
pub fn backlog_grew(outcomes: &[Outcome], rate: f64) -> bool {
    let Some(last_due) = outcomes.iter().map(|o| o.due).max() else {
        return false;
    };
    let open = outcomes
        .iter()
        .filter(|o| o.done.is_none_or(|d| d > last_due))
        .count();
    open as f64 > 2.0 + rate * LIMIT_P99_MS / 1e3
}

/// The rate ladder: climb geometrically from the first rate while steps
/// pass; stop at the first failing step above a passing one. A step
/// fails only if [`ATTEMPTS`] runs of it in a row fail, so a passing
/// stall of the machine cannot end the climb. If the first rate fails,
/// descend until a rate passes. The result is the highest rate that
/// passed. At most `max_rates` distinct rates are tried.
#[derive(Debug, Clone)]
pub struct Ladder {
    ratio: f64,
    rate: f64,
    best: Option<f64>,
    descending: bool,
    failed_runs: usize,
    rates_left: usize,
}

impl Ladder {
    pub fn new(start: f64, ratio: f64, max_rates: usize) -> Ladder {
        Ladder {
            ratio,
            rate: start,
            best: None,
            descending: false,
            failed_runs: 0,
            rates_left: max_rates,
        }
    }

    /// The rate of the step to run now.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Record the current step's verdict; returns whether to run another.
    pub fn record(&mut self, passed: bool) -> bool {
        if !passed && self.failed_runs + 1 < ATTEMPTS {
            self.failed_runs += 1;
            return true;
        }
        self.failed_runs = 0;
        self.rates_left = self.rates_left.saturating_sub(1);
        if passed {
            self.best = Some(self.rate);
            if self.descending {
                return false;
            }
            self.rate *= self.ratio;
        } else {
            if self.best.is_some() {
                return false;
            }
            self.descending = true;
            self.rate /= self.ratio;
        }
        self.rates_left > 0
    }

    /// Highest passing rate, once the ladder has stopped.
    pub fn max_rate(&self) -> Option<f64> {
        self.best
    }
}

// ---- the server ------------------------------------------------------------

fn get_json<T: serde::Deserialize>(addr: SocketAddr, path: &str) -> T {
    let mut c = Client::connect(addr).expect("connect");
    let (status, body) = c.get(path).expect("GET");
    assert_eq!(status, 200, "GET {path}: {body}");
    serde_json::from_str(&body).expect("JSON answer")
}

fn metrics(addr: SocketAddr) -> MetricsSnapshot {
    get_json(addr, "/metrics")
}

/// A running server and the registry it serves from.
struct Server {
    handle: ServerHandle,
    registry: Arc<ModelRegistry>,
}

/// Open the published bundle, start the server and wait until it
/// answers; with hot traffic, also fill the cache with the hot set for
/// both problems. Returns the server and the seconds the open took.
fn start_server(
    bundle_dir: &Path,
    hot: Option<&[String]>,
    tracer: &Tracer,
    parent: u64,
) -> (Server, f64) {
    let (registry, open_s) = tracer.span("serve.load_bundle", parent, |_| {
        Arc::new(ModelRegistry::open(bundle_dir).expect("open the bundle"))
    });
    let (handle, _) = tracer.span("serve.start", parent, |_| {
        let handle = sqlan_serve::start(Arc::clone(&registry), ServeConfig::default())
            .expect("start the server");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let (status, _) = client.get("/healthz").expect("healthz");
        assert_eq!(status, 200);
        handle
    });
    if let Some(hot) = hot {
        tracer.span("serve.warm_up", parent, |_| {
            let mut client = Client::connect(handle.addr()).expect("connect");
            for problem in PROBLEMS {
                for chunk in hot.chunks(64) {
                    let (status, answer) = client
                        .post("/predict", &body(problem, chunk))
                        .expect("warm-up");
                    assert_eq!(status, 200, "warm-up: {answer}");
                }
            }
        });
    }
    (Server { handle, registry }, open_s)
}

/// Byte-for-byte: the served answer to a probe set equals the
/// in-process `predict_*_batch` on the loaded bundle.
fn probe_matches(addr: SocketAddr, registry: &ModelRegistry, probe: &[String], out: &mut Metrics) {
    let live = registry.current();
    let normalized: Vec<String> = probe.iter().map(|s| normalize_statement(s)).collect();
    let mut client = Client::connect(addr).expect("connect");
    for problem in PROBLEMS {
        let model = live.bundle.model(problem).expect("served problem");
        let predictions: Vec<Prediction> = if problem.is_classification() {
            model
                .predict_proba_batch(&normalized)
                .into_iter()
                .map(|p| Prediction {
                    class: Some(sqlan_ml::argmax(&p)),
                    proba: Some(p),
                    value: None,
                })
                .collect()
        } else {
            model
                .predict_value_batch(&normalized)
                .into_iter()
                .map(|v| Prediction {
                    class: None,
                    proba: None,
                    value: Some(v),
                })
                .collect()
        };
        let expected = serde_json::to_string(&PredictResponse {
            generation: live.generation,
            degraded: false,
            predictions,
        })
        .expect("response serializes");
        let (status, served) = client
            .post("/predict", &body(problem, probe))
            .expect("probe");
        out.check(status == 200 && served == expected, || {
            format!(
                "served {} predictions differ from in-process ones",
                problem.name()
            )
        });
    }
}

/// Latency of one phase, in milliseconds, over `n` requests: its median
/// and its p99 by [`stats::windowed_p99`].
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Latency {
    pub fn of(phase: &Phase) -> Latency {
        let lat = phase.latencies_ms();
        Latency {
            n: lat.len(),
            p50: stats::median(&lat),
            p99: stats::windowed_p99(&lat).unwrap_or(f64::NAN),
        }
    }
}

/// Everything the serve side measured in one pass.
#[derive(Debug)]
pub struct ServeResult {
    /// Seconds from a saved bundle to a server ready to measure.
    pub setup_s: f64,
    /// Seconds of the bundle open inside that set-up.
    pub load_s: f64,
    pub low: Latency,
    pub high: Latency,
    pub max_rate_rps: f64,
    pub phases: Vec<Phase>,
}

/// Serve `traffic` from the bundle at `bundle_dir`: time the setup,
/// run the low and high phases and the ladder, then check the answers.
/// The low and high phases take 30% of `budget_s` each and a ladder
/// step a tenth, but they send at least `rates.min_requests` and
/// [`MIN_REQUESTS`] requests respectively.
#[allow(clippy::too_many_arguments)]
pub fn run(
    bundle_dir: &Path,
    traffic: Traffic,
    rates: Rates,
    budget_s: f64,
    statements: &[String],
    seed: u64,
    tracer: &Tracer,
    out: &mut Metrics,
) -> ServeResult {
    let mut source = Source::new(traffic, statements, seed ^ 0xC01D);
    let per = traffic.statements_per_request();
    let hot: Option<Vec<String>> = match &source {
        Source::Hot(h) => Some(h.set.clone()),
        Source::Cold(_) => None,
    };
    let root = tracer.id();
    let serve_start = Instant::now();

    let ((server, load_s), setup_s) = tracer.span("serve.setup", root, |id| {
        start_server(bundle_dir, hot.as_deref(), tracer, id)
    });
    let addr = server.handle.addr();
    let before = metrics(addr);

    let mut phases: Vec<Phase> = Vec::new();
    let run_phase =
        |name: String, rate: f64, n: usize, source: &mut Source, phases: &mut Vec<Phase>| {
            let (requests, planned) = plan(
                source,
                per,
                n,
                rate,
                seed ^ ((phases.len() as u64 + 1) * 0x51_7CC1),
            );
            let start = Instant::now();
            let outcomes = load::run_phase(addr, &requests, Duration::from_secs(10));
            let mut phase = Phase {
                name,
                rate,
                planned,
                outcomes,
                start,
                failures: Vec::new(),
                statements: 0,
            };
            // Check the answers now, then drop the bodies and (past the low
            // and high phases, which the traced pass replays) the statements,
            // so memory does not grow with the length of the ladder.
            phase.failures = phase.check_answers();
            phase.statements = phase.planned.iter().map(|p| p.statements.len()).sum();
            for o in &mut phase.outcomes {
                o.body = Vec::new();
            }
            if phases.len() >= 2 {
                phase.planned = Vec::new();
            }
            phases.push(phase);
        };
    let count = |rate: f64, secs: f64, min: usize| min.max((rate * secs).round() as usize);
    let fixed_s = budget_s * 0.3;
    run_phase(
        "low".into(),
        rates.low,
        count(rates.low, fixed_s, rates.min_requests),
        &mut source,
        &mut phases,
    );
    let queue_wait_ms = if tracer.is_on() {
        queue_wait_ms(addr)
    } else {
        0.0
    };
    run_phase(
        "high".into(),
        rates.high,
        count(rates.high, fixed_s, rates.min_requests),
        &mut source,
        &mut phases,
    );
    // The traced pass skips the ladder: it is for the layers, and the
    // ladder's figure comes from the untraced pass.
    let mut ladder = Ladder::new(rates.ladder_start, LADDER_RATIO, MAX_LADDER_RATES);
    let step_s = budget_s * 0.1;
    let ladder_start = Instant::now();
    while !tracer.is_on() {
        if ladder_start.elapsed().as_secs_f64() > LADDER_BUDGETS * budget_s {
            println!("ladder stopped by its time limit");
            break;
        }
        let rate = ladder.rate();
        run_phase(
            format!("ladder@{rate:.0}"),
            rate,
            count(rate, step_s, MIN_REQUESTS),
            &mut source,
            &mut phases,
        );
        let last = phases.last().expect("a step ran");
        if !ladder.record(step_passes(&last.outcomes, rate)) {
            break;
        }
    }
    let after = metrics(addr);

    // Checks, at quiescence.
    for p in &phases {
        out.attempted += p.outcomes.len() as u64;
        out.failed += p.failures.len() as u64;
        if let Some(first) = p.failures.first() {
            let n = p.failures.len();
            out.check(false, || {
                format!("{n} of {} answers wrong; first: {first}", p.outcomes.len())
            });
        }
    }
    let m = metrics(addr);
    out.check(
        m.http_requests == m.responses_2xx + m.responses_4xx + m.responses_5xx,
        || {
            format!(
                "/metrics: {} requests != {} + {} + {}",
                m.http_requests, m.responses_2xx, m.responses_4xx, m.responses_5xx
            )
        },
    );
    out.check(
        m.statements == m.statements_by_problem.iter().sum::<u64>(),
        || "/metrics: statements != sum per problem".into(),
    );
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let hit_share = hits as f64 / (hits + misses).max(1) as f64;
    match traffic {
        Traffic::Cold => out.check(hits == 0, || {
            format!("cold traffic hit the cache {hits} times")
        }),
        Traffic::Hot => out.check(hit_share >= 0.99, || {
            format!("hot traffic hit share {hit_share:.4} < 0.99")
        }),
    }
    let mut cold_probe = ColdSource::new(statements, seed ^ 0x9B0B);
    let mut probe: Vec<String> = (0..16).map(|_| cold_probe.next_statement()).collect();
    probe.extend(statements.iter().take(16).cloned());
    probe_matches(addr, &server.registry, &probe, out);

    let (low, high) = (Latency::of(&phases[0]), Latency::of(&phases[1]));
    let max_rate_rps = ladder.max_rate().unwrap_or(f64::NAN);
    if !tracer.is_on() {
        out.check(max_rate_rps.is_finite(), || {
            "no ladder rate met the limit".into()
        });
    } else {
        for (k, p) in phases.iter().enumerate() {
            for (i, o) in p.outcomes.iter().enumerate() {
                if let Some(done) = o.done {
                    let req = ((k as u64 + 1) << 32) | i as u64;
                    tracer.record(
                        tracer.id(),
                        root,
                        "http.predict",
                        "",
                        req,
                        p.start + o.due,
                        p.start + done,
                    );
                }
            }
        }
        out.layer("serve.load_bundle_s", "s", load_s);
        layer_metrics(
            &server.registry,
            &phases,
            hot.as_deref(),
            &before,
            &after,
            queue_wait_ms,
            out,
        );
    }
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.outcomes.iter().map(Outcome::late_ms))
        .collect();
    out.layer(
        "gen.late_ms_p99",
        "ms",
        Tail::at(&late, 99.0).unwrap_or(f64::NAN),
    );
    server.handle.shutdown();
    tracer.record(root, 0, "serve.pass", "", 0, serve_start, Instant::now());
    ServeResult {
        setup_s,
        load_s,
        low,
        high,
        max_rate_rps,
        phases,
    }
}

/// Mean `queue_wait` span of the `/predict` traces the server kept.
fn queue_wait_ms(addr: SocketAddr) -> f64 {
    let dump: TraceDump = get_json(addr, "/debug/trace?n=256");
    let waits: Vec<f64> = dump
        .traces
        .iter()
        .filter(|t| t.route == "/predict")
        .flat_map(|t| {
            t.spans
                .iter()
                .filter(|s| s.name == "queue_wait")
                .map(|s| s.dur_ns as f64 / 1e6)
        })
        .collect();
    stats::mean(&waits)
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    registry: &Arc<ModelRegistry>,
    phases: &[Phase],
    hot: Option<&[String]>,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    queue_wait_ms: f64,
    out: &mut Metrics,
) {
    let d = |a: u64, b: u64| (a - b) as f64;
    let batches = d(after.batches, before.batches);
    out.layer(
        "serve.batch_size_mean",
        "stmts",
        if batches == 0.0 {
            0.0
        } else {
            d(after.batched_statements, before.batched_statements) / batches
        },
    );
    let hits = d(after.cache_hits, before.cache_hits);
    let lookups = hits + d(after.cache_misses, before.cache_misses);
    out.layer(
        "serve.cache_hit_ratio",
        "ratio",
        if lookups == 0.0 { 0.0 } else { hits / lookups },
    );
    out.layer("serve.shed", "count", d(after.shed, before.shed));
    out.layer(
        "serve.deadline_expired",
        "count",
        d(after.deadline_expired, before.deadline_expired),
    );
    out.layer(
        "serve.degraded",
        "count",
        d(after.degraded_responses, before.degraded_responses),
    );
    out.layer("serve.queue_wait_ms", "ms", queue_wait_ms);

    // The start of the low phase's request stream again, in process, one
    // request at a time.
    let engine = ScoringEngine::start(Arc::clone(registry), ScoringConfig::default());
    if let Some(hot) = hot {
        for problem in PROBLEMS {
            for chunk in hot.chunks(64) {
                engine
                    .score(problem, chunk)
                    .expect("warm the in-process engine");
            }
        }
    }
    let low = &phases[0];
    let score_ms: Vec<f64> = low
        .planned
        .iter()
        .take(REPLAYED)
        .map(|p| {
            let t = Instant::now();
            engine
                .score(p.problem, &p.statements)
                .expect("in-process score");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let score_p50 = stats::median(&score_ms);
    out.layer("serve.score_ms", "ms", score_p50);
    let e2e_p50 = stats::median(&low.latencies_ms());
    out.layer("net.roundtrip_overhead_ms", "ms", e2e_p50 - score_p50);

    let stmts: Vec<(Problem, &str)> = low
        .planned
        .iter()
        .flat_map(|p| p.statements.iter().map(move |s| (p.problem, s.as_str())))
        .collect();
    let t = Instant::now();
    let normalized: Vec<(Problem, String)> = stmts
        .iter()
        .map(|(p, s)| (*p, normalize_statement(s)))
        .collect();
    out.layer(
        "sql.normalize_us",
        "us",
        t.elapsed().as_secs_f64() * 1e6 / stmts.len() as f64,
    );
    let generation = engine.registry().generation();
    let t = Instant::now();
    for (p, n) in &normalized {
        std::hint::black_box(engine.cache().get(*p, n, generation));
    }
    out.layer(
        "serve.cache_probe_us",
        "us",
        t.elapsed().as_secs_f64() * 1e6 / normalized.len() as f64,
    );
    engine.shutdown();

    let requests: Vec<Vec<u8>> = low
        .planned
        .iter()
        .map(|p| load::predict_request(&body(p.problem, &p.statements)))
        .collect();
    let t = Instant::now();
    for r in &requests {
        let mut parser = sqlan_net::HttpParser::new(1 << 20);
        let parsed = parser.feed(r);
        assert!(
            matches!(parsed, sqlan_net::Parse::Request(_)),
            "request bytes parse"
        );
    }
    out.layer(
        "net.parse_us",
        "us",
        t.elapsed().as_secs_f64() * 1e6 / requests.len() as f64,
    );

    // Model forward cost per statement at three batch sizes, on the low
    // phase's statements.
    let live = registry.current();
    let sample: Vec<String> = low
        .planned
        .iter()
        .flat_map(|p| p.statements.iter().map(|s| normalize_statement(s)))
        .take(256)
        .collect();
    for (problem, model) in [
        (Problem::ErrorClassification, "wcnn"),
        (Problem::AnswerSize, "ctfidf"),
    ] {
        let m = live.bundle.model(problem).expect("served model");
        for (batch, label) in [(1usize, "b1"), (8, "b8"), (64, "b64")] {
            let t = Instant::now();
            for chunk in sample.chunks(batch) {
                if problem.is_classification() {
                    std::hint::black_box(m.predict_proba_batch(chunk));
                } else {
                    std::hint::black_box(m.predict_value_batch(chunk));
                }
            }
            let us = t.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
            out.layer(
                &format!("core.predict_us_per_stmt.{model}.{label}"),
                "us",
                us,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a ladder against a server that meets the limit up to `capacity`
    /// requests per second, with the steps in `stalled` failing once.
    fn climb(start: f64, capacity: f64, stalled: &[usize]) -> (Option<f64>, Vec<f64>) {
        let mut ladder = Ladder::new(start, 1.1, 20);
        let mut tried = Vec::new();
        loop {
            let rate = ladder.rate();
            let passed = rate <= capacity && !stalled.contains(&tried.len());
            tried.push(rate);
            if !ladder.record(passed) {
                return (ladder.max_rate(), tried);
            }
        }
    }

    #[test]
    fn ladder_stops_at_the_first_rate_that_fails_every_attempt() {
        let (best, tried) = climb(100.0, 125.0, &[]);
        assert!((best.unwrap() - 121.0).abs() < 1e-9, "{tried:?}");
        // 100, 110, 121 pass; 133.1 fails all three attempts.
        assert_eq!(tried.len(), 6);
        assert!(tried[3..].iter().all(|&r| r == tried[3]));
    }

    #[test]
    fn one_stalled_step_does_not_end_the_climb() {
        // The step at 110 stalls twice, then passes on its third run.
        let (best, tried) = climb(100.0, 125.0, &[1, 2]);
        assert!((best.unwrap() - 121.0).abs() < 1e-9, "{tried:?}");
        assert_eq!(tried.len(), 8);
    }

    #[test]
    fn ladder_descends_when_the_first_rate_fails() {
        let (best, tried) = climb(100.0, 85.0, &[]);
        // 100 and 90.9 fail all their attempts, 82.6 passes.
        assert_eq!(tried.len(), 7);
        assert!((best.unwrap() - 100.0 / 1.21).abs() < 1e-9);
    }

    #[test]
    fn ladder_gives_up_after_its_rate_budget() {
        let mut ladder = Ladder::new(100.0, 1.1, 3);
        assert!(ladder.record(true));
        assert!(ladder.record(true));
        assert!(!ladder.record(true));
        assert!(ladder.max_rate().unwrap() > 120.0);
    }

    #[test]
    fn reruns_of_a_stalled_step_do_not_use_up_the_rate_budget() {
        let mut ladder = Ladder::new(100.0, 1.1, 3);
        assert!(ladder.record(true));
        // The step at 110 stalls twice before it passes.
        assert!(ladder.record(false));
        assert!(ladder.record(false));
        assert!(ladder.record(true));
        assert!((ladder.rate() - 121.0).abs() < 1e-9);
        assert!(!ladder.record(true));
        assert!((ladder.max_rate().unwrap() - 121.0).abs() < 1e-9);
    }

    fn answered(due_ms: u64, done_ms: Option<u64>, status: u16) -> Outcome {
        Outcome {
            due: Duration::from_millis(due_ms),
            sent: Duration::from_millis(due_ms),
            done: done_ms.map(Duration::from_millis),
            status,
            body: Vec::new(),
        }
    }

    #[test]
    fn failed_requests_miss_the_limit() {
        let ok: Vec<Outcome> = (0..1000).map(|i| answered(i, Some(i + 2), 200)).collect();
        assert!(step_passes(&ok, 1000.0));
        // Eleven refusals (1.1%) push p99 past any limit.
        let mut refused = ok.clone();
        for o in refused.iter_mut().take(11) {
            o.status = 503;
        }
        assert!(!step_passes(&refused, 1000.0));
        // Eleven requests never answered do the same.
        let mut lost = ok;
        for o in lost.iter_mut().skip(100).take(11) {
            o.done = None;
        }
        assert!(!step_passes(&lost, 1000.0));
    }

    #[test]
    fn a_growing_backlog_fails_the_step() {
        // Each request takes 1.5 ms of service but they are due 1 ms
        // apart: the queue grows by a third of a request per request.
        let mut done = 0u64;
        let slow: Vec<Outcome> = (0..1200u64)
            .map(|i| {
                done = done.max(i * 1000) + 1500;
                Outcome {
                    due: Duration::from_micros(i * 1000),
                    sent: Duration::from_micros(i * 1000),
                    done: Some(Duration::from_micros(done)),
                    status: 200,
                    body: Vec::new(),
                }
            })
            .collect();
        assert!(backlog_grew(&slow, 1000.0));
        let steady: Vec<Outcome> = (0..1200).map(|i| answered(i, Some(i + 1), 200)).collect();
        assert!(!backlog_grew(&steady, 1000.0));
    }

    #[test]
    fn literal_slot_finds_the_last_number_outside_quotes_and_names() {
        let (p, s) = literal_slot("SELECT * FROM u42_t WHERE objId=13987 AND n = '55'").unwrap();
        assert_eq!(
            (p.as_str(), s.as_str()),
            ("SELECT * FROM u42_t WHERE objId=", " AND n = '55'")
        );
        let (p, s) = literal_slot("SELECT TOP 9 * FROM Field WHERE r < 17.5").unwrap();
        assert_eq!(
            (p.as_str(), s.as_str()),
            ("SELECT TOP 9 * FROM Field WHERE r < ", ".5")
        );
        assert_eq!(
            literal_slot("SELECT a FROM u1_plates_3 WHERE id = 0x00d9"),
            None
        );
        assert_eq!(literal_slot("SELECT x2 FROM t"), None);
    }

    #[test]
    fn cold_statements_are_new_and_seeded() {
        let base: Vec<String> = (0..50)
            .map(|i| format!("SELECT * FROM t WHERE id = {i}"))
            .collect();
        let mut a = ColdSource::new(&base, 1);
        let drawn: Vec<String> = (0..5000).map(|_| a.next_statement()).collect();
        let mut seen: HashSet<String> = base.iter().map(|s| normalize_statement(s)).collect();
        assert!(drawn.iter().all(|s| seen.insert(normalize_statement(s))));
        let mut b = ColdSource::new(&base, 1);
        assert!(drawn.iter().take(100).all(|s| *s == b.next_statement()));
    }

    #[test]
    fn hot_draws_are_zipf_skewed_over_the_set() {
        let base: Vec<String> = (0..3000).map(|i| format!("SELECT {i}")).collect();
        let mut h = HotSource::new(&base, 3);
        assert_eq!(h.set.len(), HOT_SET);
        let top = h.set[0].clone();
        let draws: Vec<String> = (0..20_000).map(|_| h.next_statement()).collect();
        let share = draws.iter().filter(|s| **s == top).count() as f64 / draws.len() as f64;
        // Rank 1 of a 2000-rank Zipf(1) carries 1/H(2000) ~ 12%.
        assert!((0.10..0.145).contains(&share), "{share}");
        assert!(draws.iter().all(|s| h.set.contains(s)));
    }
}
