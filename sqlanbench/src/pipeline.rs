//! The operator's loop: label both logs, train the served bundle,
//! evaluate it on the held-out 20% and save it. Opening the saved bundle
//! is the first step of every server setup (see `serve.rs`), so the
//! publish time is the save plus the median open.

use std::path::Path;
use std::time::Instant;

use sqlan_bench::Harness;
use sqlan_core::prelude::*;
use sqlan_core::{evaluate_classifier, evaluate_regressor, Granularity};
use sqlan_engine::{Database, ErrorClass, ExecLimits};
use sqlan_serve::save_bundle;

use crate::trace::Tracer;

/// The served bundle: a word CNN for error class and a character
/// TF-IDF regressor for answer size.
pub const CLASSIFIER: ModelKind = ModelKind::WCnn;
pub const REGRESSOR: ModelKind = ModelKind::CTfidf;

/// The harness defaults: 3000 SDSS sessions, 1200 SQLShare queries,
/// scale 0.12, 3 epochs and the default seed.
///
/// The logs do not vary with the run's seed. How long a log of this
/// size takes to label hangs on a handful of heavy statements, and
/// across seeds it varies up to twofold, which would bury any change
/// under input noise. The run's seed varies what the users send.
pub fn harness() -> Harness {
    Harness {
        sdss_sessions: 3000,
        sqlshare_queries: 1200,
        sqlshare_users: 60,
        scale: 0.12,
        epochs: 3,
        seed: 0x5D55,
    }
}

/// What one pass of the loop produced and how long each stage took.
#[derive(Debug)]
pub struct LoopResult {
    pub sdss: Workload,
    pub sqlshare: Workload,
    pub label_sdss_s: f64,
    pub label_sqlshare_s: f64,
    pub train_s: f64,
    pub eval_s: f64,
    pub save_s: f64,
    pub wall_s: f64,
    /// The wall less the repeats after the first: what a pass of one
    /// repeat, like the traced one, spends.
    pub single_wall_s: f64,
    /// Span id of the whole pass (its children are the stages).
    pub span: u64,
    pub cls_test_loss: f64,
    pub size_qerror_p50: f64,
    /// Training statements of the classifier (for the tokenizer probe).
    pub train_statements: Vec<String>,
    pub wcnn_train_examples: usize,
}

impl LoopResult {
    /// Every label of both logs, for the determinism check.
    pub fn labels(&self) -> Vec<(ErrorClass, u64, u64)> {
        self.sdss
            .entries
            .iter()
            .chain(&self.sqlshare.entries)
            .map(|e| {
                (
                    e.error_class,
                    e.answer_size.to_bits(),
                    e.cpu_seconds.to_bits(),
                )
            })
            .collect()
    }
}

/// Run `f` `n` times (at least once). Returns the last result, the
/// median of the seconds each run reported, and the wall seconds of the
/// runs after the first, which a pass of one repeat would not spend.
fn repeated<T>(n: usize, mut f: impl FnMut() -> (T, f64)) -> (T, f64, f64) {
    let (mut last, first_s) = f();
    let mut secs = vec![first_s];
    let extra = Instant::now();
    for _ in 1..n {
        let (out, s) = f();
        secs.push(s);
        last = out;
    }
    (
        last,
        crate::stats::median(&secs),
        extra.elapsed().as_secs_f64(),
    )
}

/// Train on the first 70%, select on the next 10%, test on the last 20%.
fn split(n: usize) -> (usize, usize) {
    (n * 7 / 10, n * 8 / 10)
}

/// Repeats of SQLShare labeling (1 to 2 s) in an untraced pass.
pub const LABEL_REPEATS: usize = 3;
/// Repeats of `train_s` (the dataset build and both trainings, under
/// a second) in an untraced pass.
pub const TRAIN_REPEATS: usize = 5;

/// One pass of the loop. SQLShare labeling and training are short
/// enough for a passing stall to move them, so with `repeat` they run
/// [`LABEL_REPEATS`] and [`TRAIN_REPEATS`] times and report their
/// median. The traced pass repeats nothing: its figures are for the
/// layers.
pub fn operator_loop(h: &Harness, bundle_dir: &Path, repeat: bool, tracer: &Tracer) -> LoopResult {
    let start = Instant::now();
    let pass = tracer.id();
    let (label_n, train_n) = if repeat {
        (LABEL_REPEATS, TRAIN_REPEATS)
    } else {
        (1, 1)
    };
    let (sdss, label_sdss_s) = tracer.span("workload.build_sdss", pass, |_| h.sdss_workload());
    let (sqlshare, label_sqlshare_s, label_extra_s) = repeated(label_n, || {
        tracer.span("workload.build_sqlshare", pass, |_| h.sqlshare_workload())
    });

    let cfg = h.train_config();
    let (trained, train_s, train_extra_s) = repeated(train_n, || {
        let ((cls, reg), dataset_s) = tracer.span("core.dataset", pass, |_| {
            (
                Dataset::build(&sdss, Problem::ErrorClassification),
                Dataset::build(&sdss, Problem::AnswerSize),
            )
        });
        let (a, b) = split(cls.len());
        let (c, d) = split(reg.len());
        let (classifier, wcnn_s) = tracer.span_tagged("core.train", "wcnn", pass, |_| {
            train_model(
                CLASSIFIER,
                Task::Classify(Problem::ErrorClassification.n_classes()),
                &TrainData {
                    statements: &cls.statements[..a],
                    labels: Labels::Classes(&cls.class_labels[..a]),
                    valid_statements: &cls.statements[a..b],
                    valid_labels: Labels::Classes(&cls.class_labels[a..b]),
                },
                &cfg,
                None,
            )
        });
        let (regressor, ctfidf_s) = tracer.span_tagged("core.train", "ctfidf", pass, |_| {
            train_model(
                REGRESSOR,
                Task::Regress,
                &TrainData {
                    statements: &reg.statements[..c],
                    labels: Labels::Values(&reg.log_labels[..c]),
                    valid_statements: &reg.statements[c..d],
                    valid_labels: Labels::Values(&reg.log_labels[c..d]),
                },
                &cfg,
                None,
            )
        });
        (
            (cls, reg, classifier, regressor),
            dataset_s + wcnn_s + ctfidf_s,
        )
    });
    let (cls, reg, classifier, regressor) = trained;
    let (b, d) = (split(cls.len()).1, split(reg.len()).1);
    let ((cls_test_loss, size_qerror_p50), eval_s) = tracer.span("core.evaluate", pass, |_| {
        let ce = evaluate_classifier(
            &classifier,
            &cls.statements[b..],
            &cls.class_labels[b..],
            Problem::ErrorClassification.n_classes(),
        );
        let re = evaluate_regressor(
            &regressor,
            &reg.statements[d..],
            &reg.log_labels[d..],
            &reg.raw_labels[d..],
            reg.transform.expect("regression dataset has a transform"),
            f64::from(cfg.huber_delta),
        );
        let p50 = re
            .qerror
            .rows
            .iter()
            .find(|(p, _)| *p == 50.0)
            .map(|&(_, q)| q)
            .expect("qerror table has a median row");
        (ce.loss, p50)
    });
    let ((), save_s) = tracer.span("serve.save_bundle", pass, |_| {
        save_bundle(
            bundle_dir,
            "sqlanbench",
            h.seed,
            &[
                (Problem::ErrorClassification, &classifier),
                (Problem::AnswerSize, &regressor),
            ],
        )
        .map(|_| ())
        .expect("save the bundle")
    });
    let end = Instant::now();
    tracer.record(pass, 0, "pipeline.pass", "", 0, start, end);
    let wall_s = end.duration_since(start).as_secs_f64();
    let a = split(cls.len()).0;
    LoopResult {
        label_sdss_s,
        label_sqlshare_s,
        train_s,
        eval_s,
        save_s,
        wall_s,
        single_wall_s: wall_s - label_extra_s - train_extra_s,
        span: pass,
        cls_test_loss,
        size_qerror_p50,
        train_statements: cls.statements[..a].to_vec(),
        wcnn_train_examples: a,
        sdss,
        sqlshare,
    }
}

/// Per-layer figures of the labeling and training layers, measured by
/// calling each layer's public functions on the pass's own inputs.
pub fn layer_metrics(h: &Harness, pass: &LoopResult, tracer: &Tracer, out: &mut crate::Metrics) {
    // Engine: submit every labeled statement again on fresh databases,
    // one timed call each, fanned out like the labeler fans out.
    let dbs = [
        (
            sqlan_workload::sdss_database(h.sdss_config()).with_limits(ExecLimits::default()),
            &pass.sdss,
        ),
        (
            sqlan_workload::sqlshare_database(h.sqlshare_config()),
            &pass.sqlshare,
        ),
    ];
    let parent = tracer.id();
    let start = Instant::now();
    let (mut hits, mut misses) = (0u64, 0u64);
    for (db, workload) in &dbs {
        let outcomes = sqlan_par::par_map(&workload.entries, |e| {
            submit_traced(db, &e.statement, tracer, parent)
        });
        for (e, o) in workload.entries.iter().zip(&outcomes) {
            let same = o.error_class == e.error_class
                && o.answer_size as f64 == e.answer_size
                && o.cpu_seconds.to_bits() == e.cpu_seconds.to_bits();
            out.check(same, || {
                format!("re-submitted label differs for {:?}", e.statement)
            });
        }
        if let Some(s) = db.plan_cache_stats() {
            hits += s.hits;
            misses += s.misses;
        }
    }
    tracer.record(parent, 0, "engine.resubmit", "", 0, start, Instant::now());
    let mut busy = 0.0;
    for tag in ["success", "non_severe", "severe"] {
        let secs = tracer.seconds("engine.submit", Some(tag));
        busy += secs.iter().sum::<f64>();
        out.layer(
            &format!("engine.submit_busy_s.{tag}"),
            "s",
            secs.iter().sum(),
        );
        out.info(&format!("engine.submits.{tag}"), "count", secs.len() as f64);
        // Too few severe and non-severe submits support a p99: report the
        // highest percentile the count supports, and say which.
        let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
        let tail = crate::stats::Tail::of(&ms);
        if let Some(t) = &tail {
            println!(
                "engine.submit_tail_ms.{tag} is p{} of {} submits",
                t.tail_pct, t.n
            );
        }
        out.layer(
            &format!("engine.submit_tail_ms.{tag}"),
            "ms",
            tail.map_or(f64::NAN, |t| t.tail),
        );
    }
    out.layer(
        "engine.plan_cache_hit_ratio",
        "ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    let label_wall = pass.label_sdss_s + pass.label_sqlshare_s;
    out.layer(
        "par.label_efficiency",
        "ratio",
        busy / (label_wall * sqlan_par::configured_threads() as f64),
    );
    out.layer("workload.sdss_build_s", "s", pass.label_sdss_s);
    out.layer("workload.sqlshare_build_s", "s", pass.label_sqlshare_s);

    // SQL front end, per statement of both logs.
    let statements: Vec<&str> = pass
        .sdss
        .entries
        .iter()
        .chain(&pass.sqlshare.entries)
        .map(|e| e.statement.as_str())
        .collect();
    out.layer(
        "sql.parse_us",
        "us",
        per_item_us(tracer, "sql.parse", &statements, |s| {
            std::hint::black_box(sqlan_sql::parse(s));
        }),
    );
    out.layer(
        "sql.fingerprint_us",
        "us",
        per_item_us(tracer, "sql.fingerprint", &statements, |s| {
            std::hint::black_box(sqlan_sql::fingerprint(s));
        }),
    );
    let train: Vec<&str> = pass.train_statements.iter().map(String::as_str).collect();
    out.layer(
        "features.tokenize_us",
        "us",
        per_item_us(tracer, "features.tokenize", &train, |s| {
            std::hint::black_box(sqlan_core::text::tokenize(s, Granularity::Word));
        }),
    );

    let train_s = |model| crate::stats::median(&tracer.seconds("core.train", Some(model)));
    let wcnn_s = train_s("wcnn");
    out.layer("core.train_s.wcnn", "s", wcnn_s);
    out.layer("core.train_s.ctfidf", "s", train_s("ctfidf"));
    out.layer(
        "core.train_examples_per_s.wcnn",
        "1/s",
        (pass.wcnn_train_examples * h.epochs) as f64 / wcnn_s,
    );
    out.layer("core.eval_s", "s", pass.eval_s);
    out.layer("serve.save_bundle_s", "s", pass.save_s);
}

fn submit_traced(
    db: &Database,
    statement: &str,
    tracer: &Tracer,
    parent: u64,
) -> sqlan_engine::QueryOutcome {
    let id = tracer.id();
    let start = Instant::now();
    let outcome = db.submit(statement);
    let tag = match outcome.error_class {
        ErrorClass::Success => "success",
        ErrorClass::NonSevere => "non_severe",
        ErrorClass::Severe => "severe",
    };
    tracer.record(id, parent, "engine.submit", tag, 0, start, Instant::now());
    outcome
}

/// Mean microseconds per item of `f` over `items`, recorded as one span.
pub fn per_item_us<T>(
    tracer: &Tracer,
    name: &'static str,
    items: &[T],
    mut f: impl FnMut(&T),
) -> f64 {
    let ((), secs) = tracer.span(name, 0, |_| items.iter().for_each(&mut f));
    secs * 1e6 / items.len().max(1) as f64
}
