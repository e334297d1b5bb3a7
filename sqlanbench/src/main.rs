//! The sqlan benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path sqlanbench/Cargo.toml -- \
//!     --workload <serve_cold|serve_hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run is one round of the system's life: the operator labels the
//! SDSS and SQLShare logs, trains and evaluates the served bundle and
//! saves it (the label → train → publish loop), then a server loads it
//! and users send it open-loop `/predict` traffic made from the run's
//! seed. The workload picks the traffic. See `README.md` for the why.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with every end-to-end metric. With `--trace 1` the run does the same
//! untraced pass, then a traced pass that records spans around each
//! layer call and measures each layer, and the last line carries the
//! per-layer metrics.

mod load;
mod pipeline;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use serve::{Rates, Traffic};
use trace::Tracer;

/// Metrics, checks and request counts of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    pub e2e: Vec<(String, &'static str, f64)>,
    pub layers: Vec<(String, &'static str, f64)>,
    /// Printed in the report but not part of the metric set.
    pub info: Vec<(String, &'static str, f64)>,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Metrics {
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.e2e.push((name.to_string(), unit, value));
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layers.push((name.to_string(), unit, value));
    }

    pub fn info(&mut self, name: &str, unit: &'static str, value: f64) {
        self.info.push((name.to_string(), unit, value));
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }
}

/// A benchmark workload: the traffic users send, at fixed rates.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    traffic: Traffic,
    rates: Rates,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve_cold",
        traffic: Traffic::Cold,
        rates: Rates {
            low: 150.0,
            high: 220.0,
            min_requests: 1500,
            ladder_start: 450.0,
        },
    },
    Workload {
        name: "serve_hot",
        traffic: Traffic::Hot,
        rates: Rates {
            low: 2000.0,
            high: 15000.0,
            min_requests: 3000,
            ladder_start: 26000.0,
        },
    },
];

/// Bounds on the traced stage spans over the untraced loop's wall.
const COVERAGE_BAND: (f64, f64) = (0.8, 1.25);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .copied()
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch space for bundles and span files, inside the package.
fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".run")
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One untraced or traced pass of a workload: the loop, then serving.
fn run_pass(args: &Args, tracer: &Tracer, dir: &Path, out: &mut Metrics) -> pipeline::LoopResult {
    let w = args.workload;
    let h = pipeline::harness();
    let bundle = dir.join(format!("bundle-{}", tracer.is_on() as u8));
    let pass = pipeline::operator_loop(&h, &bundle, !tracer.is_on(), tracer);
    out.attempted += 1;

    let statements: Vec<String> = pass
        .sdss
        .entries
        .iter()
        .chain(&pass.sqlshare.entries)
        .map(|e| e.statement.clone())
        .collect();
    let served = serve::run(
        &bundle,
        w.traffic,
        w.rates,
        args.seconds,
        &statements,
        args.seed,
        tracer,
        out,
    );

    out.e2e("setup_s", "s", served.setup_s);
    out.e2e("predict_p50_ms.low", "ms", served.low.p50);
    out.e2e("predict_p50_ms.high", "ms", served.high.p50);
    out.info("predict_p99_ms.low", "ms", served.low.p99);
    out.info("predict_p99_ms.high", "ms", served.high.p99);
    out.e2e("max_rate_rps", "1/s", served.max_rate_rps);
    out.e2e(
        "label_sdss_stmts_per_s",
        "1/s",
        pass.sdss.len() as f64 / pass.label_sdss_s,
    );
    out.e2e(
        "label_sqlshare_stmts_per_s",
        "1/s",
        pass.sqlshare.len() as f64 / pass.label_sqlshare_s,
    );
    out.e2e("train_s", "s", pass.train_s);
    out.e2e("publish_s", "s", pass.save_s + served.load_s);
    out.e2e("cls_test_loss", "nats", pass.cls_test_loss);
    out.e2e("size_qerror_p50", "ratio", pass.size_qerror_p50);
    out.e2e("peak_rss_mb", "MB", peak_rss_mb());

    println!("phases ({}):", w.name);
    for p in &served.phases {
        let l = serve::Latency::of(p);
        let late: Vec<f64> = p.outcomes.iter().map(load::Outcome::late_ms).collect();
        println!(
            "  {:<16} rate {:>8.1}/s  requests {:>6}  statements {:>7}  p50 {:>8.3} ms  p99 {:>8.3} ms  late p50 {:>6.3} ms  pass {}",
            p.name,
            p.rate,
            l.n,
            p.statements,
            l.p50,
            l.p99,
            stats::median(&late),
            serve::step_passes(&p.outcomes, p.rate),
        );
    }
    println!("operator loop wall {:.3} s", pass.wall_s);
    pass
}

/// Identity of the code and machine behind a result.
fn provenance(args: &Args) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = |a: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(a)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // Only ask git about a checkout that is itself a repository, never
    // about one it might find further up.
    let (sha, dirty) = if root.join(".git").exists() {
        let sha = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
        (sha, dirty.map_or("unknown".to_string(), |d| d.to_string()))
    } else {
        (
            "none (not a git checkout)".to_string(),
            "unknown".to_string(),
        )
    };
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SQLAN_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let machine = sqlan_bench::machine_info();
    println!("provenance:");
    println!("  git_sha        {sha}");
    println!("  git_dirty      {dirty}");
    println!("  nproc          {}", machine.cores);
    println!(
        "  simd_tier      {} (avx2 {}, fma {})",
        machine.simd_tier, machine.avx2, machine.fma
    );
    println!(
        "  sqlan_env      {}",
        if env.is_empty() {
            "(none set: defaults)".to_string()
        } else {
            env.join(" ")
        }
    );
    println!("  workload       {}", args.workload.name);
    println!("  seed           {}", args.seed);
    println!("  seconds        {}", args.seconds);
    println!("  trace          {}", args.trace as u8);
    let r = args.workload.rates;
    println!(
        "  rates          low {}/s  high {}/s  ladder from {}/s by x{}  limit p99 <= {} ms",
        r.low,
        r.high,
        r.ladder_start,
        serve::LADDER_RATIO,
        serve::LIMIT_P99_MS
    );
}

fn print_metrics(title: &str, metrics: &[(String, &'static str, f64)]) {
    println!("{title}:");
    for (name, unit, value) in metrics {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sqlanbench: {e}");
            eprintln!(
                "usage: sqlanbench --workload <serve_cold|serve_hot> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    provenance(&args);
    let dir = run_dir().join(format!("{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run directory");

    let mut out = Metrics::default();
    let pass = run_pass(&args, &Tracer::new(false), &dir, &mut out);
    out.info(
        "failed_frac",
        "ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    print_metrics("end-to-end (untraced)", &out.e2e);
    print_metrics("also reported (untraced)", &out.info);

    if args.trace {
        let tracer = Tracer::new(true);
        let mut traced = Metrics::default();
        let last = run_pass(&args, &tracer, &dir, &mut traced);
        pipeline::layer_metrics(&pipeline::harness(), &last, &tracer, &mut traced);
        traced.check(last.labels() == pass.labels(), || {
            "labels differ between the timed and the traced run".into()
        });

        // Stage coverage. Within the traced pass, its stage spans must
        // cover 90% of its own wall: work outside every span shows here.
        // Against the untraced pass (its wall less the repeats), they must
        // stay within [COVERAGE_BAND]: tracing that adds work pushes them
        // above it. The band is wider than 90% because SDSS labeling, most
        // of the loop, differs by up to a fifth between two passes.
        let stages = tracer.children_seconds(last.span);
        let own = stages / last.wall_s;
        let coverage = stages / pass.single_wall_s;
        println!(
            "stage coverage: traced stages {stages:.3} s = {:.1}% of the traced loop wall {:.3} s, {:.1}% of the untraced loop wall {:.3} s",
            own * 100.0,
            last.wall_s,
            coverage * 100.0,
            pass.single_wall_s,
        );
        traced.check(own >= 0.9, || {
            format!(
                "traced stage spans cover only {:.1}% of the traced loop",
                own * 100.0
            )
        });
        let (lo, hi) = COVERAGE_BAND;
        traced.check((lo..=hi).contains(&coverage), || {
            format!(
                "traced stage spans are {:.1}% of the untraced loop, outside {:.0}%..{:.0}%",
                coverage * 100.0,
                lo * 100.0,
                hi * 100.0
            )
        });

        println!("tracing overhead (traced - untraced):");
        for (name, unit, v) in &traced.e2e {
            let base = out.get(name).unwrap_or(f64::NAN);
            println!(
                "  {name:<40} {base:>12.4} -> {v:>12.4} {unit}  ({:+.2}%)",
                (v - base) / base * 100.0
            );
        }
        print_metrics("per-layer (traced)", &traced.layers);
        print_metrics("also reported (traced)", &traced.info);
        let spans = run_dir().join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name, args.seed
        ));
        let written = tracer.write_jsonl(&spans).expect("write the spans");
        println!("spans: {written} written to {}", spans.display());
        out.failures.append(&mut traced.failures);
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        out.layers = traced.layers;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let reported = if args.trace {
        out.layers.clone()
    } else {
        out.e2e.clone()
    };
    for (name, _, v) in &reported {
        out.check(v.is_finite(), || format!("{name} is not a number"));
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    let metrics: Vec<String> = reported
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
