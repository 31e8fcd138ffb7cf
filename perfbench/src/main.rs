//! The repository's benchmark: four workloads over the whole stack, with
//! end-to-end metrics (tracing off) and per-layer metrics (tracing on).
//! `README.md` beside this package explains the workloads and metrics;
//! `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! provsem-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke] [--self-test] [--repeat N] [--spans FILE]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it say
//! the same for a reader. The exit code is 0 only when every check passed.

mod library;
mod metrics;
mod model;
mod svc;
mod svc_trace;
mod trace;
mod util;

use metrics::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use util::Outcome;

const WORKLOADS: [&str; 4] = ["svc_read", "svc_mixed", "fig5_ra", "fig6_tc"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    self_test: bool,
    repeat: usize,
    spans: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: provsem-perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--self-test] [--repeat N] [--spans FILE]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        self_test: false,
        repeat: 1,
        spans: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--repeat" => args.repeat = value().parse().unwrap_or_else(|_| usage()),
            "--spans" => args.spans = Some(value()),
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            _ => usage(),
        }
    }
    let known = args.workload == "all" || WORKLOADS.contains(&args.workload.as_str());
    if !known || args.seconds.is_nan() || args.seconds <= 0.0 || args.repeat == 0 {
        usage();
    }
    if args.smoke {
        // A smoke run exercises every code path in about a second.
        args.seconds = args.seconds.min(1.0);
    }
    args
}

/// Numbers are only comparable when they measure the production default:
/// an optimised build, and no engine or thread override in the environment.
fn guard_environment() {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        std::process::exit(2);
    }
    for var in ["PROVSEM_EXEC", "PROVSEM_THREADS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("refusing to measure with {var} set: unset it to run the default path");
            std::process::exit(2);
        }
    }
}

fn run_workload(workload: &str, args: &Args) -> Outcome {
    let spans = args.spans.as_deref();
    let (seed, seconds, smoke, self_test) = (args.seed, args.seconds, args.smoke, args.self_test);
    match (workload, args.trace) {
        ("svc_read", false) => svc::run(false, seed, seconds, smoke, self_test),
        ("svc_mixed", false) => svc::run(true, seed, seconds, smoke, self_test),
        ("svc_read", true) => svc_trace::run(false, seed, seconds, smoke, self_test, spans),
        ("svc_mixed", true) => svc_trace::run(true, seed, seconds, smoke, self_test, spans),
        ("fig5_ra", trace) => library::fig5_ra(seed, seconds, smoke, self_test, trace, spans),
        ("fig6_tc", trace) => library::fig6_tc(seed, seconds, smoke, self_test, trace, spans),
        _ => usage(),
    }
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Reads `(name, value)` pairs back out of a line [`json_line`] wrote.
fn metric_values(json: &str) -> Vec<(String, f64)> {
    let pieces: Vec<&str> = json.split("\": {\"value\": ").collect();
    pieces
        .windows(2)
        .map(|pair| {
            let name = pair[0].rsplit('"').next().unwrap_or("?").to_string();
            let value = pair[1].split(',').next().and_then(|v| v.parse().ok());
            (name, value.unwrap_or(f64::NAN))
        })
        .collect()
}

/// Runs one workload in this process and prints its report. Returns whether
/// every check passed.
fn report(workload: &str, args: &Args) -> bool {
    let outcome = run_workload(workload, args);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    assert!(
        outcome
            .metrics
            .iter()
            .map(|m| (m.name, m.unit))
            .eq(table.iter().copied()),
        "{workload} must report exactly the metrics of its table"
    );
    println!(
        "workload {workload} seed {} seconds {} trace {} smoke {} | nproc {} | {} | commit {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "attempted {} failed {} error_rate {} claim none",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", json_line(&outcome));
    outcome.failed == 0
}

/// `--repeat N`: runs the workload in N fresh processes (seeds `seed`,
/// `seed+1`, …), and prints, per metric, the median, the quartile spread as
/// a share of the median — the figure the acceptance rule is about — and
/// max ÷ min − 1.
fn repeat(workload: &str, args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    let mut all_ok = true;
    for i in 0..args.repeat {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &(args.seed + i as u64).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        let out = child.stderr(Stdio::inherit()).output().expect("child runs");
        all_ok &= out.status.success();
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or_default();
        for (n, (name, value)) in metric_values(last).into_iter().enumerate() {
            match values.get_mut(n) {
                Some((_, series)) => series.push(value),
                None => values.push((name, vec![value])),
            }
        }
        eprintln!("{workload} run {}/{} done", i + 1, args.repeat);
    }
    println!(
        "workload {workload}: {} runs, seeds {}..",
        args.repeat, args.seed
    );
    println!(
        "{:<36} {:>14} {:>10} {:>12}",
        "metric", "median", "iqr/med", "max/min-1"
    );
    for (name, series) in &values {
        let mut sorted = series.clone();
        sorted.sort_by(f64::total_cmp);
        let median = util::median(&sorted);
        // Quartiles as Python's statistics.quantiles(values, n=4) gives them.
        let quartile = |q: f64| {
            let position = q * (sorted.len() as f64 + 1.0) - 1.0;
            let low = (position.floor().max(0.0) as usize).min(sorted.len() - 1);
            let high = (low + 1).min(sorted.len() - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64).clamp(0.0, 1.0)
        };
        let spread = (quartile(0.75) - quartile(0.25)) / median;
        let range = sorted[sorted.len() - 1] / sorted[0] - 1.0;
        println!("{name:<36} {median:>14.6} {spread:>10.4} {range:>12.4}");
    }
    all_ok
}

fn main() -> ExitCode {
    let args = parse_args();
    guard_environment();
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_ok = true;
    for workload in workloads {
        all_ok &= if args.repeat > 1 {
            repeat(workload, &args)
        } else {
            report(workload, &args)
        };
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
