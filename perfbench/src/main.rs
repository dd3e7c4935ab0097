//! End-to-end and per-layer benchmark of the tpiin system.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <N>]
//! ```
//!
//! Runs one workload for `--seconds` of timed operations and prints, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports
//! the five end-to-end metrics; `--trace 1` records spans around the
//! calls into each layer, runs the per-layer sweep and reports the
//! per-layer metrics.  `--repeat N` runs the workload N times in fresh
//! processes with seeds `n .. n+N` and prints each metric's median and
//! quartiles.  See README.md for the workloads and metrics.

mod build_nation;
mod etl_nation;
mod http;
mod ingest;
mod inputs;
mod investigate;
mod layers;
mod oracle;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use tpiin::io::json::Json;
use trace::{Tracer, SWEEP_OP};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

pub const WORKLOADS: [&str; 4] = [
    "build-nation",
    "etl-nation",
    "investigate-nation",
    "ingest-province",
];

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// The tracer for operation `op`: a traced run traces every other
    /// operation, so traced and untraced operations interleave and
    /// their medians give the tracing overhead.
    pub fn tracer_for(&self, op: u64) -> Option<&Tracer> {
        self.tracer.as_ref().filter(|_| op % 2 == 1)
    }

    /// End of the timed phase if it started now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run measured.
pub struct Run {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Duration of each set-up, in s.
    pub setup_s: Vec<f64>,
    /// Latencies of the untraced operations that succeeded, in ms; the
    /// latency metrics are nearest-rank percentiles of these.
    pub samples_ms: Vec<f64>,
    /// Latencies of the traced operations that succeeded, in ms.
    pub traced_ms: Vec<f64>,
    /// Length of the timed phase, in s.
    pub phase_s: f64,
    /// Highest live heap during the timed phase, in bytes.
    pub peak_bytes: u64,
    /// The percentile reported as `latency_tail_ms`.
    pub tail_pct: f64,
    pub notes: Vec<String>,
}

impl Run {
    pub fn new(tail_pct: f64) -> Run {
        Run {
            correct: true,
            attempted: 0,
            failed: 0,
            setup_s: Vec::new(),
            samples_ms: Vec::new(),
            traced_ms: Vec::new(),
            phase_s: 0.0,
            peak_bytes: 0,
            tail_pct,
            notes: Vec::new(),
        }
    }

    pub fn record(&mut self, tracer: Option<&Tracer>, ms: f64) {
        match tracer {
            Some(_) => self.traced_ms.push(ms),
            None => self.samples_ms.push(ms),
        }
    }

    pub fn fail_check(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let ops = self.samples_ms.len() + self.traced_ms.len();
        let (p50, tail) = if self.samples_ms.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (
                stats::percentile(&self.samples_ms, 50.0),
                stats::percentile(&self.samples_ms, self.tail_pct),
            )
        };
        vec![
            Metric::new("setup_s", "s", stats::median(&self.setup_s)),
            Metric::new("latency_p50_ms", "ms", p50),
            Metric::new("latency_tail_ms", "ms", tail),
            Metric::new("throughput_per_s", "1/s", ops as f64 / self.phase_s),
            Metric::new(
                "peak_heap_mib",
                "MiB",
                self.peak_bytes as f64 / (1u64 << 20) as f64,
            ),
        ]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) = (None, 0, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("want an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("want a number"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("want 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--repeat" => {
                let n: usize = value.parse().map_err(|_| bad("want an integer"))?;
                if !(1..=100).contains(&n) {
                    return Err(bad("want 1..=100"));
                }
                repeat = Some(n);
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repeat,
    })
}

/// The result line: `value` is printed with every digit Rust's
/// shortest round-trip formatting gives.  Metric names and units are
/// this file's own identifiers and need no escaping.
fn result_json(run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

/// Prints the traced run's layer self times and tracing overhead, and
/// writes its spans.  Returns the overhead in percent.
fn report_trace(args: &Args, run: &Run, tracer: &Tracer) -> f64 {
    let spans = tracer.spans();
    let traced_ops = run.traced_ms.len().max(1) as f64;
    println!("trace: self time per traced operation, by layer:");
    for (layer, ms) in trace::self_time_by_layer(&spans, |s| s.op != SWEEP_OP) {
        println!("trace:   {layer:<12} {:>12.3} ms", ms / traced_ops);
    }
    println!("trace: self time in the per-layer sweep, by layer:");
    for (layer, ms) in trace::self_time_by_layer(&spans, |s| s.op == SWEEP_OP) {
        println!("trace:   {layer:<12} {:>12.3} ms", ms);
    }
    let overhead = if run.samples_ms.is_empty() || run.traced_ms.is_empty() {
        f64::NAN
    } else {
        let (off, on) = (
            stats::median(&run.samples_ms),
            stats::median(&run.traced_ms),
        );
        println!(
            "trace: overhead: traced p50 {on:.3} ms over {} ops vs untraced p50 {off:.3} ms over {} ops",
            run.traced_ms.len(),
            run.samples_ms.len()
        );
        (on / off - 1.0) * 100.0
    };
    let path = inputs::work_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match trace::write_jsonl(&spans, &path) {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => println!("trace: writing {}: {e}", path.display()),
    }
    overhead
}

fn run_once(args: &Args) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: args.trace.then(Tracer::default),
    };
    let run = match args.workload.as_str() {
        "build-nation" => build_nation::run(&ctx),
        "etl-nation" => etl_nation::run(&ctx),
        "investigate-nation" => investigate::run(&ctx),
        "ingest-province" => ingest::run(&ctx),
        other => unreachable!("workload `{other}` passed validation"),
    };
    let metrics = match &ctx.tracer {
        Some(tracer) => {
            let mut metrics = layers::sweep(args.seed, tracer);
            let overhead = report_trace(args, &run, tracer);
            metrics.push(Metric::new("trace.overhead_pct", "%", overhead));
            metrics
        }
        None => run.end_to_end(),
    };
    println!(
        "workload {} seed {}: {} operations attempted, {} failed, {} samples, outputs {}",
        args.workload,
        args.seed,
        run.attempted,
        run.failed,
        run.samples_ms.len() + run.traced_ms.len(),
        if run.correct { "checked" } else { "WRONG" }
    );
    for line in &run.notes {
        println!("  {line}");
    }
    if !args.trace {
        println!("  latency_tail_ms is p{}", run.tail_pct);
    }
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&run, &metrics));
    ExitCode::SUCCESS
}

/// `--repeat N`: the workload in N fresh processes, one seed each, then
/// each metric's median, quartiles and quartile spread.
fn repeat(args: &Args, n: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut ok = true;
    for i in 0..n as u64 {
        let seed = args.seed + i;
        let output = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("starting a benchmark run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let Ok(result) = Json::parse(last) else {
            println!("seed {seed}: no result ({})", output.status);
            ok = false;
            continue;
        };
        let field = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let correct = result.get("correct") == Some(&Json::Bool(true));
        ok &= correct && output.status.success();
        println!(
            "seed {seed}: correct {correct}, attempted {}, failed {} (share {:.6})",
            field("attempted"),
            field("failed"),
            field("failed") / field("attempted")
        );
        if let Some(Json::Object(metrics)) = result.get("metrics") {
            let mut line = format!("seed {seed}:");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                line.push_str(&format!(" {name}={value:.6}"));
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, vs)) => vs.push(value),
                    None => values.push((name.clone(), unit, vec![value])),
                }
            }
            println!("{line}");
        }
    }
    println!(
        "{:<32} {:>8} {:>14} {:>14} {:>14} {:>9}",
        "metric", "unit", "median", "q1", "q3", "spread"
    );
    for (name, unit, vs) in &values {
        let med = stats::median(vs);
        let (q1, q3) = stats::quartiles(vs);
        println!(
            "{name:<32} {unit:>8} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>8.2}%",
            (q3 - q1) / med * 100.0
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repeat <N>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        Some(n) => repeat(&args, n),
        None => run_once(&args),
    }
}
