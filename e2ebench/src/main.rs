//! End-to-end benchmark for the Pitot workspace.
//!
//! ```text
//! pitot-e2e-bench --workload <train-paper|fleet-ingest|fleet-query>
//!                 --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! Each workload runs in this one process on one thread, against the
//! public APIs of `pitot-testbed`, `pitot`, `pitot-conformal` and
//! `pitot-serve`. Inputs are generated from `--seed`. Outputs are checked
//! against computations made here, apart from the program; a failed check
//! prints `"correct": false` and exits with code 1. The last line of
//! standard output is one JSON object: with `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
//! run (spans are written to `e2ebench/out/`). `--threads n` (default 1)
//! is for reference figures only: it sets both the linalg pool and the
//! fleet's lane workers to `n` and lifts the one-thread check. See
//! `e2ebench/README.md`.

mod checks;
mod fleet;
mod probes;
mod stats;
mod trace;
mod train_paper;

use std::process::ExitCode;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Linalg pool threads and fleet lane workers (1 unless measuring
    /// threaded reference figures).
    pub threads: usize,
}

/// Operations of one kind a run attempted, and how many failed.
#[derive(Debug, Clone, Copy)]
pub struct OpCount {
    /// Operation kind, e.g. `steps`.
    pub kind: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// What a workload hands back for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Check failures; empty when every output check passed.
    pub failures: Vec<String>,
    /// Operation counts per kind.
    pub ops: Vec<OpCount>,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Records a check outcome.
    pub fn check(&mut self, what: &str, result: checks::Check) {
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut threads = 1usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--threads" => {
                threads = match value.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("--threads takes a positive count, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
    })
}

fn json_line(correct: bool, report: &Report) -> String {
    let attempted: u64 = report.ops.iter().map(|o| o.attempted).sum();
    let failed: u64 = report.ops.iter().map(|o| o.failed).sum();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pitot-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    // One thread unless `--threads` asks otherwise, whatever the caller's
    // environment says: the linalg pool reads this once, on first use.
    std::env::set_var("PITOT_THREADS", args.threads.to_string());
    if args.trace {
        trace::set_on(true);
    }
    let mut report = match args.workload.as_str() {
        "train-paper" => train_paper::run(&args),
        "fleet-ingest" => fleet::run(&args, fleet::Kind::Ingest),
        "fleet-query" => fleet::run(&args, fleet::Kind::Query),
        other => {
            eprintln!("pitot-e2e-bench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    trace::set_on(false);

    // One thread throughout, which is never more than the processors: the
    // count was read after every set-up and every round; this is the last
    // reading. `--threads n` measures reference figures and is not held
    // to it.
    stats::sample_threads();
    let threads = stats::max_threads();
    let pool = pitot_linalg::par::threads();
    eprintln!(
        "OS threads at most {threads:?}, processors {}, linalg pool {pool}",
        stats::nproc()
    );
    if args.threads == 1 {
        report.check(
            "threads",
            match threads {
                Some(1) if pool == 1 => Ok(()),
                _ => Err(format!(
                    "at most {threads:?} OS threads, linalg pool {pool}"
                )),
            },
        );
    }
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report.failures.push(format!("metric {name} is not finite"));
        }
    }
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(&trace::spans())));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    for op in &report.ops {
        println!(
            "ops {:<12} attempted {:>10} failed {}",
            op.kind, op.attempted, op.failed
        );
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name:<32} {value:>16.6} {unit}");
    }
    for f in &report.failures {
        println!("CHECK FAILED {f}");
    }
    let correct = report.failures.is_empty();
    println!("{}", json_line(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
