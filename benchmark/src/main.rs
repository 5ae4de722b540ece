//! `benchmark` — run the repository benchmark, or compare two runs.
//!
//! ```text
//! benchmark [--seed N] [--workload NAME]... [--seconds S] [--trace 0|1] [--out PATH]
//! benchmark compare A.json B.json
//! benchmark compare A1.json A2.json ... -- B1.json B2.json ...
//! ```
//!
//! Exit codes: 0 success, 1 a failed check (reps that simulated
//! different things, unsettled requests, inconsistent spans) or an I/O
//! error, 2 a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use parfait_benchmark::compare;
use parfait_benchmark::report::{obj, report, WorkloadReport};
use parfait_benchmark::workloads::{measure, Scale, Workload};
use serde::Value;

/// `BENCHMARK.json`, next to this package in the source tree.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Opts {
    seed: u64,
    workloads: Vec<Workload>,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 20231112,
        workloads: Vec::new(),
        seconds: 25.0,
        trace: true,
        out: PathBuf::from("target/benchmark/results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--workload" => {
                let name = value()?;
                let known = Workload::ALL.map(Workload::name).join(", ");
                opts.workloads.push(
                    Workload::parse(name)
                        .ok_or(format!("unknown workload {name} (known: {known})"))?,
                );
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => opts.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

fn print_report(r: &WorkloadReport) {
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!("{} {} {} {} n={}", r.name, m.name, m.value, m.unit, m.n);
    }
    println!("{}", r.fingerprint_line());
    for f in &r.findings {
        println!(
            "finding {} case={} oracles={} events={}->{}",
            r.name,
            f.case_index,
            f.oracles.join(","),
            f.events.0,
            f.events.1
        );
        for line in f.corpus.lines() {
            println!("  | {line}");
        }
    }
    for p in &r.problems {
        println!("problem {} {p}", r.name);
        eprintln!("benchmark: {}: {p}", r.name);
    }
}

fn write_json(path: &std::path::Path, v: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run(opts: &Opts) -> Result<bool, String> {
    let mut reports = Vec::new();
    for &w in &opts.workloads {
        let r = report(&measure(
            w,
            Scale::Full,
            opts.seed,
            opts.seconds,
            opts.trace,
        ));
        print_report(&r);
        reports.push(r);
    }
    let results = obj(vec![
        ("seed", Value::UInt(opts.seed)),
        ("seconds", Value::Float(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        (
            "workloads",
            Value::Array(reports.iter().map(WorkloadReport::to_value).collect()),
        ),
    ]);
    write_json(&opts.out, &results)?;
    if opts.trace {
        let spans = reports
            .iter()
            .filter_map(|r| Some((r.name.to_string(), r.spans.clone()?)))
            .collect();
        write_json(
            &opts.out.with_file_name("trace.json"),
            &Value::Object(spans),
        )?;
    }
    if let [only] = reports.as_slice() {
        let line = serde_json::to_string(&only.summary(opts.trace)).map_err(|e| e.to_string())?;
        println!("{line}");
    }
    Ok(reports.iter().all(WorkloadReport::correct))
}

/// Split `compare` arguments into the A and B result files.
fn sides(args: &[String]) -> Result<(Vec<&str>, Vec<&str>), String> {
    let (a, b): (Vec<&str>, Vec<&str>) = match args.iter().position(|a| a == "--") {
        Some(i) => (
            args[..i].iter().map(String::as_str).collect(),
            args[i + 1..].iter().map(String::as_str).collect(),
        ),
        None if args.len() == 2 => (vec![args[0].as_str()], vec![args[1].as_str()]),
        None => return Err("usage: benchmark compare A.json B.json".into()),
    };
    if a.is_empty() || b.is_empty() {
        return Err("compare needs results on both sides".into());
    }
    Ok((a, b))
}

fn run_compare(a: &[&str], b: &[&str]) -> Result<bool, String> {
    let bounds = compare::load_bounds(BENCHMARK_JSON)?;
    let rows = compare::compare(
        &bounds,
        &compare::load_samples(a)?,
        &compare::load_samples(b)?,
    );
    for r in &rows {
        let (ma, mb) = r.medians;
        let change = if ma != 0.0 {
            (mb - ma) / ma * 100.0
        } else {
            0.0
        };
        println!(
            "{} {} a={ma} b={mb} change={change:+.2}% {}",
            r.workload, r.metric, r.verdict
        );
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => sides(&args[1..]).map(|(a, b)| run_compare(&a, &b)),
        _ => parse(&args).map(|opts| run(&opts)),
    };
    match outcome {
        Err(usage) => {
            eprintln!("benchmark: {usage}");
            ExitCode::from(2)
        }
        Ok(Ok(true)) => ExitCode::SUCCESS,
        Ok(Ok(false)) => ExitCode::from(1),
        Ok(Err(e)) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
