//! Command line of the service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --emit benchmark|spec
//! ```
//!
//! The last line of standard output is the JSON result. A run whose
//! answers fail their checks prints the result with `"correct": false`
//! and exits with code 1.

use perfbench::{spec, Config, Size};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]\n       perfbench --emit <benchmark|spec>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        size: Size::Full,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => cfg.size = Size::Tiny,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, what] = args.as_slice() {
        if flag == "--emit" {
            match what.as_str() {
                "benchmark" => print!("{}", spec::benchmark_json()),
                "spec" => print!("{}", spec::spec_json()),
                other => {
                    eprintln!("--emit takes benchmark or spec, not {other}");
                    return ExitCode::from(2);
                }
            }
            return ExitCode::SUCCESS;
        }
    }
    let (workload, cfg) = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&workload, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} trace {} seconds {}",
        report.workload,
        cfg.seed,
        u8::from(cfg.trace),
        cfg.seconds
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  answer digest {:016x} over the first {} operations",
        report.digest, report.digest_ops
    );
    for problem in &report.problems {
        println!("  PROBLEM: {problem}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
