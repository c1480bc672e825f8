//! Command line of the fleet benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <dir>]
//! ```
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).

use perfbench::report::{measure, measure_traced, Outcome};
use perfbench::workloads::{find, WORKLOADS};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(bad(&"must be in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Writes the traced episodes' spans as JSON lines.
fn write_spans(dir: &std::path::Path, args: &Args, outcome: &Outcome) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (episode, span) in &outcome.spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"episode\": {episode}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            json_string(span.name),
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = find(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {:?}; one of {}\n{USAGE}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    let outcome = if args.trace {
        measure_traced(&workload, args.seed, args.seconds)
    } else {
        measure(&workload, args.seed, args.seconds)
    };
    if let Some((name, value, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("metric {name} is not a finite number ({value})");
        return ExitCode::FAILURE;
    }

    println!(
        "workload {} (seed {}, {} s, {})",
        workload.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name} = {value} {unit}");
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    if let Some(dir) = &args.spans {
        if !outcome.spans.is_empty() {
            match write_spans(dir, &args, &outcome) {
                Ok(path) => println!("  spans written to {}", path.display()),
                Err(error) => {
                    eprintln!("cannot write spans to {}: {error}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
