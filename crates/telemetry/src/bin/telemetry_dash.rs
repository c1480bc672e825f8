//! `telemetry_dash` — terminal dashboard over a fleet telemetry JSONL file.
//!
//! Reads the per-slot records a [`JsonlSink`](smartexp3_telemetry::JsonlSink)
//! wrote (e.g. from `repro coop --telemetry PATH`), validates them with the
//! same checks as [`validate_jsonl`](smartexp3_telemetry::validate_jsonl),
//! and renders a per-slot series — active sessions, mean gain, switch rate,
//! Jain fairness, slot wall time and the wake-to-decision latency
//! percentiles — followed by an aggregate summary.
//! Runs on the alias sampler additionally report the cumulative
//! alias-table rebuild and overlay-hit counters, so a rebuild storm shows
//! up as a steep `rebuilds` slope in the summary.
//!
//! ```text
//! cargo run --release -p smartexp3-telemetry --bin telemetry_dash -- PATH [--tail N]
//! ```
//!
//! `--tail N` restricts the series to the last `N` records (the summary
//! still aggregates everything). The tool reads the file once and exits —
//! pair it with `watch` for a live view of a run in progress.

use smartexp3_telemetry::{LatencyStats, TelemetryRecord};

fn usage() -> ! {
    eprintln!("usage: telemetry_dash PATH [--tail N]");
    std::process::exit(2);
}

fn parse_args() -> (String, Option<usize>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut tail = None;
    let mut index = 0;
    while index < args.len() {
        match args[index].as_str() {
            "--help" | "-h" => usage(),
            "--tail" => {
                index += 1;
                let raw = args.get(index).unwrap_or_else(|| usage());
                match raw.parse::<usize>() {
                    Ok(n) => tail = Some(n),
                    Err(_) => {
                        eprintln!("error: --tail expects a non-negative integer, got `{raw}`");
                        std::process::exit(2);
                    }
                }
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument `{other}`");
                usage();
            }
        }
        index += 1;
    }
    match path {
        Some(path) => (path, tail),
        None => usage(),
    }
}

fn latency_cell(latency: &Option<LatencyStats>) -> String {
    match latency {
        Some(l) => format!(
            "{:>8.1} {:>8.1} {:>8.1}",
            l.p50_s * 1e6,
            l.p95_s * 1e6,
            l.p99_s * 1e6
        ),
        None => format!("{:>8} {:>8} {:>8}", "-", "-", "-"),
    }
}

fn main() {
    let (path, tail) = parse_args();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|error| {
        eprintln!("error: cannot read {path}: {error}");
        std::process::exit(1);
    });
    if let Err(message) = smartexp3_telemetry::validate_jsonl(&text) {
        eprintln!("error: {path} failed validation: {message}");
        std::process::exit(1);
    }
    let records: Vec<TelemetryRecord> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| serde_json::from_str(line).expect("validated line parses"))
        .collect();
    if records.is_empty() {
        println!("{path}: no records");
        return;
    }

    let shown = tail
        .map(|n| &records[records.len().saturating_sub(n)..])
        .unwrap_or(&records);
    let skipped = records.len() - shown.len();
    if skipped > 0 {
        println!(
            "... {skipped} earlier records (showing last {})",
            shown.len()
        );
    }
    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>7} {:>9}  {:>8} {:>8} {:>8}",
        "slot", "active", "gain", "switch%", "jain", "slot_ms", "p50_us", "p95_us", "p99_us"
    );
    for record in shown {
        println!(
            "{:>6} {:>9} {:>9.4} {:>8.2} {:>7.4} {:>9.3}  {}",
            record.slot,
            record.active,
            record.metrics.mean_gain(),
            record.metrics.switch_rate() * 100.0,
            record.metrics.jain(),
            record.timing.total_s() * 1e3,
            latency_cell(&record.latency)
        );
    }

    // Aggregate summary over ALL records, not just the shown tail.
    let decisions: u64 = records.iter().map(|r| r.active).sum();
    let wall_s: f64 = records.iter().map(|r| r.timing.total_s()).sum();
    let gain_weighted: f64 = records
        .iter()
        .map(|r| r.metrics.mean_gain() * r.active as f64)
        .sum();
    let with_latency: Vec<&LatencyStats> =
        records.iter().filter_map(|r| r.latency.as_ref()).collect();
    println!(
        "\n{} records, slots {}..={}: {} decisions, mean gain {:.4}, {:.0} decisions/sec \
         of measured wall time",
        records.len(),
        records.first().map_or(0, |r| r.slot),
        records.last().map_or(0, |r| r.slot),
        decisions,
        if decisions == 0 {
            0.0
        } else {
            gain_weighted / decisions as f64
        },
        if wall_s > 0.0 {
            decisions as f64 / wall_s
        } else {
            0.0
        }
    );
    // Sampler counters are cumulative, so the last record holds the run
    // totals; the delta across the export gives the in-window rate.
    let samplers: Vec<_> = records.iter().filter_map(|r| r.sampler).collect();
    match (samplers.first(), samplers.last()) {
        (Some(first), Some(last)) if last.rebuilds > 0 || last.overlay_hits > 0 => {
            println!(
                "sampler: {} alias rebuilds, {} overlay hits cumulative \
                 (+{} rebuilds, +{} hits across this export)",
                last.rebuilds,
                last.overlay_hits,
                last.rebuilds - first.rebuilds,
                last.overlay_hits - first.overlay_hits
            );
        }
        _ => {}
    }
    if with_latency.is_empty() {
        println!("no wake-to-decision latency recorded");
    } else {
        // Per-record percentiles can't be merged exactly; report the worst
        // observed of each, which is the honest conservative bound.
        let worst =
            |f: fn(&LatencyStats) -> f64| with_latency.iter().map(|l| f(l)).fold(0.0, f64::max);
        println!(
            "wake-to-decision latency over {} records: worst p50 {:.1} µs, \
             worst p95 {:.1} µs, worst p99 {:.1} µs",
            with_latency.len(),
            worst(|l| l.p50_s) * 1e6,
            worst(|l| l.p95_s) * 1e6,
            worst(|l| l.p99_s) * 1e6
        );
    }
}
