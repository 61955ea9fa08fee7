//! The repository benchmark: three workloads from the socket to the solvers.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the per-layer
//! metrics (timed calls into each layer's public functions) and prints the
//! reconciliation line.  Every response and solution is checked; any failure makes
//! `correct` false and the exit code 1.  The last line of standard output is the
//! JSON result.  See `perfbench/README.md`.

mod daemon;
mod layers;
mod load;
mod stats;
mod streams;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{run_daemon, run_offline, Ctx, Outcome, DURABLE_MIXED, WIRE_EVENTS};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["wire_events", "durable_mixed", "offline_solve"];

/// End-to-end metrics and their units.  Every run reports all of them, so each
/// one is defined on every workload (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cost_to_lb", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units.  Every traced run reports all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.rtt_us", "us"),
    ("server.unattributed_frac", "ratio"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("frame.bytes_per_req", "B"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("protocol.read_bytes", "B"),
    ("protocol.read_decode_us", "us"),
    ("registry.call_ns", "ns"),
    ("registry.handoff_ns", "ns"),
    ("online.apply_ns", "ns"),
    ("machine.first_fit_slot_ns", "ns"),
    ("machine.machines", "count"),
    ("online.compact_us", "us"),
    ("online.moves_per_pass", "count"),
    ("online.useful_pass_frac", "ratio"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.bytes_per_record", "B"),
    ("wal.compact_ms", "ms"),
    ("recovery.replay_events_per_s", "1/s"),
    ("recovery.snapshot_ms", "ms"),
    ("solver.minbusy_ms", "ms"),
    ("solver.throughput_ms", "ms"),
    ("interval.lb_ns_per_job", "ns"),
    ("par.efficiency", "ratio"),
    ("exact.nodes_per_s", "1/s"),
    ("exact.solved_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("client.send_ns", "ns"),
    ("client.replay_ns", "ns"),
];

/// Whether a metric name is well formed: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Render the result line.  Every metric of the catalogue must be there exactly
/// once, each name must be declared with its unit, and values must be finite.
fn result_json(outcome: &Outcome, correct: bool, trace: bool) -> Result<String, String> {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in catalogue {
        let count = outcome.metrics.iter().filter(|m| m.name == *name).count();
        if count != 1 {
            return Err(format!("metric {name} reported {count} times, not once"));
        }
    }
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        let declared = catalogue.iter().find(|(name, _)| *name == m.name);
        match declared {
            Some((_, unit)) if *unit == m.unit && valid_name(&m.name) => {}
            _ => return Err(format!("metric {} ({}) is not declared", m.name, m.unit)),
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(".perfbench_run").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: creating {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        serve_bin: args.serve_bin,
        run_dir: run_dir.clone(),
    };
    println!(
        "env: workload={} seed={} seconds={} trace={} available_parallelism={} git_rev={} profile={} wal_fs={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        daemon::filesystem_of(&run_dir),
    );
    let outcome = match args.workload.as_str() {
        "wire_events" => run_daemon(&WIRE_EVENTS, &ctx, true),
        "durable_mixed" => run_daemon(&DURABLE_MIXED, &ctx, true),
        _ => run_offline(&ctx),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".perfbench_run");
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for m in &outcome.metrics {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    let t = &outcome.tally;
    let correct = t.failed == 0 && t.attempted > 0;
    println!(
        "checks: attempted={} failed={} error_rate={}{}",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64,
        t.first_error
            .as_deref()
            .map(|e| format!(" first_error={e}"))
            .unwrap_or_default()
    );
    match result_json(&outcome, correct, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Tally;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed_and_declared() {
        let json = benchmark_json();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&declared),
                "{declared} missing from BENCHMARK.json"
            );
        }
        for workload in WORKLOADS {
            assert!(valid_name(workload));
            assert!(
                json.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        // ... and BENCHMARK.json declares no metric the benchmark does not report.
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn refused_requests_count_as_failures() {
        use busytime_server::{ErrorCode, Response};
        let mut shadow = load::Shadow::new(2);
        let event = busytime::online::Event::arrival(1, busytime::Interval::from_ticks(0, 5));
        let refused = Response::overloaded("shed", 5);
        assert!(load::check_response(&mut shadow, Some(&event), &refused).is_err());
        let failed = Response::fail(ErrorCode::Rejected, "no");
        assert!(load::check_response(&mut shadow, Some(&event), &failed).is_err());
        // A refused write leaves the replica untouched, so the next answer still matches.
        assert_eq!(shadow.scheduler().live_count(), 0);
        let ok = Response::Event {
            machine: 0,
            cost_delta: 5,
            cost: 5,
        };
        assert!(load::check_response(&mut shadow, Some(&event), &ok).is_ok());
        // A wrong answer is a failure too.
        let mut other = load::Shadow::new(2);
        let wrong = Response::Event {
            machine: 0,
            cost_delta: 4,
            cost: 4,
        };
        assert!(load::check_response(&mut other, Some(&event), &wrong).is_err());

        let mut tally = Tally {
            attempted: 3,
            ..Tally::default()
        };
        tally.fail("refused".into());
        let outcome = Outcome {
            tally,
            ..complete()
        };
        let line = result_json(&outcome, false, false).unwrap();
        assert!(line.contains("\"attempted\": 3, \"failed\": 1"), "{line}");
    }

    /// An outcome holding every end-to-end metric at 1.0.
    fn complete() -> Outcome {
        let mut outcome = Outcome::default();
        for (name, unit) in END_TO_END {
            outcome.put(*name, 1.0, unit, String::new());
        }
        outcome
    }

    #[test]
    fn undeclared_missing_or_non_finite_metrics_are_rejected() {
        let mut outcome = complete();
        outcome.put("made_up", 1.0, "s", String::new());
        assert!(result_json(&outcome, true, false).is_err());
        let mut outcome = complete();
        outcome.metrics[0].value = f64::NAN;
        assert!(result_json(&outcome, true, false).is_err());
        let mut outcome = complete();
        outcome.metrics.pop();
        assert!(result_json(&outcome, true, false).is_err());
        let mut outcome = complete();
        outcome.put("setup_s", 1.0, "s", String::new());
        assert!(result_json(&outcome, true, false).is_err());
        // The per-layer catalogue is checked on traced runs.
        assert!(result_json(&complete(), true, true).is_err());
        let mut outcome = complete();
        outcome.metrics[0].value = 0.25;
        let line = result_json(&outcome, true, false).unwrap();
        assert!(
            line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"),
            "{line}"
        );
    }
}
