//! The `experiments` binary: runs every experiment of the reproduction (E1–E10 plus the
//! Figure 3 construction inside E5) and prints measured-vs-claimed tables.
//!
//! Usage:
//!
//! ```text
//! cargo run -p busytime-bench --bin experiments --release [-- --seed N --trials K --json PATH]
//! ```
//!
//! The defaults are `--seed 2012 --trials 20`.

use std::io::Write;

use busytime_bench::all_experiments;

struct Args {
    seed: u64,
    trials: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 2012,
        trials: 20,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an unsigned integer");
            }
            "--trials" => {
                args.trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--trials needs an unsigned integer");
            }
            "--json" => {
                args.json = Some(it.next().expect("--json needs a path"));
            }
            "--help" | "-h" => {
                println!("usage: experiments [--seed N] [--trials K] [--json PATH]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "busytime reproduction experiments (seed {}, {} trials per configuration)\n",
        args.seed, args.trials
    );
    let reports = all_experiments(args.seed, args.trials);
    let mut all_ok = true;
    for report in &reports {
        println!("{}", report.render());
        all_ok &= report.passed();
    }
    println!(
        "overall: {} ({} experiments)",
        if all_ok { "PASS" } else { "FAIL" },
        reports.len()
    );
    if let Some(path) = args.json {
        let file = std::fs::File::create(&path).expect("cannot create JSON output file");
        let mut writer = std::io::BufWriter::new(file);
        serde_json::to_writer_pretty(&mut writer, &reports).expect("cannot serialize reports");
        writer.flush().expect("cannot flush JSON output");
        println!("wrote {path}");
    }
    if !all_ok {
        std::process::exit(1);
    }
}
