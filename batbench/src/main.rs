//! The batmem benchmark: three named workloads against the serial
//! simulator, end-to-end metrics from untraced runs, and per-layer metrics
//! from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path batbench/Cargo.toml -- \
//!     --workload kcore_s17 --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed`, and `metrics`. The exit code is non-zero when any run failed
//! or a simulated result did not match its digest.

mod digest;
mod host;
mod replay;
mod report;
mod single;
mod spans;
mod stats;
mod sweep;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, with why each is in the set.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "bfs_ttc_s18",
        "BFS-TTC, R-MAT scale 18: graph generation is half the time; few batches, so it \
         bypasses the fault pipeline and thread oversubscription",
    ),
    (
        "kcore_s17",
        "KCORE, R-MAT scale 17: the most fault-pipeline, context-switch, and host-algorithm \
         work per run",
    ),
    (
        "sweep_s14",
        "11 workloads x 8 presets x 2 seeds at scale 14 through the sweep pool: fixed \
         per-run costs and every policy path",
    ),
];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: digest::PINNED_SEED,
        seconds: 30,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let known: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {}", known.join(", ")));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// Where traced runs write spans and sweeps keep their temporary stores,
/// relative to the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("batbench: {e}");
            eprintln!(
                "usage: batbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.map(|(w, _)| w).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("", |(_, y)| y);
    println!("workload {} -- {why}", args.workload);
    println!(
        "host nproc={} rustc=\"{}\" commit={} seed={}{} seconds={} trace={}",
        host::nproc(),
        host::rustc(),
        host::commit(),
        args.seed,
        if args.seed == digest::HELD_OUT_SEED {
            " (held-out seed)"
        } else {
            ""
        },
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "digests pinned at seed {}; held-out seed for confirming claims: {}",
        digest::PINNED_SEED,
        digest::HELD_OUT_SEED
    );
    let mut report = Report::default();
    let budget = std::time::Duration::from_secs(args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("sweep_s14", false) => sweep::measure(args.seed, budget, &mut report),
        ("sweep_s14", true) => trace::sweep(args.seed, &mut report),
        (name, false) => single::measure(single::spec(name), args.seed, budget, &mut report),
        (name, true) => trace::single(single::spec(name), args.seed, budget, &mut report),
    }
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "kcore_s17",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kcore_s17", 7, 12, true)
        );
        let d = args(&["--workload", "sweep_s14"]).unwrap();
        assert_eq!((d.seed, d.trace), (42, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "kcore_s17", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "kcore_s17", "--seed"]).is_err());
        assert!(args(&["--workload", "kcore_s17", "--seconds", "0"]).is_err());
    }
}
