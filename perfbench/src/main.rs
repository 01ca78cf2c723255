//! Command line:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! Generated inputs live under `.perfbench_work/` in the working
//! directory and are removed at exit; traced runs leave their span log
//! under `.perfbench_out/`. The last line of standard output is the
//! result record. Exit status: 0 if every check passed, 1 if a check
//! failed or the run could not complete, 2 on a usage error.

use perfbench::gen::Scale;
use perfbench::{Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "perfbench: {problem}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--scale full|tiny]",
        names.join("|")
    );
    ExitCode::from(2)
}

/// A parsed command line: a measured run, or a peak-RSS probe over the
/// inputs in a directory.
enum Command {
    Run(Config),
    Probe(Config, PathBuf),
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::FULL;
    let mut probe = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::FULL,
                    "tiny" => Scale::TINY,
                    _ => return Err(bad()),
                }
            }
            "--rss-probe" => probe = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if probe.is_some() {
        seconds.get_or_insert(1.0);
    }
    let trace = trace.unwrap_or(false);
    let work_dir = PathBuf::from(".perfbench_work").join(format!(
        "{}-seed{seed}-pid{}",
        workload.name(),
        std::process::id()
    ));
    let span_log = trace.then(|| {
        PathBuf::from(".perfbench_out").join(format!("{}-seed{seed}-spans.csv", workload.name()))
    });
    let cfg = Config {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
        work_dir,
        span_log,
        plant: None,
        probe_exe: std::env::current_exe().map_err(|e| e.to_string())?,
    };
    Ok(match probe {
        Some(dir) => Command::Probe(cfg, dir),
        None => Command::Run(cfg),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(Command::Run(cfg)) => cfg,
        Ok(Command::Probe(cfg, dir)) => {
            return match perfbench::run::rss_pass(cfg.workload, cfg.seed, cfg.scale, &dir) {
                Ok(mb) => {
                    println!("peak_rss_mb {mb}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: peak-RSS probe failed: {e}");
                    ExitCode::from(1)
                }
            };
        }
        Err(problem) => return usage(&problem),
    };
    let prepared = std::fs::remove_dir_all(&cfg.work_dir)
        .or_else(|e| match e.kind() {
            std::io::ErrorKind::NotFound => Ok(()),
            _ => Err(e),
        })
        .and_then(|()| std::fs::create_dir_all(&cfg.work_dir))
        .and_then(|()| match &cfg.span_log {
            Some(log) => std::fs::create_dir_all(log.parent().expect("log path has a parent")),
            None => Ok(()),
        });
    let result = prepared.and_then(|()| perfbench::run(&cfg));
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    if let Some(parent) = cfg.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    println!("provenance {}", outcome.provenance);
    for note in &outcome.notes {
        println!("note {note}");
    }
    for (problem, times) in &outcome.problems {
        println!("FAILED {problem} ({times}x)");
    }
    println!(
        "failed_frac {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
