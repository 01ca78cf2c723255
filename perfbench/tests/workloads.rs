//! The benchmark's own checks, at tiny scale, for all four workloads:
//! inputs repeat per seed, counters repeat per run, every verdict check
//! passes on the real program, and planted faults are caught.

use perfbench::gen::{edit_plans, Corpus, CorpusKind, Scale};
use perfbench::measure::Outcome;
use perfbench::{run, Config, Plant, Workload};
use std::path::{Path, PathBuf};

/// A fresh directory under Cargo's per-target scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config(workload: Workload, trace: bool, plant: Option<Plant>, name: &str) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: 0.05,
        trace,
        scale: Scale::TINY,
        work_dir: scratch(&format!("{}-{name}", workload.name())),
        span_log: None,
        plant,
        probe_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

fn go(cfg: &Config) -> Outcome {
    let out = run(cfg).expect("run completes");
    std::fs::remove_dir_all(&cfg.work_dir).ok();
    out
}

fn files(corpus: &Corpus) -> Vec<Vec<u8>> {
    corpus
        .paths
        .iter()
        .map(|p| std::fs::read(p).expect("read generated file"))
        .collect()
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    let n = Scale::TINY.corpus_docs;
    for kind in [CorpusKind::Values, CorpusKind::Skip] {
        let dirs = [scratch("gen-a"), scratch("gen-b"), scratch("gen-c")];
        let a = Corpus::generate(&dirs[0].join("c"), kind, n, 9).expect("generate");
        let b = Corpus::generate(&dirs[1].join("c"), kind, n, 9).expect("generate");
        let c = Corpus::generate(&dirs[2].join("c"), kind, n, 10).expect("generate");
        assert_eq!(a.oracle_mismatches, 0);
        assert_eq!(files(&a), files(&b));
        assert_eq!((&a.expected, &a.edited), (&b.expected, &b.edited));
        assert_ne!(files(&a), files(&c));
        assert!(
            a.mmap_share(perfbench::gen::mmap_threshold()) > 0.0,
            "the tail must cross the mmap threshold"
        );
        for d in dirs {
            std::fs::remove_dir_all(d).ok();
        }
    }
    let (a, bad) = edit_plans(9, Scale::TINY.edit_items, true);
    let (b, _) = edit_plans(9, Scale::TINY.edit_items, true);
    let (c, _) = edit_plans(10, Scale::TINY.edit_items, true);
    assert_eq!(bad, 0);
    let key = |p: &perfbench::gen::EditPlan| (p.text.clone(), p.route, p.expected);
    assert_eq!(
        a.iter().map(key).collect::<Vec<_>>(),
        b.iter().map(key).collect::<Vec<_>>()
    );
    assert_ne!(
        a.iter().map(key).collect::<Vec<_>>(),
        c.iter().map(key).collect::<Vec<_>>()
    );
}

const END_TO_END: [&str; 6] = [
    "setup_s",
    "docs_per_s",
    "docs_per_s_1w",
    "doc_p50_us",
    "doc_p99_us",
    "peak_rss_mb",
];

#[test]
fn untraced_runs_pass_every_check_and_report_every_metric() {
    for workload in Workload::ALL {
        let out = go(&config(workload, false, None, "e2e"));
        assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END, "{}", workload.name());
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {}",
                workload.name(),
                m.name
            );
        }
    }
}

/// Per-layer metrics that are counts rather than times.
fn counters(out: &Outcome) -> Vec<(&'static str, f64)> {
    out.metrics
        .iter()
        .filter(|m| matches!(m.unit, "count" | "bytes"))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn traced_counters_repeat_exactly_and_spans_account_for_requests() {
    for workload in Workload::ALL {
        let a = go(&config(workload, true, None, "trace-a"));
        let b = go(&config(workload, true, None, "trace-b"));
        assert!(a.correct(), "{}: {:?}", workload.name(), a.problems);
        assert!(b.correct(), "{}: {:?}", workload.name(), b.problems);
        assert_eq!(counters(&a), counters(&b), "{}", workload.name());
        let accounted = a.get("trace.accounted_frac").expect("reported");
        assert!(
            accounted > 0.8 && accounted <= 1.0,
            "{}: root spans cover {accounted} of the traced sweeps",
            workload.name()
        );
        assert!(a.get("request.total_s").expect("reported") > 0.0);
        let positive = |name: &str| a.get(name).expect("reported") > 0.0;
        match workload {
            Workload::ColdValues => {
                assert!(positive("core.value_checks"));
                assert!(positive("xml.lex_drain_s"));
            }
            Workload::ColdSkip => {
                assert!(positive("xml.tape_skip_hops"));
                assert!(a.get("core.skip_ratio").expect("reported") > 0.5);
            }
            Workload::WarmEdits => {
                assert!(a.get("engine.cache_hit_ratio").expect("reported") > 0.9);
                assert!(positive("engine.cache_bytes"));
            }
            Workload::EditScripts => {
                for route in [
                    "core.static_skips",
                    "core.static_rejects",
                    "core.script_skips",
                    "core.script_rejects",
                    "core.mods_fallbacks",
                ] {
                    assert!(positive(route), "{route}");
                }
            }
        }
    }
}

#[test]
fn a_planted_wrong_expectation_is_reported() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = go(&config(
                workload,
                trace,
                Some(Plant::WrongExpectation),
                "plant",
            ));
            assert!(!out.correct(), "{} trace={trace}", workload.name());
            assert!(out.failed >= 1);
            assert!(out.json().starts_with("{\"correct\": false"));
        }
    }
}

#[test]
fn a_planted_extra_edit_breaks_the_miss_count() {
    let out = go(&config(
        Workload::WarmEdits,
        false,
        Some(Plant::ExtraEdit),
        "extra",
    ));
    assert!(!out.correct());
    assert!(
        out.problems.iter().any(|(p, _)| p.contains("misses")),
        "{:?}",
        out.problems
    );
}
