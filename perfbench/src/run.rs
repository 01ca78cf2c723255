//! Run configuration, set-up timing and the metric sets every workload
//! reports.

use crate::gen::{Pair, Scale};
use crate::measure::{median, timed, Outcome};
use crate::trace::Profile;
use schemacast_core::{CastContext, ValidationStats};
use schemacast_engine::BatchEngine;
use schemacast_schema::{AbstractSchema, Session};
use std::path::PathBuf;

/// The four workloads. `cold_skip` is not in `BENCHMARK.json`; it is run
/// by hand for the skip contrast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `po_maxex200 → po_target` corpus, no verdict cache.
    ColdValues,
    /// `po_source → po_target` corpus, no verdict cache.
    ColdSkip,
    /// The `cold_values` corpus against a populated verdict cache, 1 % of
    /// files rewritten before every run.
    WarmEdits,
    /// In-memory trees with edit scripts through `validate_edited`.
    EditScripts,
}

impl Workload {
    /// All workloads: `BENCHMARK.json`'s, with `cold_skip` second.
    pub const ALL: [Workload; 4] = [
        Workload::ColdValues,
        Workload::ColdSkip,
        Workload::WarmEdits,
        Workload::EditScripts,
    ];

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdValues => "cold_values",
            Workload::ColdSkip => "cold_skip",
            Workload::WarmEdits => "warm_edits",
            Workload::EditScripts => "edit_scripts",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A deliberately broken run, for the anti-vacuity tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plant {
    /// Flip the expected verdict of input 0.
    WrongExpectation,
    /// Rewrite one file more than the seeded edit set before warm runs.
    ExtraEdit,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for generated files (created and removed by the
    /// caller).
    pub work_dir: PathBuf,
    /// Where the traced run writes its span log, if anywhere.
    pub span_log: Option<PathBuf>,
    /// Anti-vacuity fault, if any.
    pub plant: Option<Plant>,
    /// The benchmark executable, started as the peak-RSS probe process.
    pub probe_exe: PathBuf,
}

/// Set-ups timed per round; `setup_s` is the median over all rounds.
pub const SETUPS_PER_ROUND: usize = 3;

/// A compiled schema pair.
pub struct Compiled {
    /// Session holding the shared alphabet.
    pub session: Session,
    /// Source schema.
    pub source: AbstractSchema,
    /// Target schema.
    pub target: AbstractSchema,
}

/// Compiles a pair.
pub fn compile(pair: Pair) -> Compiled {
    let mut session = Session::new();
    let source = session
        .parse_xsd(&pair.source_xsd())
        .expect("the embedded source schema compiles");
    let target = session
        .parse_xsd(&pair.target_xsd())
        .expect("the embedded target schema compiles");
    Compiled {
        session,
        source,
        target,
    }
}

/// Set-up phase times of fresh set-ups: schema compile,
/// `CastContext::new`, and `BatchEngine::warm_up` with nproc workers.
#[derive(Debug, Clone, Default)]
pub struct Setups {
    /// Seconds per set-up: `[compile, context, warm-up]`.
    pub samples: Vec<[f64; 3]>,
    /// Product IDAs the warm-up built.
    pub idas: usize,
}

impl Setups {
    /// Times [`SETUPS_PER_ROUND`] fresh set-ups of `pair`.
    pub fn time(&mut self, pair: Pair) {
        for _ in 0..SETUPS_PER_ROUND {
            let (parse_s, c) = timed(|| compile(pair));
            let (context_s, ctx) =
                timed(|| CastContext::new(&c.source, &c.target, &c.session.alphabet));
            let (warm_s, built) = timed(|| BatchEngine::new(&ctx).warm_up());
            self.idas = built;
            self.samples.push([parse_s, context_s, warm_s]);
        }
    }

    /// Median of phase `k`.
    pub fn phase(&self, k: usize) -> f64 {
        median(&self.samples.iter().map(|r| r[k]).collect::<Vec<_>>())
    }

    /// Median total.
    pub fn total(&self) -> f64 {
        median(
            &self
                .samples
                .iter()
                .map(|r| r.iter().sum())
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs `round(i)` for `i = 0, 1, …` until `seconds` have passed and at
/// least `min_rounds` rounds ran. Every measurement of a run happens in
/// rounds, so each metric samples the whole run rather than one stretch
/// of it.
pub fn rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> std::io::Result<()>,
) -> std::io::Result<usize> {
    let started = std::time::Instant::now();
    let mut done = 0;
    while done < min_rounds || started.elapsed().as_secs_f64() < seconds {
        round(done)?;
        done += 1;
    }
    Ok(done)
}

/// Items and seconds summed over the passes of one engine in a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Passes {
    /// Passes timed.
    pub count: usize,
    /// Items over all passes.
    pub items: u64,
    /// Seconds over all passes.
    pub secs: f64,
}

impl Passes {
    /// Adds a pass of `items` that took `secs`.
    pub fn add(&mut self, items: usize, secs: f64) {
        self.count += 1;
        self.items += items as u64;
        self.secs += secs;
    }

    /// Items per second over the whole run. The host alternates between
    /// fast and slow stretches a few seconds long, so per-pass rates are
    /// bimodal; their median jumps from one mode to the other as the
    /// share of slow passes crosses one half, while this pooled rate
    /// moves in proportion to that share.
    pub fn rate(&self) -> f64 {
        if self.secs > 0.0 {
            self.items as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// The end-to-end figures of an untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-ups.
    pub setups: Setups,
    /// The nproc-worker passes.
    pub wide: Passes,
    /// The 1-worker passes.
    pub one: Passes,
    /// Request latencies, ns.
    pub latencies: Vec<u64>,
    /// Peak RSS of each workload-only process, MiB.
    pub rss: Vec<f64>,
}

/// Appends the end-to-end metrics, in `BENCHMARK.json` order.
pub fn emit_end_to_end(out: &mut Outcome, e2e: EndToEnd) {
    let mut lat = e2e.latencies;
    lat.sort_unstable();
    let (p50, p99) = (
        crate::measure::quantile(&lat, 0.50) / 1e3,
        crate::measure::quantile(&lat, 0.99) / 1e3,
    );
    out.notes.push(format!(
        "samples: {} set-ups, {} passes at nproc workers, {} at 1 worker, {} latencies \
         ({} beyond p99), {} peak-RSS processes",
        e2e.setups.samples.len(),
        e2e.wide.count,
        e2e.one.count,
        lat.len(),
        lat.len() / 100,
        e2e.rss.len()
    ));
    out.metric("setup_s", e2e.setups.total(), "s");
    out.metric("docs_per_s", e2e.wide.rate(), "docs/s");
    out.metric("docs_per_s_1w", e2e.one.rate(), "docs/s");
    out.metric("doc_p50_us", p50, "us");
    out.metric("doc_p99_us", p99, "us");
    out.metric("peak_rss_mb", median(&e2e.rss), "MiB");
}

/// Everything a traced run measures.
#[derive(Debug, Default)]
pub struct Layers {
    /// Set-ups.
    pub setups: Setups,
    /// Spans of the traced request sweeps.
    pub profile: Profile,
    /// Number of traced sweeps folded into `profile`.
    pub traced_sweeps: usize,
    /// Wall time of the traced sweeps.
    pub traced_wall: f64,
    /// Wall time of the untraced sweeps, one interleaved with each traced
    /// sweep.
    pub untraced_wall: f64,
    /// Validator counters of one sweep.
    pub stats: ValidationStats,
    /// Items per sweep.
    pub items: u64,
    /// Bytes read into buffers in one sweep.
    pub bytes_read: u64,
    /// Bytes served from mappings in one sweep.
    pub bytes_mapped: u64,
    /// Bytes of documents the streaming validator ran on in one sweep.
    pub bytes_validated: u64,
    /// Cache hits in one sweep.
    pub hits: u64,
    /// Items that took the Δ-mods fallback in one sweep.
    pub mods_fallbacks: u64,
    /// Median seconds to drain one sweep's tapes with no validation.
    pub lex_drain_s: f64,
    /// Median `VerdictCache::load` seconds.
    pub cache_load_s: f64,
    /// Median `VerdictCache::save` seconds.
    pub cache_save_s: f64,
    /// Size of the saved cache file.
    pub cache_bytes: u64,
    /// Pooled docs/s at nproc workers over pooled docs/s at 1 worker.
    pub scaling: f64,
}

/// The request's child layers, in report order: (span name, time metric,
/// share metric).
const CHILDREN: [(&str, &str, &str); 9] = [
    ("engine.read", "engine.read_s", "engine.read_share"),
    ("engine.hash", "engine.hash_s", "engine.hash_share"),
    (
        "engine.cache_get",
        "engine.cache_get_s",
        "engine.cache_get_share",
    ),
    ("xml.tape_build", "xml.tape_build_s", "xml.tape_build_share"),
    (
        "core.stream_cast",
        "core.stream_cast_s",
        "core.stream_cast_share",
    ),
    (
        "core.edit_static",
        "core.edit_static_s",
        "core.edit_static_share",
    ),
    (
        "core.edit_script",
        "core.edit_script_s",
        "core.edit_script_share",
    ),
    ("tree.apply", "tree.apply_s", "tree.apply_share"),
    ("core.mods_cast", "core.mods_cast_s", "core.mods_cast_share"),
];

/// Appends the per-layer metrics, in `BENCHMARK.json` order. Times are
/// seconds per sweep over every item; counts are per sweep.
pub fn emit_layers(out: &mut Outcome, l: &Layers) {
    let per = 1.0 / l.traced_sweeps.max(1) as f64;
    let total = l.profile.total_s("request") * per;
    let own = l.profile.self_s("request") * per;
    let share = |s: f64| if total > 0.0 { s / total } else { 0.0 };
    out.metric("request.total_s", total, "s");
    out.metric("request.self_s", own, "s");
    out.metric("request.self_share", share(own), "ratio");
    for (span, time, part) in CHILDREN {
        let s = l.profile.total_s(span) * per;
        out.metric(time, s, "s");
        out.metric(part, share(s), "ratio");
    }
    // Request root spans over the traced sweeps' wall time: request work
    // run outside a root span would lower it.
    let accounted = if l.traced_wall > 0.0 {
        l.profile.total_s("request") / l.traced_wall
    } else {
        0.0
    };
    out.metric("trace.accounted_frac", accounted, "ratio");
    out.metric("trace.spans", l.profile.spans() as f64 * per, "count");
    let overhead = if l.untraced_wall > 0.0 {
        l.traced_wall / l.untraced_wall - 1.0
    } else {
        0.0
    };
    out.metric("trace.overhead_frac", overhead, "ratio");

    let s = &l.stats;
    let count = |v: usize| v as f64;
    out.metric("xml.tape_events", count(s.tape_events), "count");
    out.metric("xml.tape_skip_hops", count(s.tape_skip_hops), "count");
    out.metric("xml.bytes_skipped", count(s.bytes_skipped), "bytes");
    out.metric("xml.events_avoided", count(s.events_avoided), "count");
    out.metric("xml.lex_drain_s", l.lex_drain_s, "s");
    out.metric("core.nodes_visited", count(s.nodes_visited), "count");
    out.metric(
        "core.content_symbols",
        count(s.content_symbols_scanned),
        "count",
    );
    out.metric("core.value_checks", count(s.value_checks), "count");
    out.metric("core.subsumed_skips", count(s.subsumed_skips), "count");
    out.metric("core.disjoint_rejects", count(s.disjoint_rejects), "count");
    out.metric(
        "core.ida_early_accepts",
        count(s.ida_early_accepts),
        "count",
    );
    out.metric(
        "core.ida_early_rejects",
        count(s.ida_early_rejects),
        "count",
    );
    let skip_ratio = if l.bytes_validated > 0 {
        s.bytes_skipped as f64 / l.bytes_validated as f64
    } else {
        0.0
    };
    out.metric("core.skip_ratio", skip_ratio, "ratio");

    out.metric("engine.bytes_read", l.bytes_read as f64, "bytes");
    out.metric("engine.bytes_mapped", l.bytes_mapped as f64, "bytes");
    let hit_ratio = if l.items > 0 {
        l.hits as f64 / l.items as f64
    } else {
        0.0
    };
    out.metric("engine.cache_hit_ratio", hit_ratio, "ratio");
    out.metric("engine.cache_load_s", l.cache_load_s, "s");
    out.metric("engine.cache_save_s", l.cache_save_s, "s");
    out.metric("engine.cache_bytes", l.cache_bytes as f64, "bytes");
    out.metric("engine.scaling", l.scaling, "ratio");

    out.metric("core.static_skips", count(s.static_skips), "count");
    out.metric("core.static_rejects", count(s.static_rejects), "count");
    out.metric("core.script_skips", count(s.script_skips), "count");
    out.metric("core.script_rejects", count(s.script_rejects), "count");
    out.metric("core.mods_fallbacks", l.mods_fallbacks as f64, "count");
    let fast = s.static_skips + s.static_rejects + s.script_skips + s.script_rejects;
    let fast_ratio = if l.mods_fallbacks as usize + fast > 0 {
        fast as f64 / (fast + l.mods_fallbacks as usize) as f64
    } else {
        0.0
    };
    out.metric("core.edit_fastpath_ratio", fast_ratio, "ratio");

    out.metric("schema.parse_s", l.setups.phase(0), "s");
    out.metric("core.context_s", l.setups.phase(1), "s");
    out.metric("automata.ida_warm_s", l.setups.phase(2), "s");
    out.metric("automata.idas_built", l.setups.idas as f64, "count");
}

/// Runs one workload.
///
/// # Errors
/// Propagates file-system errors from input generation and the corpus
/// pipeline; verdict and parity failures are reported in the outcome.
pub fn run(cfg: &Config) -> std::io::Result<Outcome> {
    match cfg.workload {
        Workload::ColdValues => crate::corpus::run(cfg, crate::gen::CorpusKind::Values, false),
        Workload::ColdSkip => crate::corpus::run(cfg, crate::gen::CorpusKind::Skip, false),
        Workload::WarmEdits => crate::corpus::run(cfg, crate::gen::CorpusKind::Values, true),
        Workload::EditScripts => Ok(crate::edits::run(cfg)),
    }
}

/// Workload-only processes whose peak RSS is the median reported.
pub const RSS_PROBES: usize = 3;

/// Peak RSS of a fresh process that sets up and runs one nproc-worker pass
/// of the workload over `cfg.work_dir`'s inputs and nothing else: no
/// generation oracle, no latency buffers, no span log.
///
/// # Errors
/// The probe could not start or did not report.
pub fn probe_rss(cfg: &Config) -> std::io::Result<f64> {
    let output = std::process::Command::new(&cfg.probe_exe)
        .args(["--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--scale", cfg.scale.name])
        .arg("--rss-probe")
        .arg(&cfg.work_dir)
        .output()?;
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("peak_rss_mb "))
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|_| output.status.success())
        .ok_or_else(|| std::io::Error::other(format!("peak-RSS probe failed: {}", output.status)))
}

/// The probe process's body; returns its `VmHWM` in MiB.
///
/// # Errors
/// File-system errors from the corpus pipeline.
pub fn rss_pass(
    workload: Workload,
    seed: u64,
    scale: Scale,
    work_dir: &std::path::Path,
) -> std::io::Result<f64> {
    use crate::gen::CorpusKind;
    match workload {
        Workload::ColdValues => crate::corpus::rss_pass(CorpusKind::Values, false, work_dir),
        Workload::ColdSkip => crate::corpus::rss_pass(CorpusKind::Skip, false, work_dir),
        Workload::WarmEdits => crate::corpus::rss_pass(CorpusKind::Values, true, work_dir),
        Workload::EditScripts => Ok(crate::edits::rss_pass(seed, scale.edit_items)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_rate_weighs_passes_by_their_time() {
        let mut p = Passes::default();
        p.add(100, 1.0);
        p.add(100, 3.0);
        // 200 items in 4 s, not the 66.7 mean of the per-pass rates.
        assert_eq!(p.rate(), 50.0);
        assert_eq!(p.count, 2);
        assert_eq!(Passes::default().rate(), 0.0);
    }
}
