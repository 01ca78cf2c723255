//! The on-disk corpus workloads: `cold_values`, `cold_skip` and
//! `warm_edits`.
//!
//! Throughput comes from `BatchEngine::validate_corpus` over the corpus
//! directory (a closed batch: every file is present at t0). Latency comes
//! from a single client that sends the next document when the previous
//! verdict returns; each request is the pipeline's per-file sequence
//! composed from public calls — read or `Mmap::map`, `content_hash`,
//! `VerdictCache::get`, `StructuralIndex::rebuild`,
//! `StreamingCast::validate_pull` — with one scratch reused. Its per-item
//! verdicts and counters must equal `validate_corpus`'s for the same file.

use crate::gen::{Corpus, CorpusKind};
use crate::measure::{median, timed, Outcome};
use crate::run::{self, Config, EndToEnd, Layers, Plant};
use crate::trace::{NoTrace, Recorder, Tracer, ROOT};
use mmapio::Mmap;
use schemacast_core::{CastContext, CastOutcome, StreamScratch, StreamingCast, ValidationStats};
use schemacast_engine::{
    content_hash, BatchEngine, CorpusOptions, CorpusReport, CorpusSource, ItemOutcome, VerdictCache,
};
use schemacast_regex::Alphabet;
use schemacast_xml::{PullParser, StructuralIndex};
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The populated verdict cache of `warm_edits`. Passes load `snapshot`
/// and save to `saved`, which is removed (untimed) before each pass: a
/// save that renames over an existing file makes ext4 start writeback
/// of it, which would time the disk rather than the program.
struct Warm {
    snapshot: PathBuf,
    saved: PathBuf,
    fingerprint: u64,
}

/// Seconds spent in each timed part of a warm pass.
#[derive(Default)]
struct WarmTimes {
    load: Vec<f64>,
    save: Vec<f64>,
    cache_bytes: u64,
}

/// What one pass needs.
struct Pass<'a, 'c, 's> {
    source: CorpusSource,
    alphabet: &'a Alphabet,
    options: CorpusOptions,
    warm: Option<Warm>,
    plant_extra: bool,
    engines: [&'a BatchEngine<'c, 's>; 2],
}

impl Pass<'_, '_, '_> {
    /// One corpus pass on engine `which` (0 = nproc, 1 = one worker);
    /// returns its timed seconds and the report. Warm passes first rewrite the edit
    /// set with a fresh tag (untimed), then time loading the cache
    /// snapshot + the run + saving the cache.
    fn run(
        &self,
        which: usize,
        corpus: &mut Corpus,
        rep: usize,
        out: &mut Outcome,
        times: &mut WarmTimes,
    ) -> io::Result<(f64, CorpusReport)> {
        let engine = self.engines[which];
        let n = corpus.paths.len();
        let Some(warm) = &self.warm else {
            let (secs, report) =
                timed(|| engine.validate_corpus(&self.source, self.alphabet, None, &self.options));
            let report = report?;
            check_report(&report, corpus, out);
            return Ok((secs, report));
        };
        remove_if_present(&warm.saved)?;
        let tag = format!("r{rep}");
        for i in corpus.edited.clone() {
            corpus.rewrite(i, &tag)?;
        }
        if self.plant_extra {
            if let Some(extra) = (0..n).find(|i| !corpus.edited.contains(i)) {
                corpus.rewrite(extra, &tag)?;
            }
        }
        let started = Instant::now();
        let (load_s, mut cache) = timed(|| VerdictCache::load(&warm.snapshot, warm.fingerprint, 0));
        let report =
            engine.validate_corpus(&self.source, self.alphabet, Some(&mut cache), &self.options)?;
        let (save_s, saved) = timed(|| cache.save(&warm.saved));
        saved?;
        let secs = started.elapsed().as_secs_f64();
        times.load.push(load_s);
        times.save.push(save_s);
        times.cache_bytes = std::fs::metadata(&warm.saved)?.len();
        check_report(&report, corpus, out);
        let k = corpus.edited.len();
        if (report.cache_hits, report.cache_misses) != (n - k, k) {
            out.fail(
                1,
                format!(
                    "warm pass: {} hits / {} misses, expected {} / {k}",
                    report.cache_hits,
                    report.cache_misses,
                    n - k
                ),
            );
        }
        Ok((secs, report))
    }
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Counts items attempted and wrong or failed verdicts.
fn check_report(report: &CorpusReport, corpus: &Corpus, out: &mut Outcome) {
    let n = corpus.paths.len();
    out.attempted += n as u64;
    if report.items.len() != n {
        out.fail(
            n as u64,
            format!("corpus pass returned {} of {n} items", report.items.len()),
        );
        return;
    }
    let mut wrong = 0;
    for (item, &expected) in report.items.iter().zip(&corpus.expected) {
        let ok = match item.outcome {
            ItemOutcome::Valid => expected,
            ItemOutcome::Invalid => !expected,
            _ => false,
        };
        wrong += u64::from(!ok);
    }
    if wrong > 0 {
        out.fail(
            wrong,
            format!("corpus pass: {wrong} read failures, malformed or wrong verdicts"),
        );
    }
}

/// One request's result, comparable to a `CorpusItem`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reply {
    outcome: ItemOutcome,
    stats: ValidationStats,
    cached: bool,
    bytes: u64,
    mapped: bool,
}

/// Scratch reused across requests.
#[derive(Default)]
struct Scratch {
    buffer: Vec<u8>,
    tape: StructuralIndex,
    stream: StreamScratch,
}

fn failed(message: String) -> Reply {
    Reply {
        outcome: ItemOutcome::ReadFailed(message),
        stats: ValidationStats::default(),
        cached: false,
        bytes: 0,
        mapped: false,
    }
}

/// Where a document's bytes are.
enum Loaded {
    Mapped(Mmap),
    /// In the scratch buffer.
    Buffered,
}

/// Maps a file at or above `threshold`, reads a smaller one into
/// `buffer` — the pipeline's adaptive I/O.
fn load(path: &Path, threshold: u64, buffer: &mut Vec<u8>) -> io::Result<Loaded> {
    let file = File::open(path)?;
    if file.metadata()?.len() >= threshold {
        return Ok(Loaded::Mapped(Mmap::map(&file)?));
    }
    buffer.clear();
    (&file).read_to_end(buffer)?;
    Ok(Loaded::Buffered)
}

/// One request: the corpus pipeline's per-file sequence, spanned.
fn request<R: Recorder>(
    rec: &mut R,
    id: u32,
    path: &Path,
    sweeper: &Sweeper<'_, '_>,
    scratch: &mut Scratch,
) -> Reply {
    let root = rec.begin("request", ROOT, id);
    let span = rec.begin("engine.read", root, id);
    let loaded = load(path, sweeper.mmap_threshold, &mut scratch.buffer);
    rec.end(span);
    let (bytes, mapped) = match &loaded {
        Ok(Loaded::Mapped(m)) => (m.as_bytes(), m.is_mapped()),
        Ok(Loaded::Buffered) => (&scratch.buffer[..], false),
        Err(e) => {
            rec.end(root);
            return failed(e.to_string());
        }
    };

    let span = rec.begin("engine.hash", root, id);
    let hash = content_hash(bytes);
    rec.end(span);
    let len = bytes.len() as u64;
    if let Some(cache) = sweeper.cache {
        let span = rec.begin("engine.cache_get", root, id);
        let hit = cache.get(hash);
        rec.end(span);
        if let Some(entry) = hit {
            let (outcome, stats) = entry.replay();
            rec.end(root);
            return Reply {
                outcome,
                stats,
                cached: true,
                bytes: len,
                mapped,
            };
        }
    }

    let (outcome, stats) = match std::str::from_utf8(bytes) {
        Err(e) => (
            ItemOutcome::MalformedXml(format!("invalid UTF-8: {e}")),
            ValidationStats::default(),
        ),
        Ok(text) => {
            let span = rec.begin("xml.tape_build", root, id);
            scratch.tape.rebuild(text);
            rec.end(span);
            let span = rec.begin("core.stream_cast", root, id);
            let mut parser = PullParser::with_index(text, &scratch.tape);
            let verdict = StreamingCast::new(sweeper.ctx).validate_pull(
                &mut parser,
                sweeper.alphabet,
                &mut scratch.stream,
            );
            rec.end(span);
            match verdict {
                Ok((CastOutcome::Valid, stats)) => (ItemOutcome::Valid, stats),
                Ok((CastOutcome::Invalid, stats)) => (ItemOutcome::Invalid, stats),
                Err(e) => (
                    ItemOutcome::MalformedXml(e.to_string()),
                    ValidationStats::default(),
                ),
            }
        }
    };
    rec.end(root);
    Reply {
        outcome,
        stats,
        cached: false,
        bytes: len,
        mapped,
    }
}

/// Everything a request sweep reads.
struct Sweeper<'a, 'c> {
    paths: &'a [PathBuf],
    ctx: &'a CastContext<'c>,
    alphabet: &'a Alphabet,
    cache: Option<&'a VerdictCache>,
    /// The pipeline's `CorpusOptions::mmap_threshold`.
    mmap_threshold: u64,
}

impl Sweeper<'_, '_> {
    /// Sends every file once, in order; returns the sweep's wall time.
    /// Per-request latencies go to `latencies`, replies to `replies`.
    fn sweep<R: Recorder>(
        &self,
        rec: &mut R,
        scratch: &mut Scratch,
        mut latencies: Option<&mut Vec<u64>>,
        mut replies: Option<&mut Vec<Reply>>,
    ) -> f64 {
        let started = Instant::now();
        for (i, path) in self.paths.iter().enumerate() {
            let t = Instant::now();
            let reply = request(rec, i as u32, path, self, scratch);
            if let Some(l) = latencies.as_deref_mut() {
                l.push(t.elapsed().as_nanos() as u64);
            }
            if let Some(r) = replies.as_deref_mut() {
                r.push(reply);
            }
        }
        started.elapsed().as_secs_f64()
    }
}

/// Zeroes the wall-clock counters, as `deterministic_view` does.
fn strip(mut s: ValidationStats) -> ValidationStats {
    s.index_build_micros = 0;
    s.cert_check_micros = 0;
    s
}

/// The request sweep must reproduce the pipeline item for item, I/O path
/// included.
fn check_parity(replies: &[Reply], reference: &CorpusReport, out: &mut Outcome) {
    let view = reference.deterministic_view();
    let diverged = replies.len().abs_diff(view.items.len())
        + replies
            .iter()
            .zip(view.items.iter().zip(&reference.items))
            .filter(|(r, ((_, outcome, stats, cached, bytes), item))| {
                (&r.outcome, strip(r.stats), r.cached, r.bytes, r.mapped)
                    != (outcome, *stats, *cached, *bytes, item.mapped)
            })
            .count();
    if diverged > 0 {
        out.fail(
            diverged as u64,
            format!("request/pipeline parity: {diverged} items differ from validate_corpus"),
        );
    }
}

/// Drains each document's tape through the pull parser with no
/// validation; returns the summed drain seconds.
fn lex_drain(paths: &[PathBuf], tape: &mut StructuralIndex) -> io::Result<f64> {
    let mut secs = 0.0;
    for path in paths {
        let bytes = std::fs::read(path)?;
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        tape.rebuild(text);
        let t = Instant::now();
        let events = PullParser::with_index(text, tape)
            .take_while(Result::is_ok)
            .count();
        secs += t.elapsed().as_secs_f64();
        std::hint::black_box(events);
    }
    Ok(secs)
}

/// Rounds a run makes at least.
const MIN_ROUNDS: usize = 3;

/// Runs a corpus workload.
///
/// # Errors
/// File-system errors from generation or the pipeline.
pub fn run(cfg: &Config, kind: CorpusKind, warm: bool) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let n = cfg.scale.corpus_docs;
    let mut corpus = Corpus::generate(&cfg.work_dir.join("corpus"), kind, n, cfg.seed)?;
    out.attempted += n as u64;
    if corpus.oracle_mismatches > 0 {
        out.fail(
            corpus.oracle_mismatches as u64,
            format!(
                "{} generated documents disagree with the full-validation oracle",
                corpus.oracle_mismatches
            ),
        );
    }
    if cfg.plant == Some(Plant::WrongExpectation) {
        corpus.plant_wrong_expectation(0);
    }
    let k = if warm { corpus.edited.len() } else { 0 };
    let options = CorpusOptions::default();
    out.provenance = crate::measure::provenance(
        cfg.workload.name(),
        cfg.seed,
        &[
            ("items", n.to_string()),
            ("total_bytes", corpus.total_bytes().to_string()),
            (
                "mmap_byte_share",
                crate::measure::json_num(corpus.mmap_share(options.mmap_threshold)),
            ),
            ("mmap_threshold_bytes", options.mmap_threshold.to_string()),
            (
                "expected_invalid",
                corpus.expected.iter().filter(|&&e| !e).count().to_string(),
            ),
            ("edited_per_warm_run", k.to_string()),
        ],
    );

    let pair = kind.pair();
    let compiled = run::compile(pair);
    let alphabet = &compiled.session.alphabet;
    let ctx = CastContext::new(&compiled.source, &compiled.target, alphabet);
    let wide = BatchEngine::new(&ctx);
    wide.warm_up();
    let one = BatchEngine::with_workers(&ctx, 1);
    let mut pass = Pass {
        source: CorpusSource::Dir(corpus.dir.clone()),
        alphabet,
        options,
        warm: None,
        plant_extra: cfg.plant == Some(Plant::ExtraEdit),
        engines: [&wide, &one],
    };
    if warm {
        // Populate the cache once, as a prior cold run would have.
        let fingerprint = ctx.fingerprint(alphabet);
        let mut cache = VerdictCache::empty(fingerprint, 0);
        let report =
            wide.validate_corpus(&pass.source, alphabet, Some(&mut cache), &pass.options)?;
        check_report(&report, &corpus, &mut out);
        let snapshot = cfg.work_dir.join(SNAPSHOT);
        cache.save(&snapshot)?;
        pass.warm = Some(Warm {
            snapshot,
            saved: cfg.work_dir.join("saved.scvc"),
            fingerprint,
        });
    }

    // Requests read the files as each round's last pass left them,
    // against the cache snapshot that pass started from.
    let cache = pass
        .warm
        .as_ref()
        .map(|w| VerdictCache::load(&w.snapshot, w.fingerprint, 0));
    let paths = corpus.paths.clone();
    let sweeper = Sweeper {
        paths: &paths,
        ctx: &ctx,
        alphabet,
        cache: cache.as_ref(),
        mmap_threshold: pass.options.mmap_threshold,
    };
    let mut scratch = Scratch::default();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers {
        items: n as u64,
        ..Layers::default()
    };
    let mut times = WarmTimes::default();
    let mut log = None;
    let mut drains = Vec::new();
    let rounds = run::rounds(cfg.seconds, MIN_ROUNDS, |round| {
        e2e.setups.time(pair);
        let mut reference = None;
        for which in [0, 1] {
            let (secs, report) =
                pass.run(which, &mut corpus, 2 * round + which, &mut out, &mut times)?;
            [&mut e2e.wide, &mut e2e.one][which].add(n, secs);
            reference = Some(report);
        }
        let mut replies = Vec::new();
        let mut first = (round == 0).then_some(&mut replies);
        if cfg.trace {
            // Alternate which sweep goes first, so neither gets the warmer caches.
            let mut tracer = Tracer::new();
            for traced in [round % 2 == 1, round % 2 == 0] {
                if traced {
                    layers.traced_wall +=
                        sweeper.sweep(&mut tracer, &mut scratch, None, first.take());
                    layers.traced_sweeps += 1;
                } else {
                    layers.untraced_wall += sweeper.sweep(&mut NoTrace, &mut scratch, None, None);
                }
            }
            layers.profile.fold(&tracer);
            log.get_or_insert(tracer);
            drains.push(lex_drain(&paths, &mut scratch.tape)?);
        } else {
            sweeper.sweep(&mut NoTrace, &mut scratch, Some(&mut e2e.latencies), first);
        }
        if round == 0 {
            check_parity(&replies, &reference.expect("two passes ran"), &mut out);
            for r in &replies {
                if r.mapped {
                    layers.bytes_mapped += r.bytes;
                } else {
                    layers.bytes_read += r.bytes;
                }
                if r.cached {
                    layers.hits += 1;
                } else {
                    // Replayed counters describe an earlier run's work.
                    layers.stats += r.stats;
                    layers.bytes_validated += r.bytes;
                }
            }
        }
        Ok(())
    })?;
    let sweeps = if cfg.trace { 2 } else { 1 };
    out.attempted += (rounds * sweeps * n) as u64;

    if !cfg.trace {
        for _ in 0..run::RSS_PROBES {
            e2e.rss.push(run::probe_rss(cfg)?);
        }
        run::emit_end_to_end(&mut out, e2e);
        return Ok(out);
    }
    layers.setups = e2e.setups;
    layers.scaling = e2e.wide.rate() / e2e.one.rate();
    layers.cache_load_s = median(&times.load);
    layers.cache_save_s = median(&times.save);
    layers.cache_bytes = times.cache_bytes;
    layers.lex_drain_s = median(&drains);
    run::emit_layers(&mut out, &layers);
    if let (Some(path), Some(log)) = (&cfg.span_log, log) {
        std::fs::write(path, format!("# {}\n{}", out.provenance, log.to_csv()))?;
    }
    Ok(out)
}

/// File name of the warm workload's cache snapshot in the work directory.
const SNAPSHOT: &str = "snapshot.scvc";

/// The body of a peak-RSS probe process: set up, run one nproc-worker
/// corpus pass (warm: load the snapshot, run, save), return `VmHWM`.
///
/// # Errors
/// File-system errors.
pub fn rss_pass(kind: CorpusKind, warm: bool, work_dir: &Path) -> io::Result<f64> {
    let compiled = run::compile(kind.pair());
    let alphabet = &compiled.session.alphabet;
    let ctx = CastContext::new(&compiled.source, &compiled.target, alphabet);
    let engine = BatchEngine::new(&ctx);
    engine.warm_up();
    let source = CorpusSource::Dir(work_dir.join("corpus"));
    let options = CorpusOptions::default();
    if warm {
        let saved = work_dir.join(format!("probe-{}.scvc", std::process::id()));
        let mut cache = VerdictCache::load(&work_dir.join(SNAPSHOT), ctx.fingerprint(alphabet), 0);
        engine.validate_corpus(&source, alphabet, Some(&mut cache), &options)?;
        cache.save(&saved)?;
        std::fs::remove_file(&saved)?;
    } else {
        engine.validate_corpus(&source, alphabet, None, &options)?;
    }
    Ok(crate::measure::peak_rss_mb())
}
