//! Corpus-scale streaming revalidation: bounded-memory pipeline over a
//! directory tree or manifest, with optional verdict caching.
//!
//! The in-memory batch paths ([`BatchEngine::validate_xml`] and friends)
//! assume the caller already holds every document; at corpus scale that
//! is exactly the wrong shape. This module walks the input *lazily* —
//! paths flow from one producer thread through a bounded queue to the
//! worker pool, so at any instant the process holds at most
//! `queue_capacity` pending paths plus one memory-mapped document per
//! worker. Memory is O(workers), never O(corpus), regardless of how many
//! files the tree holds.
//!
//! Large documents are memory-mapped ([`mmapio::Mmap`]) and streamed
//! through the zero-copy tape validator straight off the mapping; small
//! ones (below [`CorpusOptions::mmap_threshold`]) go through a reused
//! per-worker read buffer instead, which beats the map/unmap syscall
//! pair at that size. Either way a corpus run never materializes a list
//! of document bodies. With a
//! [`VerdictCache`], each document's content hash is looked up before
//! parsing: hits replay the recorded verdict and stats without touching
//! the validator, so a warm re-run after editing k of n files validates
//! exactly k documents.
//!
//! Reports are deterministic: items come back in *input order* — sorted
//! walk order for [`CorpusSource::Dir`], line order for
//! [`CorpusSource::Manifest`], given order for [`CorpusSource::Paths`] —
//! whatever the worker count or scheduling.

use crate::cache::{content_hash, CacheEntry, VerdictCache};
use crate::report::ItemOutcome;
use crate::BatchEngine;
use loomlite::sync::mpsc::SyncSender;
use loomlite::sync::Mutex;
use loomlite::thread;
use mmapio::Mmap;
use schemacast_core::ValidationStats;
use schemacast_regex::Alphabet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where a corpus comes from.
#[derive(Debug, Clone)]
pub enum CorpusSource {
    /// Every `*.xml` file under a directory tree, in sorted depth-first
    /// order (directories and files interleaved lexicographically, so the
    /// order is stable across filesystems).
    Dir(PathBuf),
    /// One path per line of a manifest file, in line order. Blank lines
    /// and `#` comments are skipped; relative paths resolve against the
    /// manifest's own directory.
    Manifest(PathBuf),
    /// An explicit path list, in the given order.
    Paths(Vec<PathBuf>),
}

/// Tuning knobs for a corpus run.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Capacity of the producer→worker path queue; `0` means
    /// `64 × workers`. This bounds how far the walker can run ahead of
    /// the validators — the corpus-scale memory ceiling. Slots hold only
    /// a path, so a deep queue is still small; depth matters because
    /// every producer/worker handoff on a saturated queue is a context
    /// switch, and a few hundred paths of slack amortizes that to noise.
    pub queue_capacity: usize,
    /// Memory-map documents instead of reading them (on by default).
    /// Mapping failures fall back to buffered reads per file either way;
    /// this knob exists for benchmarking the difference.
    pub use_mmap: bool,
    /// Files smaller than this many bytes are read into a reused
    /// per-worker buffer even when `use_mmap` is on: for small documents
    /// the map/unmap syscall pair and page-table churn cost more than
    /// one buffered read, and the warm-cache path is dominated by
    /// exactly that fixed per-file cost. Larger files still map
    /// zero-copy. `0` maps everything.
    pub mmap_threshold: u64,
}

impl Default for CorpusOptions {
    fn default() -> CorpusOptions {
        CorpusOptions {
            queue_capacity: 0,
            use_mmap: true,
            mmap_threshold: 256 * 1024,
        }
    }
}

/// The verdict for one corpus file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusItem {
    /// The file's path as walked (manifest-relative paths are resolved).
    pub path: PathBuf,
    /// The verdict.
    pub outcome: ItemOutcome,
    /// Per-item validator counters (replayed from the cache on a hit).
    pub stats: ValidationStats,
    /// Whether the verdict came from the cache.
    pub cached: bool,
    /// Document size in bytes (0 if the file could not be read).
    pub bytes: u64,
    /// Whether the document bytes came from an actual memory mapping.
    pub mapped: bool,
}

/// The result of one corpus run.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Per-file reports, in input order.
    pub items: Vec<CorpusItem>,
    /// Sum of all per-item stats.
    pub totals: ValidationStats,
    /// Number of [`ItemOutcome::Valid`] items.
    pub valid: usize,
    /// Number of [`ItemOutcome::Invalid`] items.
    pub invalid: usize,
    /// Number of [`ItemOutcome::MalformedXml`] items.
    pub malformed: usize,
    /// Number of [`ItemOutcome::ReadFailed`] items.
    pub read_failed: usize,
    /// Verdicts replayed from the cache.
    pub cache_hits: usize,
    /// Documents that went through the validator (read but uncached;
    /// read failures count in neither bucket).
    pub cache_misses: usize,
    /// Total bytes served via actual memory mappings.
    pub bytes_mmapped: u64,
    /// Total bytes served via buffered reads (mmap off or unavailable).
    pub bytes_read: u64,
    /// Worker count the run used.
    pub workers: usize,
    /// Wall-clock time (excluded from determinism guarantees).
    pub elapsed: Duration,
}

impl CorpusReport {
    fn from_items(items: Vec<CorpusItem>, workers: usize, elapsed: Duration) -> CorpusReport {
        let mut totals = ValidationStats::default();
        let (mut valid, mut invalid, mut malformed, mut read_failed) = (0, 0, 0, 0);
        let (mut cache_hits, mut cache_misses) = (0, 0);
        let (mut bytes_mmapped, mut bytes_read) = (0u64, 0u64);
        for item in &items {
            totals += item.stats;
            match &item.outcome {
                ItemOutcome::Valid => valid += 1,
                ItemOutcome::Invalid | ItemOutcome::ChainBroken { .. } => invalid += 1,
                ItemOutcome::MalformedXml(_) => malformed += 1,
                ItemOutcome::EditFailed(_) | ItemOutcome::ReadFailed(_) => read_failed += 1,
            }
            if matches!(item.outcome, ItemOutcome::ReadFailed(_)) {
                // Not a hit, not a miss: nothing content-derived happened.
            } else if item.cached {
                cache_hits += 1;
            } else {
                cache_misses += 1;
            }
            if item.mapped {
                bytes_mmapped += item.bytes;
            } else {
                bytes_read += item.bytes;
            }
        }
        CorpusReport {
            items,
            totals,
            valid,
            invalid,
            malformed,
            read_failed,
            cache_hits,
            cache_misses,
            bytes_mmapped,
            bytes_read,
            workers,
            elapsed,
        }
    }

    /// Whether every file validated.
    pub fn all_valid(&self) -> bool {
        self.valid == self.items.len()
    }

    /// Documents per second of wall-clock time.
    pub fn docs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.items.len() as f64 / secs
    }

    /// The deterministic portion of the report — everything except
    /// timing, worker count, and the mmap-vs-read byte split (which
    /// depends on whether the OS granted a mapping, not on the input).
    /// Per-item wall-clock counters are zeroed as in
    /// [`crate::BatchReport::deterministic_view`].
    pub fn deterministic_view(&self) -> CorpusView {
        let strip = |mut s: ValidationStats| {
            s.index_build_micros = 0;
            s.cert_check_micros = 0;
            s
        };
        CorpusView {
            items: self
                .items
                .iter()
                .map(|i| {
                    (
                        i.path.clone(),
                        i.outcome.clone(),
                        strip(i.stats),
                        i.cached,
                        i.bytes,
                    )
                })
                .collect(),
            totals: strip(self.totals),
            valid: self.valid,
            invalid: self.invalid,
            malformed: self.malformed,
            read_failed: self.read_failed,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
        }
    }
}

/// See [`CorpusReport::deterministic_view`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusView {
    /// `(path, outcome, stats, cached, bytes)` per item, in input order.
    pub items: Vec<(PathBuf, ItemOutcome, ValidationStats, bool, u64)>,
    /// Folded stats, wall-clock counters zeroed.
    pub totals: ValidationStats,
    /// As on [`CorpusReport`].
    pub valid: usize,
    /// As on [`CorpusReport`].
    pub invalid: usize,
    /// As on [`CorpusReport`].
    pub malformed: usize,
    /// As on [`CorpusReport`].
    pub read_failed: usize,
    /// As on [`CorpusReport`].
    pub cache_hits: usize,
    /// As on [`CorpusReport`].
    pub cache_misses: usize,
}

/// One unit of work in the path queue: just an index and a path — never
/// document bytes, so the queue's memory footprint is bounded by
/// `queue_capacity` paths no matter how large the corpus is. A walk
/// error travels as a pre-made failure so it still lands at the right
/// position in the report.
struct Work {
    idx: usize,
    path: PathBuf,
    walk_error: Option<String>,
}

/// A cache insert discovered on a miss: content hash plus the entry to
/// record, carried out of the worker scope and applied afterwards.
type PendingInsert = Option<((u64, u64), CacheEntry)>;

/// Best-effort extraction of a panic payload's message.
fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = p.downcast_ref::<&str>() {
        s
    } else if let Some(s) = p.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

impl<'c, 's> BatchEngine<'c, 's> {
    /// Revalidates a corpus with bounded memory, streaming paths from
    /// `source` through a bounded queue to the worker pool.
    ///
    /// With a [`VerdictCache`], verdicts for unchanged documents are
    /// replayed without parsing, and freshly computed content-derived
    /// verdicts are recorded back into the cache when the run finishes
    /// (the caller persists with [`VerdictCache::save`]).
    ///
    /// # Errors
    /// Fails only if the source itself is unusable — the root directory
    /// or manifest cannot be opened. Per-file failures never abort the
    /// run; they become [`ItemOutcome::ReadFailed`] items.
    pub fn validate_corpus(
        &self,
        source: &CorpusSource,
        alphabet: &Alphabet,
        mut cache: Option<&mut VerdictCache>,
        options: &CorpusOptions,
    ) -> io::Result<CorpusReport> {
        let started = Instant::now();
        let workers = self.workers();
        let capacity = if options.queue_capacity == 0 {
            workers * 64
        } else {
            options.queue_capacity
        };
        let use_mmap = options.use_mmap;
        let mmap_threshold = options.mmap_threshold;

        // Open the source *before* spawning anything, so a missing root
        // is a clean error rather than an empty report.
        let mut producer = Producer::open(source)?;

        let cache_snapshot: Option<&VerdictCache> = cache.as_deref();
        let (tx, rx) = loomlite::sync::mpsc::sync_channel::<Work>(capacity);
        let rx = Mutex::new(rx);

        // Workers return their private result piles; inserts discovered
        // on misses ride along and are applied to the cache after the
        // scope ends (the snapshot borrow is read-only inside).
        type Pile = Vec<(usize, CorpusItem, PendingInsert)>;
        let piles: Vec<Pile> = thread::scope(|scope| {
            scope.spawn(move || producer.feed(tx));
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let rx = &rx;
                    scope.spawn(move || {
                        let mut scratch = schemacast_core::StreamScratch::default();
                        // Reused for sub-threshold files; holds at most
                        // one document, so memory stays O(workers).
                        let mut buffer: Vec<u8> = Vec::new();
                        let mut pile: Pile = Vec::new();
                        loop {
                            // The receiver lock is released before any
                            // document is touched, and process_one below
                            // never unwinds past its catch, so a poisoned
                            // lock cannot happen on this path; the branch
                            // stays as defense in depth.
                            let work = match rx.lock() {
                                Ok(guard) => guard.recv(),
                                Err(_) => break,
                            };
                            let Ok(work) = work else { break };
                            let (idx, path) = (work.idx, work.path.clone());
                            // One bad document must cost one item, not
                            // the corpus: a panicking validator yields a
                            // per-item failure and the worker keeps
                            // draining. Unwind safety: the only shared
                            // structures process_one touches are the
                            // publish-once caches, whose locks never
                            // guard user code mid-panic; the per-worker
                            // scratch and buffer are replaced wholesale
                            // below.
                            let caught =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    self.process_one(
                                        work,
                                        alphabet,
                                        cache_snapshot,
                                        use_mmap,
                                        mmap_threshold,
                                        &mut buffer,
                                        &mut scratch,
                                    )
                                }));
                            match caught {
                                Ok((item, insert)) => pile.push((item.0, item.1, insert)),
                                Err(payload) => {
                                    scratch = schemacast_core::StreamScratch::default();
                                    buffer = Vec::new();
                                    let msg = panic_message(payload.as_ref());
                                    pile.push((
                                        idx,
                                        CorpusItem {
                                            path,
                                            outcome: ItemOutcome::ReadFailed(format!(
                                                "validator panicked: {msg}"
                                            )),
                                            stats: ValidationStats::default(),
                                            cached: false,
                                            bytes: 0,
                                            mapped: false,
                                        },
                                        None,
                                    ));
                                }
                            }
                        }
                        pile
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(pile) => pile,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        let mut indexed: Vec<(usize, CorpusItem)> = Vec::new();
        for pile in piles {
            for (idx, item, insert) in pile {
                if let (Some(cache), Some((hash, entry))) = (cache.as_deref_mut(), insert) {
                    cache.insert(hash, entry);
                }
                indexed.push((idx, item));
            }
        }
        indexed.sort_unstable_by_key(|(idx, _)| *idx);
        let items = indexed.into_iter().map(|(_, item)| item).collect();
        Ok(CorpusReport::from_items(items, workers, started.elapsed()))
    }

    /// Validates one corpus file: map (or read), hash, cache lookup,
    /// validate on a miss. Runs on a worker thread; the document's bytes
    /// live only for the duration of this call.
    #[allow(clippy::too_many_arguments)]
    fn process_one(
        &self,
        work: Work,
        alphabet: &Alphabet,
        cache: Option<&VerdictCache>,
        use_mmap: bool,
        mmap_threshold: u64,
        buffer: &mut Vec<u8>,
        scratch: &mut schemacast_core::StreamScratch,
    ) -> ((usize, CorpusItem), PendingInsert) {
        let Work {
            idx,
            path,
            walk_error,
        } = work;
        let fail = |message: String| {
            (
                (
                    idx,
                    CorpusItem {
                        path: path.clone(),
                        outcome: ItemOutcome::ReadFailed(message),
                        stats: ValidationStats::default(),
                        cached: false,
                        bytes: 0,
                        mapped: false,
                    },
                ),
                None,
            )
        };
        if let Some(message) = walk_error {
            return fail(message);
        }
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) => return fail(e.to_string()),
        };
        // Hold either a mapping or the reused buffer; `bytes` borrows
        // whichever. Small files skip the mapping: one buffered read is
        // cheaper than the map/unmap pair, which is what the warm-cache
        // path spends nearly all of its time on.
        let file_len = match file.metadata() {
            Ok(m) => m.len(),
            Err(e) => return fail(e.to_string()),
        };
        let mapping;
        let (bytes, mapped): (&[u8], bool) = if use_mmap && file_len >= mmap_threshold {
            mapping = match Mmap::map(&file) {
                Ok(m) => m,
                Err(e) => return fail(e.to_string()),
            };
            (mapping.as_bytes(), mapping.is_mapped())
        } else {
            buffer.clear();
            let mut reader = &file;
            if let Err(e) = reader.read_to_end(buffer) {
                return fail(e.to_string());
            }
            (&buffer[..], false)
        };

        // Debug-only fault injection for the panic-drain regression test:
        // a document opening with this marker panics the validator before
        // anything is hashed or cached.
        #[cfg(debug_assertions)]
        assert!(
            !bytes.starts_with(b"<!--corpus-panic-inject-->"),
            "injected corpus fault"
        );

        // The content hash only keys the verdict cache: without one there
        // is nothing to look up or insert, so the bytes are not hashed.
        let hash = cache.map(|_| content_hash(bytes));
        let len = bytes.len() as u64;
        if let Some(entry) = cache.zip(hash).and_then(|(c, h)| c.get(h)) {
            let (outcome, stats) = entry.replay();
            return (
                (
                    idx,
                    CorpusItem {
                        path,
                        outcome,
                        stats,
                        cached: true,
                        bytes: len,
                        mapped,
                    },
                ),
                None,
            );
        }

        let report = match std::str::from_utf8(bytes) {
            // Content-derived, so cached like any other malformed input.
            Err(e) => crate::ItemReport {
                outcome: ItemOutcome::MalformedXml(format!("invalid UTF-8: {e}")),
                stats: ValidationStats::default(),
            },
            Ok(text) => self.validate_one_xml(text, alphabet, scratch),
        };
        let insert = hash.zip(CacheEntry::from_outcome(&report.outcome, report.stats));
        (
            (
                idx,
                CorpusItem {
                    path,
                    outcome: report.outcome,
                    stats: report.stats,
                    cached: false,
                    bytes: len,
                    mapped,
                },
            ),
            insert,
        )
    }
}

/// The producer half of the pipeline: opened on the caller's thread (so
/// open errors surface as `io::Error`), then driven to completion on a
/// dedicated thread, blocking on the bounded queue whenever the workers
/// fall behind.
enum Producer {
    Dir(PathBuf),
    Manifest {
        dir: PathBuf,
        reader: BufReader<File>,
    },
    Paths(std::vec::IntoIter<PathBuf>),
}

impl Producer {
    fn open(source: &CorpusSource) -> io::Result<Producer> {
        match source {
            CorpusSource::Dir(root) => {
                // Probe now: a missing root is the caller's error.
                std::fs::read_dir(root)?;
                Ok(Producer::Dir(root.clone()))
            }
            CorpusSource::Manifest(path) => {
                let file = File::open(path)?;
                let dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
                Ok(Producer::Manifest {
                    dir,
                    reader: BufReader::new(file),
                })
            }
            CorpusSource::Paths(paths) => Ok(Producer::Paths(paths.clone().into_iter())),
        }
    }

    /// Streams every work unit into the queue. A send failing means every
    /// worker is gone (all panicked); the scope join will surface that,
    /// so sends here just stop.
    fn feed(&mut self, tx: SyncSender<Work>) {
        let mut idx = 0usize;
        let mut send = |path: PathBuf, walk_error: Option<String>| {
            let work = Work {
                idx,
                path,
                walk_error,
            };
            idx += 1;
            tx.send(work).is_ok()
        };
        match self {
            Producer::Dir(root) => {
                walk_sorted(root.clone(), &mut send);
            }
            Producer::Manifest { dir, reader } => {
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) => break,
                        Ok(_) => {
                            let entry = line.trim();
                            if entry.is_empty() || entry.starts_with('#') {
                                continue;
                            }
                            let path = dir.join(entry);
                            if !send(path, None) {
                                break;
                            }
                        }
                        Err(e) => {
                            // Position the failure where the line would
                            // have been, then stop: the reader's state
                            // after a mid-stream error is unknown.
                            send(PathBuf::from("<manifest>"), Some(e.to_string()));
                            break;
                        }
                    }
                }
            }
            Producer::Paths(paths) => {
                for path in paths {
                    if !send(path, None) {
                        break;
                    }
                }
            }
        }
    }
}

/// Depth-first sorted walk emitting every `*.xml` file. Directories that
/// fail to list become in-order [`ItemOutcome::ReadFailed`] items rather
/// than aborting the walk. Returns `false` once the queue is closed.
fn walk_sorted(dir: PathBuf, send: &mut impl FnMut(PathBuf, Option<String>) -> bool) -> bool {
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => return send(dir, Some(e.to_string())),
    };
    let mut names: Vec<PathBuf> = Vec::new();
    for entry in entries {
        match entry {
            Ok(entry) => names.push(entry.path()),
            Err(e) => {
                if !send(dir.clone(), Some(e.to_string())) {
                    return false;
                }
            }
        }
    }
    names.sort_unstable();
    for path in names {
        let alive = if path.is_dir() {
            walk_sorted(path, send)
        } else if path.extension().is_some_and(|e| e == "xml") {
            send(path, None)
        } else {
            true
        };
        if !alive {
            return false;
        }
    }
    true
}
