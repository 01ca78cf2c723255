//! The `edit_scripts` workload: in-memory purchase-order trees, each with a
//! seeded edit script, through `BatchEngine::validate_edited`.
//!
//! Throughput is a closed batch of all items; latency is one client
//! sending one item at a time as a 1-worker `validate_edited` call, which
//! runs inline. The traced run composes the same decision sequence from
//! public calls — static analysis, script analysis, Δ-apply, Δ-mods cast —
//! and its verdicts and counters must equal the batch's.

use crate::gen::{edit_plans, Pair, Route};
use crate::measure::{timed, Outcome};
use crate::run::{self, Config, EndToEnd, Layers, Plant};
use crate::trace::{NoTrace, Recorder, Tracer, ROOT};
use schemacast_core::{CastContext, CastOutcome, ModsValidator, ValidationStats};
use schemacast_engine::{BatchEngine, BatchReport, ItemOutcome, ItemReport};
use schemacast_tree::{DeltaDoc, Doc, Edit};
use std::time::Instant;

fn from_cast(outcome: CastOutcome) -> ItemOutcome {
    match outcome {
        CastOutcome::Valid => ItemOutcome::Valid,
        CastOutcome::Invalid => ItemOutcome::Invalid,
    }
}

/// One request, spanned: a one-item `validate_edited`'s sequence, which
/// starts with a fresh `ModsValidator` (and so a cold string-cast cache).
fn request<R: Recorder>(
    rec: &mut R,
    id: u32,
    ctx: &CastContext<'_>,
    doc: &Doc,
    edits: &[Edit],
    fallbacks: &mut u64,
) -> ItemReport {
    let root = rec.begin("request", ROOT, id);
    let mods = ModsValidator::new(ctx);
    let span = rec.begin("core.edit_static", root, id);
    let decided = ctx.validate_edited_static(doc, edits);
    rec.end(span);
    let decided = decided.or_else(|| {
        let span = rec.begin("core.edit_script", root, id);
        let decided = ctx.validate_edited_script(doc, edits);
        rec.end(span);
        decided
    });
    let report = match decided {
        Some((outcome, stats)) => ItemReport {
            outcome: from_cast(outcome),
            stats,
        },
        None => {
            *fallbacks += 1;
            let span = rec.begin("tree.apply", root, id);
            let mut dd = DeltaDoc::new(doc.clone());
            let applied = dd.apply_all(edits);
            rec.end(span);
            match applied {
                Err(e) => ItemReport {
                    outcome: ItemOutcome::EditFailed(e.to_string()),
                    stats: ValidationStats::default(),
                },
                Ok(()) => {
                    let span = rec.begin("core.mods_cast", root, id);
                    let (outcome, stats) = mods.validate_with_stats(&dd);
                    rec.end(span);
                    ItemReport {
                        outcome: from_cast(outcome),
                        stats,
                    }
                }
            }
        }
    };
    rec.end(root);
    report
}

/// Sends every item once, in order, through [`request`]; returns the
/// sweep's wall time and how many items took the Δ-mods fallback.
fn sweep<R: Recorder>(
    rec: &mut R,
    ctx: &CastContext<'_>,
    items: &[(Doc, Vec<Edit>)],
    mut replies: Option<&mut Vec<ItemReport>>,
) -> (f64, u64) {
    let started = Instant::now();
    let mut fallbacks = 0;
    for (i, (doc, edits)) in items.iter().enumerate() {
        let reply = request(rec, i as u32, ctx, doc, edits, &mut fallbacks);
        if let Some(r) = replies.as_deref_mut() {
            r.push(reply);
        }
    }
    (started.elapsed().as_secs_f64(), fallbacks)
}

/// Counts items attempted and wrong or failed verdicts.
fn check_verdicts<'r>(
    reports: impl ExactSizeIterator<Item = &'r ItemReport>,
    expected: &[bool],
    out: &mut Outcome,
    what: &str,
) {
    out.attempted += expected.len() as u64;
    let len = reports.len();
    let wrong = len.abs_diff(expected.len())
        + reports
            .zip(expected)
            .filter(|(r, &e)| match r.outcome {
                ItemOutcome::Valid => !e,
                ItemOutcome::Invalid => e,
                _ => true,
            })
            .count();
    if wrong > 0 {
        out.fail(
            wrong as u64,
            format!("{what}: {wrong} failed edits, missing items or wrong verdicts"),
        );
    }
}

/// Replies must equal the batch report item for item (wall-clock
/// counters zeroed).
fn check_parity(replies: &[ItemReport], reference: &BatchReport, out: &mut Outcome) {
    let (view, ..) = reference.deterministic_view();
    let strip = |mut s: ValidationStats| {
        s.index_build_micros = 0;
        s.cert_check_micros = 0;
        s
    };
    let diverged = replies.len().abs_diff(view.len())
        + replies
            .iter()
            .zip(&view)
            .filter(|(r, v)| r.outcome != v.outcome || strip(r.stats) != v.stats)
            .count();
    if diverged > 0 {
        out.fail(
            diverged as u64,
            format!("request/batch parity: {diverged} items differ from validate_edited"),
        );
    }
}

/// Rounds a run makes at least.
const MIN_ROUNDS: usize = 5;

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let n = cfg.scale.edit_items;
    let (plans, mismatches) = edit_plans(cfg.seed, n, true);
    out.attempted += n as u64;
    if mismatches > 0 {
        out.fail(
            mismatches as u64,
            format!("{mismatches} edit items disagree with the full-validation oracle"),
        );
    }
    let mut expected: Vec<bool> = plans.iter().map(|p| p.expected).collect();
    if cfg.plant == Some(Plant::WrongExpectation) {
        expected[0] = !expected[0];
    }
    let route_count = |r: Route| plans.iter().filter(|p| p.route == r).count().to_string();
    out.provenance = crate::measure::provenance(
        cfg.workload.name(),
        cfg.seed,
        &[
            ("items", n.to_string()),
            (
                "total_bytes",
                plans
                    .iter()
                    .map(|p| p.text.len())
                    .sum::<usize>()
                    .to_string(),
            ),
            ("mmap_byte_share", String::from("0")),
            ("route_set_quantity", route_count(Route::SetQuantity)),
            ("route_drop_ship_date", route_count(Route::DropShipDate)),
            ("route_drop_bill_to", route_count(Route::DropBillTo)),
            ("route_drop_comment", route_count(Route::DropComment)),
            ("route_insert_comment", route_count(Route::InsertComment)),
            ("route_insert_item", route_count(Route::InsertItem)),
            ("route_insert_two_items", route_count(Route::InsertTwoItems)),
        ],
    );

    let mut compiled = run::compile(Pair::BillToComment);
    let items: Vec<(Doc, Vec<Edit>)> = plans
        .iter()
        .filter_map(|p| p.bind(&mut compiled.session.alphabet))
        .collect();
    drop(plans);
    if items.len() != n {
        out.fail(
            (n - items.len()) as u64,
            format!("{} edit items did not bind", n - items.len()),
        );
    }
    let ctx = CastContext::new(
        &compiled.source,
        &compiled.target,
        &compiled.session.alphabet,
    );
    let wide = BatchEngine::new(&ctx);
    wide.warm_up();
    let one = BatchEngine::with_workers(&ctx, 1);

    let mut e2e = EndToEnd::default();
    let mut layers = Layers {
        items: n as u64,
        ..Layers::default()
    };
    let mut log = None;
    let rounds = run::rounds(cfg.seconds, MIN_ROUNDS, |round| {
        e2e.setups.time(Pair::BillToComment);
        let mut reference = None;
        for (which, engine) in [&wide, &one].into_iter().enumerate() {
            let (secs, report) = timed(|| engine.validate_edited(&items));
            check_verdicts(report.items.iter(), &expected, &mut out, "edit batch");
            [&mut e2e.wide, &mut e2e.one][which].add(n, secs);
            reference = Some(report);
        }
        let mut replies: Vec<ItemReport> = Vec::new();
        if cfg.trace {
            // Alternate which sweep goes first, so neither gets the warmer caches.
            let mut tracer = Tracer::new();
            for traced in [round % 2 == 1, round % 2 == 0] {
                if traced {
                    let first = (round == 0).then_some(&mut replies);
                    let (secs, fallbacks) = sweep(&mut tracer, &ctx, &items, first);
                    layers.traced_wall += secs;
                    layers.traced_sweeps += 1;
                    layers.mods_fallbacks = fallbacks;
                } else {
                    layers.untraced_wall += sweep(&mut NoTrace, &ctx, &items, None).0;
                }
            }
            layers.profile.fold(&tracer);
            log.get_or_insert(tracer);
        } else {
            for item in &items {
                let t = Instant::now();
                let report = one.validate_edited(std::slice::from_ref(item));
                e2e.latencies.push(t.elapsed().as_nanos() as u64);
                if round == 0 {
                    replies.extend(report.items);
                }
            }
        }
        if round == 0 {
            check_verdicts(replies.iter(), &expected, &mut out, "edit requests");
            check_parity(&replies, &reference.expect("two passes ran"), &mut out);
            for r in &replies {
                layers.stats += r.stats;
            }
        }
        Ok(())
    });
    let rounds = rounds.expect("in-memory rounds do no I/O");
    // check_verdicts counted round 0's requests.
    let sweeps = if cfg.trace { 2 } else { 1 };
    out.attempted += (rounds * sweeps * n - n) as u64;

    if !cfg.trace {
        for _ in 0..run::RSS_PROBES {
            match run::probe_rss(cfg) {
                Ok(mb) => e2e.rss.push(mb),
                Err(e) => out.fail(1, e.to_string()),
            }
        }
        run::emit_end_to_end(&mut out, e2e);
        return out;
    }
    layers.setups = e2e.setups;
    layers.scaling = e2e.wide.rate() / e2e.one.rate();
    run::emit_layers(&mut out, &layers);
    if let (Some(path), Some(log)) = (&cfg.span_log, log) {
        if let Err(e) = std::fs::write(path, format!("# {}\n{}", out.provenance, log.to_csv())) {
            out.fail(1, format!("span log not written: {e}"));
        }
    }
    out
}

/// The body of a peak-RSS probe process: build the seeded items (without
/// the oracle), set up, run one nproc-worker batch, return `VmHWM`.
pub fn rss_pass(seed: u64, n: usize) -> f64 {
    let (plans, _) = edit_plans(seed, n, false);
    let mut compiled = run::compile(Pair::BillToComment);
    let items: Vec<(Doc, Vec<Edit>)> = plans
        .iter()
        .filter_map(|p| p.bind(&mut compiled.session.alphabet))
        .collect();
    drop(plans);
    let ctx = CastContext::new(
        &compiled.source,
        &compiled.target,
        &compiled.session.alphabet,
    );
    let engine = BatchEngine::new(&ctx);
    engine.warm_up();
    std::hint::black_box(engine.validate_edited(&items));
    crate::measure::peak_rss_mb()
}
