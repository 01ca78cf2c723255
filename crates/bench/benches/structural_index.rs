//! Stage-1 structural indexer microbenchmarks (MB/s) — the components
//! behind the `stream_throughput` numbers, measured in isolation.
//!
//! * `build` — one SWAR classification pass producing the structural tape
//!   (a reused [`StructuralIndex`], so this is the steady-state batch
//!   cost: zero allocation).
//! * `tape_parse` — full tokenization through [`PullParser`] running off
//!   the tape (index built per iteration, as `validate_str` does).
//! * `tape_step` — the same tokenization through the step cursor
//!   ([`PullParser::step`]) the streaming validator drives; the gap to
//!   `tape_parse` is what the event adapter costs.
//! * `scalar_parse` — the preserved per-byte reference lexer
//!   ([`ScalarParser`]) over the same bytes; the gap to `tape_parse` is
//!   what stage-1 classification buys the tokenizer.
//! * `tape_skip` — parse the root, then [`PullParser::skip_subtree`] every
//!   child: with the tape each skip is an O(1) hop, so this approaches
//!   the `build` cost no matter how large the subtrees are.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use schemacast_regex::Alphabet;
use schemacast_workload::purchase_order as po;
use schemacast_xml::pull::PullEvent;
use schemacast_xml::{PullParser, ScalarParser, StructuralIndex};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut alphabet = Alphabet::new();
    let n = 1000usize;
    let text = po::document_xml(&mut alphabet, n);

    let mut group = c.benchmark_group("structural_index");
    group.throughput(Throughput::Bytes(text.len() as u64));

    let mut tape = StructuralIndex::build(&text);
    assert!(tape.error().is_none(), "corpus must be well-formed");
    group.bench_with_input(BenchmarkId::new("build", n), &text, |b, t| {
        b.iter(|| {
            tape.rebuild(black_box(t));
            black_box(tape.len())
        })
    });

    group.bench_with_input(BenchmarkId::new("tape_parse", n), &text, |b, t| {
        b.iter(|| {
            let mut events = 0usize;
            for ev in PullParser::new(black_box(t)) {
                ev.expect("well-formed");
                events += 1;
            }
            black_box(events)
        })
    });

    group.bench_with_input(BenchmarkId::new("tape_step", n), &text, |b, t| {
        b.iter(|| {
            let mut parser = PullParser::new(black_box(t));
            let mut steps = 0usize;
            while parser.step().expect("well-formed").is_some() {
                steps += 1;
            }
            black_box(steps)
        })
    });

    group.bench_with_input(BenchmarkId::new("scalar_parse", n), &text, |b, t| {
        b.iter(|| {
            let mut events = 0usize;
            for ev in ScalarParser::new(black_box(t)) {
                ev.expect("well-formed");
                events += 1;
            }
            black_box(events)
        })
    });

    group.bench_with_input(BenchmarkId::new("tape_skip", n), &text, |b, t| {
        b.iter(|| {
            let mut parser = PullParser::new(black_box(t));
            let mut skipped = 0usize;
            while let Some(ev) = parser.next() {
                if matches!(ev.expect("well-formed"), PullEvent::Start { .. }) && parser.depth() > 1
                {
                    skipped += parser.skip_subtree().expect("well-formed").hops;
                }
            }
            black_box(skipped)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
