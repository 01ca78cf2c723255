//! Exact verdicts and counters of the streaming cast, case by case.
//!
//! [`StreamingCast::validate_str`] is pinned on the Figure 1/2 purchase
//! orders of Experiments 1 and 2, serialized compact and pretty, under each
//! [`CastOptions`] preset. Every field of [`ValidationStats`] is pinned
//! except the wall-clock `index_build_micros`: the decision counters and the
//! lexical ones (`bytes_skipped`, `events_avoided`, `tape_events`,
//! `tape_skip_hops`). A change to the tokenizer or to the streaming validator
//! must leave every row unchanged. On a mismatch the test prints the whole
//! computed table in the syntax of [`EXPECTED`].

use schemacast::core::{CastContext, CastOptions, CastOutcome, StreamingCast, ValidationStats};
use schemacast::schema::Session;
use schemacast::workload::purchase_order as po;
use schemacast::xml::{to_pretty_string, to_string};

/// Every counter but `index_build_micros`, in declaration order: nodes
/// visited, content symbols scanned, subsumed skips, disjoint rejects, IDA
/// early accepts, IDA early rejects, full validations, value checks, static
/// skips, static rejects, script skips, script rejects, bytes skipped,
/// events avoided, tape events, tape skip hops, certs emitted, certs
/// checked, cert check micros.
type Counts = [usize; 19];

fn counts(s: &ValidationStats) -> Counts {
    [
        s.nodes_visited,
        s.content_symbols_scanned,
        s.subsumed_skips,
        s.disjoint_rejects,
        s.ida_early_accepts,
        s.ida_early_rejects,
        s.full_validations,
        s.value_checks,
        s.static_skips,
        s.static_rejects,
        s.script_skips,
        s.script_rejects,
        s.bytes_skipped,
        s.events_avoided,
        s.tape_events,
        s.tape_skip_hops,
        s.certs_emitted,
        s.certs_checked,
        s.cert_check_micros,
    ]
}

type Row = (String, bool, Counts);

fn rows() -> Vec<Row> {
    let mut session = Session::new();
    let src1 = session.parse_xsd(&po::source_xsd()).unwrap();
    let src2 = session.parse_xsd(&po::source_maxex200_xsd()).unwrap();
    let target = session.parse_xsd(&po::target_xsd()).unwrap();
    let ab = &mut session.alphabet;
    let exp1 = [
        ("bill", po::generate_document(ab, 20, true)),
        ("nobill", po::generate_document(ab, 20, false)),
    ];
    let exp2 = [
        (
            "ok",
            po::generate_document_with(ab, 20, true, |i| 1 + (i as u32 % 99)),
        ),
        (
            "bad",
            po::generate_document_with(ab, 20, true, |i| if i == 13 { 150 } else { 1 + i as u32 }),
        ),
    ];
    let presets = [
        ("default", CastOptions::default()),
        ("prototype", CastOptions::paper_prototype()),
        ("baseline", CastOptions::baseline()),
    ];
    let mut rows = Vec::new();
    for (exp, source, docs) in [("exp1", &src1, &exp1), ("exp2", &src2, &exp2)] {
        for (preset, opts) in presets {
            let ctx = CastContext::with_options(source, &target, ab, opts);
            let sc = StreamingCast::new(&ctx);
            for (doc_name, doc) in docs {
                let xml = doc.to_xml(ab);
                for (form, text) in [
                    ("compact", to_string(&xml)),
                    ("pretty", to_pretty_string(&xml)),
                ] {
                    let (outcome, stats) = sc.validate_str(&text, ab).expect("well-formed");
                    rows.push((
                        format!("{exp}/{doc_name}/{form}/{preset}"),
                        outcome == CastOutcome::Valid,
                        counts(&stats),
                    ));
                }
            }
        }
    }
    rows
}

fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for (name, valid, c) in rows {
        out.push_str(&format!("    (\"{name}\", {valid}, {c:?}),\n"));
    }
    out
}

#[test]
fn streaming_cast_keeps_its_exact_counters() {
    let rows = rows();
    let table = render(&rows);
    assert_eq!(rows.len(), EXPECTED.len(), "row count; computed:\n{table}");
    for ((name, valid, c), &(want_name, want_valid, want)) in rows.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "row order; computed:\n{table}");
        assert_eq!(
            (*valid, *c),
            (want_valid, want),
            "row {name}; computed:\n{table}"
        );
    }
}

/// (case, verdict, counters in the order of [`Counts`]).
#[rustfmt::skip]
const EXPECTED: &[(&str, bool, Counts)] = &[
    ("exp1/bill/compact/default", true, [4, 2, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2609, 207, 294, 3, 0, 0, 0]),
    ("exp1/bill/pretty/default", true, [4, 2, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3368, 207, 425, 3, 0, 0, 0]),
    ("exp1/nobill/compact/default", false, [2, 2, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 144, 13, 274, 1, 0, 0, 0]),
    ("exp1/nobill/pretty/default", false, [2, 2, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 177, 13, 397, 1, 0, 0, 0]),
    ("exp1/bill/compact/prototype", true, [4, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2609, 207, 294, 3, 0, 0, 0]),
    ("exp1/bill/pretty/prototype", true, [4, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3368, 207, 425, 3, 0, 0, 0]),
    ("exp1/nobill/compact/prototype", false, [2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 144, 13, 274, 1, 0, 0, 0]),
    ("exp1/nobill/pretty/prototype", false, [2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 177, 13, 397, 1, 0, 0, 0]),
    ("exp1/bill/compact/baseline", true, [106, 105, 0, 0, 0, 0, 0, 82, 0, 0, 0, 0, 0, 0, 294, 0, 0, 0, 0]),
    ("exp1/bill/pretty/baseline", true, [106, 105, 0, 0, 0, 0, 0, 82, 0, 0, 0, 0, 0, 0, 425, 0, 0, 0, 0]),
    ("exp1/nobill/compact/baseline", false, [8, 8, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 274, 0, 0, 0, 0]),
    ("exp1/nobill/pretty/baseline", false, [8, 8, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 397, 0, 0, 0, 0]),
    ("exp2/ok/compact/default", true, [94, 0, 52, 0, 22, 0, 0, 20, 0, 0, 0, 0, 1341, 76, 294, 52, 0, 0, 0]),
    ("exp2/ok/pretty/default", true, [94, 0, 52, 0, 22, 0, 0, 20, 0, 0, 0, 0, 1407, 76, 425, 52, 0, 0, 0]),
    ("exp2/bad/compact/default", false, [66, 0, 36, 0, 16, 0, 0, 14, 0, 0, 0, 0, 1007, 60, 294, 36, 0, 0, 0]),
    ("exp2/bad/pretty/default", false, [66, 0, 36, 0, 16, 0, 0, 14, 0, 0, 0, 0, 1073, 60, 425, 36, 0, 0, 0]),
    ("exp2/ok/compact/prototype", true, [94, 93, 52, 0, 0, 0, 0, 20, 0, 0, 0, 0, 1341, 76, 294, 52, 0, 0, 0]),
    ("exp2/ok/pretty/prototype", true, [94, 93, 52, 0, 0, 0, 0, 20, 0, 0, 0, 0, 1407, 76, 425, 52, 0, 0, 0]),
    ("exp2/bad/compact/prototype", false, [66, 65, 36, 0, 0, 0, 0, 14, 0, 0, 0, 0, 1007, 60, 294, 36, 0, 0, 0]),
    ("exp2/bad/pretty/prototype", false, [66, 65, 36, 0, 0, 0, 0, 14, 0, 0, 0, 0, 1073, 60, 425, 36, 0, 0, 0]),
    ("exp2/ok/compact/baseline", true, [106, 105, 0, 0, 0, 0, 0, 82, 0, 0, 0, 0, 0, 0, 294, 0, 0, 0, 0]),
    ("exp2/ok/pretty/baseline", true, [106, 105, 0, 0, 0, 0, 0, 82, 0, 0, 0, 0, 0, 0, 425, 0, 0, 0, 0]),
    ("exp2/bad/compact/baseline", false, [78, 77, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 294, 0, 0, 0, 0]),
    ("exp2/bad/pretty/baseline", false, [78, 77, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 425, 0, 0, 0, 0]),
];
