//! Differential property: the tape-direct streaming cast ≡ the generic
//! event path, on well-formed and malformed input alike.
//!
//! Under [`CastOptions::baseline`] nothing is skipped, so
//! [`StreamingCast::validate_str`] (the step cursor over the structural
//! tape) and [`StreamingCast::validate_events`] over [`PullParser`] events
//! must consume the same tokens and reach the same result: the same
//! outcome and decision counters, or the same [`XmlError`] with its offset,
//! line, column and message. Only the tape's own instrumentation
//! (`tape_events`, `index_build_micros`) is exempt, since the event path
//! builds no tape of its own to count.
//!
//! Inputs: purchase orders (compact and pretty) cut at every char
//! boundary, purchase orders with random structural byte mutations, and
//! the adversarial and malformed payloads of the XML crate's tape suite.
//! The random sweep runs `PROPTEST_CASES` cases when that variable is set
//! (CI's fuzz-smoke job sets it), 256 otherwise.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast::core::{CastContext, CastOptions, CastOutcome, StreamingCast, ValidationStats};
use schemacast::regex::Alphabet;
use schemacast::schema::{AbstractSchema, Session};
use schemacast::workload::purchase_order as po;
use schemacast::xml::{to_pretty_string, to_string, PullParser, XmlError};

/// The schemas and documents every check runs against.
struct Fixture {
    session: Session,
    pairs: Vec<(AbstractSchema, AbstractSchema)>,
    docs: Vec<String>,
}

fn fixture() -> Fixture {
    let mut session = Session::new();
    let src1 = session.parse_xsd(&po::source_xsd()).unwrap();
    let src2 = session.parse_xsd(&po::source_maxex200_xsd()).unwrap();
    let target = session.parse_xsd(&po::target_xsd()).unwrap();
    let ab = &mut session.alphabet;
    let trees = [
        po::generate_document(ab, 3, true),
        po::generate_document(ab, 2, false),
        po::generate_document_with(ab, 3, true, |i| if i == 1 { 150 } else { 7 }),
    ];
    let mut docs = Vec::new();
    for doc in &trees {
        let xml = doc.to_xml(ab);
        docs.push(to_string(&xml));
        docs.push(to_pretty_string(&xml));
    }
    let pairs = vec![(src1, target.clone()), (src2, target)];
    Fixture {
        session,
        pairs,
        docs,
    }
}

type Verdict = Result<(CastOutcome, ValidationStats), XmlError>;

/// Both paths on one input, the tape's own counters cleared.
fn both(ctx: &CastContext<'_>, ab: &Alphabet, text: &str) -> (Verdict, Verdict) {
    let sc = StreamingCast::new(ctx);
    let tape = sc.validate_str(text, ab).map(|(outcome, mut stats)| {
        stats.tape_events = 0;
        stats.index_build_micros = 0;
        (outcome, stats)
    });
    let events = sc.validate_events(PullParser::new(text), ab);
    (tape, events)
}

/// What the last pair concluded, for the anti-vacuity tallies.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Error,
    Valid,
    Invalid,
}

/// Checks both pairs; returns what the last one concluded.
fn assert_paths_agree(f: &Fixture, text: &str) -> Kind {
    let ab = &f.session.alphabet;
    let mut kind = Kind::Error;
    for (source, target) in &f.pairs {
        let ctx = CastContext::with_options(source, target, ab, CastOptions::baseline());
        let (tape, events) = both(&ctx, ab, text);
        assert_eq!(tape, events, "paths diverge on {text:?}");
        kind = match tape {
            Err(_) => Kind::Error,
            Ok((CastOutcome::Valid, _)) => Kind::Valid,
            Ok((CastOutcome::Invalid, _)) => Kind::Invalid,
        };
    }
    kind
}

/// Counts of (errors, valid, invalid) conclusions.
fn tally(kinds: impl IntoIterator<Item = Kind>) -> (usize, usize, usize) {
    let kinds: Vec<Kind> = kinds.into_iter().collect();
    let count = |k| kinds.iter().filter(|&&x| x == k).count();
    (count(Kind::Error), count(Kind::Valid), count(Kind::Invalid))
}

/// Bytes the structural classifier keys on.
const STRUCTURAL_BYTES: &[u8] = b"<>&\"']-/!?=\0 ";

fn mutate(seed: &str, rng: &mut SmallRng) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        match rng.gen_range(0..3u32) {
            0 => {
                let at = rng.gen_range(0..bytes.len());
                if bytes[at].is_ascii() {
                    bytes[at] = STRUCTURAL_BYTES[rng.gen_range(0..STRUCTURAL_BYTES.len())];
                }
            }
            1 => {
                let frags: &[&[u8]] = &[
                    b"<!--",
                    b"-->",
                    b"<![CDATA[",
                    b"]]>",
                    b"<?",
                    b"?>",
                    b"</",
                    b"/>",
                    b"&#",
                    b"&amp;",
                    b"='",
                    b"<x>",
                    b"</x>",
                    b" a='1'",
                ];
                let frag = frags[rng.gen_range(0..frags.len())];
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(at..at, frag.iter().copied());
            }
            _ => {
                let at = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(1..=4usize).min(bytes.len() - at);
                bytes.drain(at..at + len);
            }
        }
    }
    // Keep the valid UTF-8 prefix: the parsers take `&str`.
    match String::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => {
            let valid_to = e.utf8_error().valid_up_to();
            String::from_utf8_lossy(&e.into_bytes()[..valid_to]).into_owned()
        }
    }
}

/// `PROPTEST_CASES` if set, else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn truncated_purchase_orders() {
    let f = fixture();
    let mut verdicts = Vec::new();
    for doc in &f.docs {
        for end in (0..=doc.len()).filter(|&e| doc.is_char_boundary(e)) {
            verdicts.push(assert_paths_agree(&f, &doc[..end]));
        }
    }
    let checked = verdicts.len();
    assert!(
        checked > 1000,
        "truncation sweep collapsed ({checked} cases)"
    );
    // Most cuts are malformed; the cut at the end is not.
    let (errors, valid, invalid) = tally(verdicts);
    assert!(
        errors > 1000 && valid + invalid >= 6,
        "{errors}/{valid}/{invalid}"
    );
}

/// Anti-vacuity for the random sweep: a deterministic slice of the same
/// mutations yields errors, valid and invalid verdicts alike.
#[test]
fn mutations_reach_every_outcome() {
    let f = fixture();
    let verdicts = (0..300u64).map(|seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        assert_paths_agree(&f, &mutate(&f.docs[seed as usize % 6], &mut rng))
    });
    let (errors, valid, invalid) = tally(verdicts);
    assert!(
        errors >= 30 && valid >= 3 && invalid >= 30,
        "{errors}/{valid}/{invalid}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    #[test]
    fn mutated_purchase_orders(doc_ix in 0usize..6, rng_seed in 0u64..1_000_000) {
        let f = fixture();
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        assert_paths_agree(&f, &mutate(&f.docs[doc_ix], &mut rng));
    }
}

/// The handcrafted and malformed payloads of the XML crate's tape suite,
/// bare and spliced into the first `productName` of a purchase order, so
/// the validator is inside the document when it meets them.
#[test]
fn adversarial_payloads() {
    const PAYLOADS: &[&str] = &[
        "<r><s><![CDATA[</s>]]></s></r>",
        "<r><![CDATA[a]]]><![CDATA[]>b]]></r>",
        "<r><!-- \"</r>\" 'still - a - comment' --></r>",
        "<r><?target \"</r>\" <fake> ?></r>",
        "<r a=\"x&amp;y&#33;\">one &lt; two &#x41;</r>",
        "<r><a/><b x='1'/><c  /></r>",
        "<!DOCTYPE r [ <!ELEMENT r ANY> ]><r/>",
        "  \n<?xml version=\"1.0\"?>\n  <r/>\n  ",
        "<r>a<!--x-->b<![CDATA[c]]>d<?p?>e</r>",
        "<r>]]></r>",
        "",
        "   ",
        "no markup at all",
        "<",
        "<r",
        "<r>",
        "<r a=>",
        "<r a='unterminated>",
        "<r></x>",
        "<r></r",
        "<r><!-- unterminated",
        "<r><![CDATA[ unterminated",
        "<![CDATA[outside prolog]]>",
        "<r><?pi unterminated",
        "<!DOCTYPE r",
        "<!DOCTYPE r [ <!ELEMENT r ANY>",
        "<r/><r/>",
        "<r>&unknown;</r>",
        "<r>&#xZZ;</r>",
        "<r>&#1114112;</r>",
        "</orphan>",
        "text<r/>",
        "<r/>trailing",
        "<>",
        "</>",
        "<r><a></r></a>",
    ];
    let f = fixture();
    for payload in PAYLOADS {
        assert_paths_agree(&f, payload);
        for doc in &f.docs {
            let at = doc.find("<productName>").expect("items have names") + "<productName>".len();
            let mut spliced = doc.clone();
            spliced.insert_str(at, payload);
            assert_paths_agree(&f, &spliced);
        }
    }
}
