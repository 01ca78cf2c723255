//! Document depth never consumes call-stack frames in the tree walks.
//!
//! A 200 000-deep element chain under a schema pair that is neither
//! subsumed nor disjoint forces every walk down the whole chain: the §3.2
//! cast, the baseline full validator, the exemption walk, the §3.3 Δ-mods
//! walk with an edit at the deepest leaf, and the explainer. Each must
//! return a verdict (a recursive walk aborts the process on stack
//! overflow long before this depth).

use schemacast::core::{
    explain, validate_explained, CastContext, FailureKind, FullValidator, ModsValidator,
};
use schemacast::regex::Alphabet;
use schemacast::schema::{AbstractSchema, SchemaBuilder, SimpleType};
use schemacast::tree::{DeltaDoc, Doc, Edit, NodeId};

const DEPTH: usize = 200_000;

/// `n` elements nest as `(n?)`; the source also allows a trailing `x`.
fn chain_schema(ab: &mut Alphabet, allow_x: bool) -> AbstractSchema {
    let mut b = SchemaBuilder::new(ab);
    let text = b.simple("Text", SimpleType::string()).unwrap();
    let node = b.declare("Node").unwrap();
    if allow_x {
        b.complex(node, "(n?, x?)", &[("n", node), ("x", text)])
            .unwrap();
    } else {
        b.complex(node, "(n?)", &[("n", node)]).unwrap();
    }
    b.root("n", node);
    b.finish().unwrap()
}

/// A chain of `DEPTH` nested `n` elements whose deepest one holds an
/// (empty) `x`; returns the document and that `x`.
fn chain(ab: &mut Alphabet) -> (Doc, NodeId) {
    let n = ab.intern("n");
    let x = ab.intern("x");
    let mut doc = Doc::new(n);
    let mut cur = doc.root();
    for _ in 1..DEPTH {
        cur = doc.add_element(cur, n);
    }
    let leaf = doc.add_element(cur, x);
    (doc, leaf)
}

#[test]
fn every_walk_survives_a_200k_deep_chain() {
    let mut ab = Alphabet::new();
    let source = chain_schema(&mut ab, true);
    let target = chain_schema(&mut ab, false);
    let (doc, leaf) = chain(&mut ab);
    let ctx = CastContext::new(&source, &target, &ab);
    let n = ab.lookup("n").unwrap();
    let (s, t) = (source.root_type(n).unwrap(), target.root_type(n).unwrap());
    assert!(!ctx.relations().subsumed(s, t));
    assert!(!ctx.relations().disjoint(s, t));

    // The deepest `x` is source-valid but not target-valid.
    assert!(FullValidator::new(&source).validate(&doc).is_valid());
    assert!(!FullValidator::new(&target).validate(&doc).is_valid());
    let (outcome, stats) = ctx.validate_with_stats(&doc);
    assert!(!outcome.is_valid());
    assert_eq!(stats.nodes_visited, DEPTH);

    // Exempting the leaf still leaves its parent's child word `x` to check.
    let (outcome, stats) = ctx.validate_with_exemptions(&doc, &[leaf]);
    assert!(!outcome.is_valid());
    assert_eq!(stats.nodes_visited, DEPTH);

    // Deleting the leaf repairs the document; the Δ walk follows the
    // modified path all the way down.
    let mut dd = DeltaDoc::new(doc.clone());
    dd.apply(&Edit::DeleteLeaf { node: leaf }).unwrap();
    let (outcome, stats) = ModsValidator::new(&ctx).validate_with_stats(&dd);
    assert!(outcome.is_valid());
    assert_eq!(stats.nodes_visited, DEPTH);

    // The explainer names the deepest `n` and its content model.
    let err = explain(&ctx, &doc, &ab).unwrap_err();
    assert!(
        matches!(&err.kind, FailureKind::ContentModel { found, .. } if found == &["x"]),
        "{:?}",
        err.kind
    );
    assert_eq!(err.path.matches("/n").count(), DEPTH);
    assert!(err.path.ends_with("/n[0]"));
    assert_eq!(validate_explained(&ctx, &doc, &ab).unwrap_err(), err);
}
