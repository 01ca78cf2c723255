//! Schema-cast validation *with* modifications (§3.3).
//!
//! Validates a Δ-encoded edited tree `T'` against the target schema,
//! exploiting (a) the `modified(v)` trie to fall back to the plain cast
//! algorithm on untouched subtrees, and (b) the string
//! revalidation-with-modifications machinery of §4.3 for the content models
//! of nodes whose child lists changed: the changed region is scanned with
//! `b_immed` and the unchanged remainder with the product IDA, entering at
//! the state pair obtained from the old and new prefixes (Prop. 2).

use crate::cast::CastContext;
use crate::idacache::ShardedCache;
use crate::stats::{CastOutcome, ValidationStats};
use crate::walk::{Policy, Route, Walker};
use loomlite::sync::Arc;
use schemacast_automata::StringCast;
use schemacast_regex::Sym;
use schemacast_schema::TypeId;
use schemacast_tree::{DeltaDoc, DeltaState, NodeId, ProjLabel, TrieCursor};

/// Validator for edited documents over a preprocessed [`CastContext`].
pub struct ModsValidator<'a, 'b> {
    ctx: &'a CastContext<'b>,
    /// Per type pair: preprocessed string-cast machinery (with reverse
    /// automata) for content-model revalidation after edits, in the same
    /// sharded publish-once cache the product IDAs use.
    string_casts: ShardedCache<StringCast>,
}

impl<'a, 'b> ModsValidator<'a, 'b> {
    /// Wraps a cast context.
    pub fn new(ctx: &'a CastContext<'b>) -> Self {
        ModsValidator {
            ctx,
            string_casts: ShardedCache::new(),
        }
    }

    /// Decides whether the edited document is valid with respect to the
    /// target schema, given that the *original* document was valid with
    /// respect to the source schema.
    pub fn validate(&self, dd: &DeltaDoc) -> CastOutcome {
        self.validate_with_stats(dd).0
    }

    /// Like [`ModsValidator::validate`], with cost counters.
    pub fn validate_with_stats(&self, dd: &DeltaDoc) -> (CastOutcome, ValidationStats) {
        let mut stats = ValidationStats::default();
        let doc = dd.doc();
        let root = doc.root();
        let Some(ProjLabel::Elem(new_label)) = dd.proj_new(root) else {
            return (CastOutcome::Invalid, stats);
        };
        let Some(tgt) = self.ctx.target().root_type(new_label) else {
            return (CastOutcome::Invalid, stats);
        };
        let src = match dd.proj_old(root) {
            Some(ProjLabel::Elem(old_label)) => self.ctx.source().root_type(old_label),
            _ => None,
        };
        let policy = Edited { mods: self, dd };
        let cursor = dd.trie().cursor();
        let walker = Walker::new(self.ctx, doc, &policy);
        let ok = walker.walk(root, src, tgt, cursor, &mut stats).is_ok();
        (CastOutcome::from_bool(ok), stats)
    }

    fn string_cast(&self, src: TypeId, tgt: TypeId) -> Arc<StringCast> {
        self.string_casts.get_or_insert_with((src, tgt), || {
            let a = self
                .ctx
                .source()
                .type_def(src)
                .as_complex()
                .expect("string cast requires complex source")
                .dfa
                .clone();
            let b = self
                .ctx
                .target()
                .type_def(tgt)
                .as_complex()
                .expect("string cast requires complex target")
                .dfa
                .clone();
            StringCast::new(a, b).with_reverse()
        })
    }
}

/// The §3.3 walk policy over the new view of a Δ-encoded tree:
///
/// * inserted subtrees carry no prior knowledge and are validated against
///   the target alone;
/// * untouched subtrees (`modified(v)` false) get the plain §3.2 cast;
/// * every other node is present in both versions with an edit at or
///   below it: it is checked without pruning, and its child word is
///   revalidated against the old one with the §4.3 machinery.
struct Edited<'v, 'a, 'b> {
    mods: &'v ModsValidator<'a, 'b>,
    dd: &'v DeltaDoc,
}

impl<'v> Policy for Edited<'v, '_, '_> {
    type Mark = TrieCursor<'v>;

    fn route(&self, node: NodeId, src: Option<TypeId>, cursor: TrieCursor<'v>) -> Route {
        if matches!(self.dd.delta(node), DeltaState::Inserted) {
            Route::Full
        } else if cursor.subtree_modified() {
            Route::Modified
        } else if src.is_some() {
            Route::Cast { prune: true }
        } else {
            Route::Full
        }
    }

    /// Navigates the trie by the child's index in the *full* child list
    /// (Dewey coordinates).
    fn child_mark(&self, cursor: TrieCursor<'v>, index: usize) -> TrieCursor<'v> {
        cursor.child(index as u32)
    }

    fn deleted(&self, node: NodeId) -> bool {
        matches!(self.dd.delta(node), DeltaState::Deleted)
    }

    fn old_label(&self, node: NodeId, label: Sym) -> Option<Sym> {
        match self.dd.delta(node) {
            DeltaState::Inserted => None,
            DeltaState::Relabeled { old } => Some(old),
            _ => Some(label),
        }
    }

    /// Scans the changed region with `b_immed` and the unchanged remainder
    /// with the product IDA, when the old children are all elements.
    fn revalidate(
        &self,
        node: NodeId,
        src: TypeId,
        tgt: TypeId,
        new: &[Sym],
        stats: &mut ValidationStats,
    ) -> Option<bool> {
        let doc = self.dd.doc();
        let mut old: Vec<Sym> = Vec::with_capacity(new.len());
        for c in self.dd.old_children(node) {
            if doc.is_ignorable_ws(c) {
                continue;
            }
            match self.dd.proj_old(c) {
                Some(ProjLabel::Elem(l)) => old.push(l),
                _ => return None,
            }
        }
        let d = self
            .mods
            .string_cast(src, tgt)
            .revalidate_with_mods(&old, new);
        stats.content_symbols_scanned += d.symbols_scanned;
        Some(d.accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::Alphabet;
    use schemacast_schema::{AbstractSchema, SchemaBuilder, SimpleType};
    use schemacast_tree::{Doc, Edit};

    fn schema(ab: &mut Alphabet, bill_optional: bool) -> AbstractSchema {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let addr = b.declare("USAddress").unwrap();
        b.complex(addr, "(name, city)", &[("name", text), ("city", text)])
            .unwrap();
        let item = b.declare("Item").unwrap();
        b.complex(item, "(sku, qty)", &[("sku", text), ("qty", text)])
            .unwrap();
        let items = b.declare("Items").unwrap();
        b.complex(items, "item*", &[("item", item)]).unwrap();
        let po = b.declare("POType").unwrap();
        let model = if bill_optional {
            "(shipTo, billTo?, items)"
        } else {
            "(shipTo, billTo, items)"
        };
        b.complex(
            po,
            model,
            &[("shipTo", addr), ("billTo", addr), ("items", items)],
        )
        .unwrap();
        b.root("purchaseOrder", po);
        b.finish().unwrap()
    }

    struct Fx {
        source: AbstractSchema,
        target: AbstractSchema,
        ab: Alphabet,
    }

    fn fx() -> Fx {
        let mut ab = Alphabet::new();
        let source = schema(&mut ab, true);
        let target = schema(&mut ab, false);
        Fx { source, target, ab }
    }

    fn doc(ab: &mut Alphabet, with_bill: bool, items: usize) -> Doc {
        let po = ab.intern("purchaseOrder");
        let ship = ab.intern("shipTo");
        let bill = ab.intern("billTo");
        let items_l = ab.intern("items");
        let item = ab.intern("item");
        let sku = ab.intern("sku");
        let qty = ab.intern("qty");
        let name = ab.intern("name");
        let city = ab.intern("city");
        let mut d = Doc::new(po);
        for (label, yes) in [(ship, true), (bill, with_bill)] {
            if !yes {
                continue;
            }
            let a = d.add_element(d.root(), label);
            for l in [name, city] {
                let e = d.add_element(a, l);
                d.add_text(e, "v");
            }
        }
        let il = d.add_element(d.root(), items_l);
        for k in 0..items {
            let i = d.add_element(il, item);
            let e = d.add_element(i, sku);
            d.add_text(e, format!("SKU-{k}"));
            let e = d.add_element(i, qty);
            d.add_text(e, "1");
        }
        d
    }

    /// Ground truth: materialize the edited doc and validate fully.
    fn oracle(f: &Fx, dd: &DeltaDoc) -> bool {
        f.target.accepts_document(&dd.committed())
    }

    #[test]
    fn no_edits_reduces_to_plain_cast() {
        let mut f = fx();
        let d = doc(&mut f.ab, true, 5);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);
        let dd = DeltaDoc::new(d);
        let (out, stats) = mv.validate_with_stats(&dd);
        assert!(out.is_valid());
        assert!(stats.nodes_visited <= 4);
    }

    #[test]
    fn inserting_billto_fixes_missing_required_element() {
        let mut f = fx();
        let d = doc(&mut f.ab, false, 5);
        assert!(f.source.accepts_document(&d));
        assert!(!f.target.accepts_document(&d));

        let bill = f.ab.lookup("billTo").unwrap();
        let name = f.ab.lookup("name").unwrap();
        let city = f.ab.lookup("city").unwrap();
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);

        let mut dd = DeltaDoc::new(d);
        // Without the edit, invalid.
        assert!(!mv.validate(&dd).is_valid());

        // Insert billTo (with its children) after shipTo.
        let root = dd.doc().root();
        dd.apply(&Edit::InsertElement {
            parent: root,
            position: 1,
            label: bill,
        })
        .unwrap();
        let bill_node = dd.doc().children(root)[1];
        dd.apply(&Edit::InsertElement {
            parent: bill_node,
            position: 0,
            label: name,
        })
        .unwrap();
        let name_node = dd.doc().children(bill_node)[0];
        dd.apply(&Edit::InsertText {
            parent: name_node,
            position: 0,
            text: "N".into(),
        })
        .unwrap();
        dd.apply(&Edit::InsertElement {
            parent: bill_node,
            position: 1,
            label: city,
        })
        .unwrap();
        let city_node = dd.doc().children(bill_node)[1];
        dd.apply(&Edit::InsertText {
            parent: city_node,
            position: 0,
            text: "C".into(),
        })
        .unwrap();

        let (out, stats) = mv.validate_with_stats(&dd);
        assert!(out.is_valid());
        assert!(oracle(&f, &dd));
        // The untouched items subtree was never entered: far fewer visits
        // than nodes.
        assert!(stats.nodes_visited < dd.doc().node_count() / 2);
    }

    #[test]
    fn deleting_required_child_is_caught() {
        let mut f = fx();
        let d = doc(&mut f.ab, true, 3);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);
        let mut dd = DeltaDoc::new(d);
        // Delete the qty leaf of item 1.
        let root = dd.doc().root();
        let items = dd.doc().children(root)[2];
        let item1 = dd.doc().children(items)[1];
        let qty = dd.doc().children(item1)[1];
        let qty_text = dd.doc().children(qty)[0];
        dd.apply(&Edit::DeleteLeaf { node: qty_text }).unwrap();
        dd.apply(&Edit::DeleteLeaf { node: qty }).unwrap();
        assert!(!mv.validate(&dd).is_valid());
        assert!(!oracle(&f, &dd));
    }

    #[test]
    fn relabeling_and_value_edits() {
        let mut f = fx();
        let d = doc(&mut f.ab, true, 4);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);

        // Edit a qty value: stays valid (Text type).
        let mut dd = DeltaDoc::new(d.clone());
        let root = dd.doc().root();
        let items = dd.doc().children(root)[2];
        let item0 = dd.doc().children(items)[0];
        let qty = dd.doc().children(item0)[1];
        let t = dd.doc().children(qty)[0];
        dd.apply(&Edit::SetText {
            node: t,
            text: "999".into(),
        })
        .unwrap();
        assert!(mv.validate(&dd).is_valid());
        assert!(oracle(&f, &dd));

        // Relabel an item to an unknown label: invalid.
        let mut dd2 = DeltaDoc::new(d);
        let root = dd2.doc().root();
        let items = dd2.doc().children(root)[2];
        let item0 = dd2.doc().children(items)[0];
        let bogus = f.ab.intern("bogus");
        dd2.apply(&Edit::Relabel {
            node: item0,
            label: bogus,
        })
        .unwrap();
        assert!(!mv.validate(&dd2).is_valid());
        assert!(!oracle(&f, &dd2));
    }

    #[test]
    fn append_items_validates_with_bounded_scanning() {
        let mut f = fx();
        let d = doc(&mut f.ab, true, 200);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);
        let mut dd = DeltaDoc::new(d);
        let root = dd.doc().root();
        let items = dd.doc().children(root)[2];
        let item = f.ab.lookup("item").unwrap();
        let sku = f.ab.lookup("sku").unwrap();
        let qty = f.ab.lookup("qty").unwrap();
        // Append one item subtree at the end.
        let pos = dd.doc().children(items).len();
        dd.apply(&Edit::InsertElement {
            parent: items,
            position: pos,
            label: item,
        })
        .unwrap();
        let new_item = dd.doc().children(items)[pos];
        for (i, l) in [(0usize, sku), (1, qty)] {
            dd.apply(&Edit::InsertElement {
                parent: new_item,
                position: i,
                label: l,
            })
            .unwrap();
            let e = dd.doc().children(new_item)[i];
            dd.apply(&Edit::InsertText {
                parent: e,
                position: 0,
                text: "v".into(),
            })
            .unwrap();
        }
        let (out, stats) = mv.validate_with_stats(&dd);
        assert!(out.is_valid());
        assert!(oracle(&f, &dd));
        // Each sibling of the edited child list is *entered* once (the §3.3
        // recursion) but immediately skipped by subsumption — so visits are
        // bounded by the sibling count plus the new subtree, far below the
        // ~1800 nodes of the document.
        assert!(
            stats.nodes_visited < 230,
            "visited {} nodes",
            stats.nodes_visited
        );
        assert!(stats.subsumed_skips >= 200);
        // Content model of items: the item* automaton never rescans the
        // unchanged prefix thanks to the backward strategy of §4.3.
        assert!(
            stats.content_symbols_scanned < 30,
            "scanned {} symbols",
            stats.content_symbols_scanned
        );
    }

    #[test]
    fn mods_validator_agrees_with_oracle_on_random_edits() {
        let mut f = fx();
        let base = doc(&mut f.ab, true, 6);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);
        let item = f.ab.lookup("item").unwrap();
        let sku = f.ab.lookup("sku").unwrap();

        // A small battery of edit scripts (some valid, some not).
        let scripts: Vec<Vec<Edit>> = {
            let d = &base;
            let root = d.root();
            let items = d.children(root)[2];
            let item0 = d.children(items)[0];
            let sku0 = d.children(item0)[0];
            let sku0_text = d.children(sku0)[0];
            vec![
                vec![],
                vec![Edit::SetText {
                    node: sku0_text,
                    text: "NEW".into(),
                }],
                // Insert a bare item (missing children): invalid.
                vec![Edit::InsertElement {
                    parent: items,
                    position: 0,
                    label: item,
                }],
                // Relabel sku→sku (no-op relabel still marks): valid.
                vec![Edit::Relabel {
                    node: sku0,
                    label: sku,
                }],
                // Delete a sku text then the sku: invalid (item needs sku).
                vec![
                    Edit::DeleteLeaf { node: sku0_text },
                    Edit::DeleteLeaf { node: sku0 },
                ],
            ]
        };
        for (i, script) in scripts.iter().enumerate() {
            let mut dd = DeltaDoc::new(base.clone());
            dd.apply_all(script).unwrap();
            let got = mv.validate(&dd).is_valid();
            let want = oracle(&f, &dd);
            assert_eq!(got, want, "script {i}");
        }
    }
}
