//! Exact verdicts and cost counters of the tree validators, case by case.
//!
//! The other suites bound counters (`<=`, `>=`); this one pins every field
//! of [`ValidationStats`] and the verdict for:
//!
//! * the §3.2 cast under each [`CastOptions`] preset, on the Figure 1/2
//!   purchase orders (Experiments 1 and 2) and the recursive outlines;
//! * the static and script fast paths (whose accepts run the exemption
//!   walk), the exemption walk itself, and the §3.3 Δ-mods validator, on
//!   edit scripts over the purchase-order, item-list and feed fixtures;
//! * the §3.4 label-indexed DTD validator: verdicts and the counters of
//!   its accepts, then (in rows of their own) the counters of its rejects,
//!   which the label index's first-appearance order makes the same in
//!   every process.
//!
//! A refactor of the walks must leave every row unchanged. On a mismatch
//! the test prints the whole computed table in the syntax of [`EXPECTED`].

use schemacast::core::{
    CastContext, CastOptions, CastOutcome, DtdCastValidator, LabelIndex, ModsValidator,
    ValidationStats,
};
use schemacast::regex::{Alphabet, Sym};
use schemacast::schema::{parse_dtd, AbstractSchema, SchemaBuilder, Session, SimpleType};
use schemacast::tree::{DeltaDoc, Doc, Edit, NodeId};
use schemacast::workload::purchase_order as po;

/// One computed row: case name and, when the path decided, its verdict
/// and counters (`None` = the fast path declined or the script failed).
type Row = (String, Option<(CastOutcome, ValidationStats)>);

/// The counters a tree validator can move, in this order: nodes visited,
/// content symbols scanned, subsumed skips, disjoint rejects, IDA early
/// accepts, IDA early rejects, full validations, value checks, static
/// skips, static rejects, script skips, script rejects. Every other field
/// must stay 0.
type Counts = [usize; 12];

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
    ]
}

fn stats_of(c: Counts) -> ValidationStats {
    ValidationStats {
        nodes_visited: c[0],
        content_symbols_scanned: c[1],
        subsumed_skips: c[2],
        disjoint_rejects: c[3],
        ida_early_accepts: c[4],
        ida_early_rejects: c[5],
        full_validations: c[6],
        value_checks: c[7],
        static_skips: c[8],
        static_rejects: c[9],
        script_skips: c[10],
        script_rejects: c[11],
        ..Default::default()
    }
}

fn presets() -> [(&'static str, CastOptions); 3] {
    [
        ("default", CastOptions::default()),
        ("prototype", CastOptions::paper_prototype()),
        ("baseline", CastOptions::baseline()),
    ]
}

/// The three edited-document paths on one script: per-edit static
/// analysis, script analysis, and Δ-mods revalidation of the applied
/// script.
fn edited_rows(rows: &mut Vec<Row>, name: &str, ctx: &CastContext<'_>, doc: &Doc, edits: &[Edit]) {
    rows.push((
        format!("{name}/static"),
        ctx.validate_edited_static(doc, edits),
    ));
    rows.push((
        format!("{name}/script"),
        ctx.validate_edited_script(doc, edits),
    ));
    let mut dd = DeltaDoc::new(doc.clone());
    let mods = dd
        .apply_all(edits)
        .ok()
        .map(|()| ModsValidator::new(ctx).validate_with_stats(&dd));
    rows.push((format!("{name}/mods"), mods));
}

fn nth_child(doc: &Doc, node: NodeId, path: &[usize]) -> NodeId {
    path.iter().fold(node, |n, &i| doc.children(n)[i])
}

// ---------------------------------------------------------------- fixtures

fn purchase_orders(rows: &mut Vec<Row>) {
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
    for (exp, source, docs) in [("exp1", &src1, &exp1), ("exp2", &src2, &exp2)] {
        for (preset, opts) in presets() {
            let ctx = CastContext::with_options(source, &target, ab, opts);
            for (doc_name, doc) in docs {
                rows.push((
                    format!("po/{exp}/{doc_name}/{preset}"),
                    Some(ctx.validate_with_stats(doc)),
                ));
            }
        }
    }

    // Edit scripts on the Experiment 2 pair (quantities narrowed).
    let item = ab.lookup("item").unwrap();
    let product = ab.lookup("productName").unwrap();
    let quantity = ab.lookup("quantity").unwrap();
    let price = ab.lookup("USPrice").unwrap();
    let doc = &exp2[0].1;
    let ctx = CastContext::new(&src2, &target, ab);
    let items = nth_child(doc, doc.root(), &[2]);
    let qty3_text = nth_child(doc, items, &[3, 1, 0]);
    let date0 = nth_child(doc, items, &[0, 3]);
    let date0_text = nth_child(doc, date0, &[0]);
    let end = doc.children(items).len();
    let mut append = vec![Edit::InsertElement {
        parent: items,
        position: end,
        label: item,
    }];
    let new_item = NodeId(doc.node_count() as u32);
    for (i, (label, text)) in [(product, "Lawnmower"), (quantity, "7"), (price, "9.99")]
        .into_iter()
        .enumerate()
    {
        append.push(Edit::InsertElement {
            parent: new_item,
            position: i,
            label,
        });
        let leaf = NodeId(doc.node_count() as u32 + 1 + 2 * i as u32);
        append.push(Edit::InsertText {
            parent: leaf,
            position: 0,
            text: text.into(),
        });
    }
    let scripts: [(&str, Vec<Edit>); 4] = [
        (
            "qty-150",
            vec![Edit::SetText {
                node: qty3_text,
                text: "150".into(),
            }],
        ),
        (
            "qty-42",
            vec![Edit::SetText {
                node: qty3_text,
                text: "42".into(),
            }],
        ),
        ("append-item", append),
        (
            "delete-shipdate",
            vec![
                Edit::DeleteLeaf { node: date0_text },
                Edit::DeleteLeaf { node: date0 },
            ],
        ),
    ];
    for (name, edits) in &scripts {
        edited_rows(rows, &format!("po/exp2/edit/{name}"), &ctx, doc, edits);
    }
}

fn outline_schema(ab: &mut Alphabet, with_note: bool) -> AbstractSchema {
    let mut b = SchemaBuilder::new(ab);
    let text = b.simple("Text", SimpleType::string()).unwrap();
    let section = b.declare("Section").unwrap();
    let model = if with_note {
        "(title, section*, note?)"
    } else {
        "(title, section*)"
    };
    b.complex(
        section,
        model,
        &[("title", text), ("section", section), ("note", text)],
    )
    .unwrap();
    b.root("doc", section);
    b.finish().unwrap()
}

/// A section chain `depth` deep with `fanout` leaf sections per level;
/// returns the document and its deepest chain section.
fn deep_outline(ab: &mut Alphabet, depth: usize, fanout: usize) -> (Doc, NodeId) {
    let doc_l = ab.intern("doc");
    let section = ab.intern("section");
    let title = ab.intern("title");
    let mut d = Doc::new(doc_l);
    let t = d.add_element(d.root(), title);
    d.add_text(t, "root");
    let mut cur = d.root();
    for i in 0..depth {
        let s = d.add_element(cur, section);
        let t = d.add_element(s, title);
        d.add_text(t, format!("level {i}"));
        for _ in 0..fanout {
            let leaf = d.add_element(s, section);
            let lt = d.add_element(leaf, title);
            d.add_text(lt, "leaf");
        }
        cur = s;
    }
    (d, cur)
}

fn outlines(rows: &mut Vec<Row>) {
    let mut ab = Alphabet::new();
    let v1 = outline_schema(&mut ab, false);
    let v2 = outline_schema(&mut ab, true);
    let (doc, deepest) = deep_outline(&mut ab, 12, 2);
    let mut broken = doc.clone();
    let bogus = ab.intern("bogus");
    broken.set_label(broken.children(deepest)[0], bogus);
    for (preset, opts) in presets() {
        for (pair, source, target) in [("v1-v2", &v1, &v2), ("v2-v1", &v2, &v1)] {
            let ctx = CastContext::with_options(source, target, &ab, opts);
            rows.push((
                format!("outline/{pair}/{preset}"),
                Some(ctx.validate_with_stats(&doc)),
            ));
            rows.push((
                format!("outline/{pair}/broken/{preset}"),
                Some(ctx.validate_with_stats(&broken)),
            ));
        }
    }

    let note = ab.lookup("note").unwrap();
    let end = doc.children(deepest).len();
    let note_deep = vec![
        Edit::InsertElement {
            parent: deepest,
            position: end,
            label: note,
        },
        Edit::InsertText {
            parent: NodeId(doc.node_count() as u32),
            position: 0,
            text: "n".into(),
        },
    ];
    for (pair, source, target) in [("v1-v2", &v1, &v2), ("v2-v1", &v2, &v1)] {
        let ctx = CastContext::new(source, target, &ab);
        edited_rows(
            rows,
            &format!("outline/{pair}/edit/note-deep"),
            &ctx,
            &doc,
            &note_deep,
        );
    }
}

/// The item-list purchase order of the Δ-mods unit tests.
fn item_schema(ab: &mut Alphabet, bill_optional: bool) -> AbstractSchema {
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

fn item_doc(ab: &mut Alphabet, with_bill: bool, items: usize) -> Doc {
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

fn item_lists(rows: &mut Vec<Row>) {
    let mut ab = Alphabet::new();
    let source = item_schema(&mut ab, true);
    let target = item_schema(&mut ab, false);
    let base = item_doc(&mut ab, true, 6);
    let nobill = item_doc(&mut ab, false, 5);
    let ctx = CastContext::new(&source, &target, &ab);
    let sym = |s: &str| -> Sym { ab.lookup(s).unwrap() };
    let (item, sku, qty, bill, name, city) = (
        sym("item"),
        sym("sku"),
        sym("qty"),
        sym("billTo"),
        sym("name"),
        sym("city"),
    );
    let bogus = ab.intern("bogus");

    let items = nth_child(&base, base.root(), &[2]);
    let item0 = nth_child(&base, items, &[0]);
    let sku0 = nth_child(&base, item0, &[0]);
    let sku0_text = nth_child(&base, sku0, &[0]);
    let qty1 = nth_child(&base, items, &[1, 1]);
    let qty1_text = nth_child(&base, qty1, &[0]);
    let end = base.children(items).len();
    let fresh = base.node_count() as u32;
    let append = vec![
        Edit::InsertElement {
            parent: items,
            position: end,
            label: item,
        },
        Edit::InsertElement {
            parent: NodeId(fresh),
            position: 0,
            label: sku,
        },
        Edit::InsertText {
            parent: NodeId(fresh + 1),
            position: 0,
            text: "v".into(),
        },
        Edit::InsertElement {
            parent: NodeId(fresh),
            position: 1,
            label: qty,
        },
        Edit::InsertText {
            parent: NodeId(fresh + 3),
            position: 0,
            text: "v".into(),
        },
    ];
    let scripts: Vec<(&str, Vec<Edit>)> = vec![
        ("none", vec![]),
        (
            "settext-sku0",
            vec![Edit::SetText {
                node: sku0_text,
                text: "NEW".into(),
            }],
        ),
        (
            "insert-bare-item",
            vec![Edit::InsertElement {
                parent: items,
                position: 0,
                label: item,
            }],
        ),
        (
            "relabel-sku-noop",
            vec![Edit::Relabel {
                node: sku0,
                label: sku,
            }],
        ),
        (
            "delete-sku0",
            vec![
                Edit::DeleteLeaf { node: sku0_text },
                Edit::DeleteLeaf { node: sku0 },
            ],
        ),
        (
            "delete-qty1",
            vec![
                Edit::DeleteLeaf { node: qty1_text },
                Edit::DeleteLeaf { node: qty1 },
            ],
        ),
        (
            "relabel-item0-bogus",
            vec![Edit::Relabel {
                node: item0,
                label: bogus,
            }],
        ),
        ("append-item", append),
    ];
    for (name, edits) in &scripts {
        edited_rows(rows, &format!("items/{name}"), &ctx, &base, edits);
    }

    let root = nobill.root();
    let fresh = nobill.node_count() as u32;
    let insert_bill = vec![
        Edit::InsertElement {
            parent: root,
            position: 1,
            label: bill,
        },
        Edit::InsertElement {
            parent: NodeId(fresh),
            position: 0,
            label: name,
        },
        Edit::InsertText {
            parent: NodeId(fresh + 1),
            position: 0,
            text: "N".into(),
        },
        Edit::InsertElement {
            parent: NodeId(fresh),
            position: 1,
            label: city,
        },
        Edit::InsertText {
            parent: NodeId(fresh + 3),
            position: 0,
            text: "C".into(),
        },
    ];
    edited_rows(rows, "items/nobill/none", &ctx, &nobill, &[]);
    edited_rows(
        rows,
        "items/nobill/insert-billto",
        &ctx,
        &nobill,
        &insert_bill,
    );
}

fn feed_schema(ab: &mut Alphabet, allow_note: bool) -> AbstractSchema {
    let mut b = SchemaBuilder::new(ab);
    let text = b.simple("Text", SimpleType::string()).unwrap();
    let entry = b.declare("Entry").unwrap();
    b.complex(entry, "(title)", &[("title", text)]).unwrap();
    let feed = b.declare("Feed").unwrap();
    if allow_note {
        b.complex(feed, "(entry | note)*", &[("entry", entry), ("note", text)])
            .unwrap();
    } else {
        b.complex(feed, "entry*", &[("entry", entry)]).unwrap();
    }
    b.root("feed", feed);
    b.finish().unwrap()
}

fn feed_doc(ab: &mut Alphabet, entries: usize, notes: usize) -> Doc {
    let feed = ab.intern("feed");
    let entry = ab.intern("entry");
    let note = ab.intern("note");
    let title = ab.intern("title");
    let mut doc = Doc::new(feed);
    for i in 0..entries.max(notes) {
        if i < entries {
            let e = doc.add_element(doc.root(), entry);
            let t = doc.add_element(e, title);
            doc.add_text(t, "hello");
        }
        if i < notes {
            let n = doc.add_element(doc.root(), note);
            doc.add_text(n, "a note");
        }
    }
    doc
}

fn feeds(rows: &mut Vec<Row>) {
    let mut ab = Alphabet::new();
    let with_note = feed_schema(&mut ab, true);
    let same = feed_schema(&mut ab, true);
    let no_note = feed_schema(&mut ab, false);
    let note = ab.lookup("note").unwrap();
    let ctx_same = CastContext::new(&with_note, &same, &ab);
    let ctx_drop = CastContext::new(&with_note, &no_note, &ab);

    let d31 = feed_doc(&mut ab, 3, 1);
    let insert_note = |pos| {
        vec![Edit::InsertElement {
            parent: d31.root(),
            position: pos,
            label: note,
        }]
    };
    edited_rows(
        rows,
        "feed/same/insert-note",
        &ctx_same,
        &d31,
        &insert_note(1),
    );
    edited_rows(
        rows,
        "feed/drop/insert-note",
        &ctx_drop,
        &d31,
        &insert_note(0),
    );

    let d22 = feed_doc(&mut ab, 2, 2);
    let entry0 = nth_child(&d22, d22.root(), &[0]);
    let title0 = nth_child(&d22, entry0, &[0]);
    let multi = vec![
        Edit::InsertElement {
            parent: d22.root(),
            position: 0,
            label: note,
        },
        Edit::DeleteLeaf { node: title0 },
    ];
    edited_rows(rows, "feed/same/multi-site", &ctx_same, &d22, &multi);
    let note1 = nth_child(&d22, d22.root(), &[1]);
    let note1_text = nth_child(&d22, note1, &[0]);
    let delete_note = vec![
        Edit::DeleteLeaf { node: note1_text },
        Edit::DeleteLeaf { node: note1 },
    ];
    edited_rows(rows, "feed/drop/delete-note", &ctx_drop, &d22, &delete_note);

    let d21 = feed_doc(&mut ab, 2, 1);
    let first_entry = nth_child(&d21, d21.root(), &[0]);
    let last_note = nth_child(&d21, d21.root(), &[1]);
    for (ctx_name, ctx) in [("same", &ctx_same), ("drop", &ctx_drop)] {
        for (sites_name, sites) in [
            ("none", &[][..]),
            ("entry0", &[first_entry][..]),
            ("note", &[last_note][..]),
        ] {
            rows.push((
                format!("feed/{ctx_name}/exempt/{sites_name}"),
                Some(ctx.validate_with_exemptions(&d21, sites)),
            ));
        }
    }

    // billTo optional → required with simple children: a Dynamic insert.
    let mk = |ab: &mut Alphabet, optional: bool| {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let po = b.declare("PO").unwrap();
        let model = if optional {
            "(shipTo, billTo?, items)"
        } else {
            "(shipTo, billTo, items)"
        };
        b.complex(
            po,
            model,
            &[("shipTo", text), ("billTo", text), ("items", text)],
        )
        .unwrap();
        b.root("po", po);
        b.finish().unwrap()
    };
    let source = mk(&mut ab, true);
    let target = mk(&mut ab, false);
    let ctx = CastContext::new(&source, &target, &ab);
    let po = ab.lookup("po").unwrap();
    let ship = ab.lookup("shipTo").unwrap();
    let bill = ab.lookup("billTo").unwrap();
    let items = ab.lookup("items").unwrap();
    let mut doc = Doc::new(po);
    for l in [ship, items] {
        let e = doc.add_element(doc.root(), l);
        doc.add_text(e, "v");
    }
    let insert_bill = vec![
        Edit::InsertElement {
            parent: doc.root(),
            position: 1,
            label: bill,
        },
        Edit::InsertText {
            parent: NodeId(doc.node_count() as u32),
            position: 0,
            text: "b".into(),
        },
    ];
    edited_rows(rows, "simple-po/insert-billto", &ctx, &doc, &insert_bill);
    edited_rows(
        rows,
        "simple-po/insert-billto-1",
        &ctx,
        &doc,
        &insert_bill[..1],
    );
}

const SRC_DTD: &str = r#"
    <!ELEMENT po (ship, bill?, items)>
    <!ELEMENT ship (name)>
    <!ELEMENT bill (name)>
    <!ELEMENT items (item*)>
    <!ELEMENT item (#PCDATA)>
    <!ELEMENT name (#PCDATA)>
"#;
const TGT_DTD: &str = r#"
    <!ELEMENT po (ship, bill, items)>
    <!ELEMENT ship (name)>
    <!ELEMENT bill (name)>
    <!ELEMENT items (item*)>
    <!ELEMENT item (#PCDATA)>
    <!ELEMENT name (#PCDATA)>
"#;
const TGT_DTD_ITEMS: &str = r#"
    <!ELEMENT po (ship, bill?, items)>
    <!ELEMENT ship (name)>
    <!ELEMENT bill (name)>
    <!ELEMENT items (item+)>
    <!ELEMENT item (#PCDATA)>
    <!ELEMENT name (#PCDATA)>
"#;

fn dtd_doc(ab: &mut Alphabet, with_bill: bool, items: usize) -> Doc {
    let po = ab.intern("po");
    let ship = ab.intern("ship");
    let bill = ab.intern("bill");
    let items_l = ab.intern("items");
    let item = ab.intern("item");
    let name = ab.intern("name");
    let mut d = Doc::new(po);
    for (l, yes) in [(ship, true), (bill, with_bill)] {
        if !yes {
            continue;
        }
        let a = d.add_element(d.root(), l);
        let n = d.add_element(a, name);
        d.add_text(n, "x");
    }
    let il = d.add_element(d.root(), items_l);
    for _ in 0..items {
        let i = d.add_element(il, item);
        d.add_text(i, "v");
    }
    d
}

fn dtds(rows: &mut Vec<Row>) {
    let mut ab = Alphabet::new();
    let source = parse_dtd(SRC_DTD, Some("po"), &mut ab).unwrap();
    let target = parse_dtd(TGT_DTD, Some("po"), &mut ab).unwrap();
    let target_items = parse_dtd(TGT_DTD_ITEMS, Some("po"), &mut ab).unwrap();
    let docs: Vec<(String, Doc)> = [(true, 50), (false, 50), (true, 0), (false, 2)]
        .into_iter()
        .map(|(bill, n)| {
            (
                format!("bill{}/n{n}", u8::from(bill)),
                dtd_doc(&mut ab, bill, n),
            )
        })
        .collect();
    for (preset, opts) in presets() {
        for (pair, target) in [("bill", &target), ("items", &target_items)] {
            let ctx = CastContext::with_options(&source, target, &ab, opts);
            let v = DtdCastValidator::new(&ctx, ab.len()).unwrap();
            for (doc_name, doc) in &docs {
                let (outcome, mut stats) = v.validate_with_stats(doc, &LabelIndex::build(doc));
                if !outcome.is_valid() {
                    // A reject's counters depend on the order the index
                    // visits labels in; `dtd_rejects` pins them.
                    stats = ValidationStats::default();
                }
                rows.push((
                    format!("dtd/{pair}/{doc_name}/{preset}"),
                    Some((outcome, stats)),
                ));
            }
        }
    }
}

/// The counters of every rejecting DTD row above. The index visits labels
/// in order of first appearance and stops at the first failing one.
fn dtd_rejects(rows: &mut Vec<Row>) {
    let mut ab = Alphabet::new();
    let source = parse_dtd(SRC_DTD, Some("po"), &mut ab).unwrap();
    let target = parse_dtd(TGT_DTD, Some("po"), &mut ab).unwrap();
    let target_items = parse_dtd(TGT_DTD_ITEMS, Some("po"), &mut ab).unwrap();
    let docs: Vec<(String, Doc)> = [(true, 50), (false, 50), (true, 0), (false, 2)]
        .into_iter()
        .map(|(bill, n)| {
            (
                format!("bill{}/n{n}", u8::from(bill)),
                dtd_doc(&mut ab, bill, n),
            )
        })
        .collect();
    for (preset, opts) in presets() {
        for (pair, target) in [("bill", &target), ("items", &target_items)] {
            let ctx = CastContext::with_options(&source, target, &ab, opts);
            let v = DtdCastValidator::new(&ctx, ab.len()).unwrap();
            for (doc_name, doc) in &docs {
                let (outcome, stats) = v.validate_with_stats(doc, &LabelIndex::build(doc));
                if !outcome.is_valid() {
                    rows.push((
                        format!("dtd/{pair}/{doc_name}/{preset}/reject"),
                        Some((outcome, stats)),
                    ));
                }
            }
        }
    }
}

// ------------------------------------------------------------------- table

fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for (name, got) in rows {
        let (verdict, c) = match got {
            Some((outcome, stats)) => (format!("Some({})", outcome.is_valid()), counts(stats)),
            None => ("None".to_owned(), [0; 12]),
        };
        out.push_str(&format!("    (\"{name}\", {verdict}, {c:?}),\n"));
    }
    out
}

#[test]
fn tree_validators_keep_their_exact_counters() {
    let mut rows: Vec<Row> = Vec::new();
    purchase_orders(&mut rows);
    outlines(&mut rows);
    item_lists(&mut rows);
    feeds(&mut rows);
    dtds(&mut rows);
    dtd_rejects(&mut rows);

    let table = render(&rows);
    assert_eq!(rows.len(), EXPECTED.len(), "row count; computed:\n{table}");
    for ((name, got), &(want_name, want_valid, want_counts)) in rows.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "row order; computed:\n{table}");
        let got = got.map(|(outcome, stats)| (outcome.is_valid(), stats));
        let want = want_valid.map(|v| (v, stats_of(want_counts)));
        assert_eq!(got, want, "row {name}; computed:\n{table}");
        if want.is_none() {
            assert_eq!(
                want_counts, [0; 12],
                "row {name}: declined rows carry no counters"
            );
        }
    }
}

/// (case, verdict — `None` when the path declined —, counters in the
/// order of [`Counts`]).
#[rustfmt::skip]
const EXPECTED: &[(&str, Option<bool>, Counts)] = &[
    ("po/exp1/bill/default", Some(true), [4, 2, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp1/nobill/default", Some(false), [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ("po/exp1/bill/prototype", Some(true), [4, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp1/nobill/prototype", Some(false), [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp1/bill/baseline", Some(true), [188, 105, 0, 0, 0, 0, 0, 82, 0, 0, 0, 0]),
    ("po/exp1/nobill/baseline", Some(false), [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp2/ok/default", Some(true), [114, 0, 52, 0, 22, 0, 0, 20, 0, 0, 0, 0]),
    ("po/exp2/bad/default", Some(false), [80, 0, 36, 0, 16, 0, 0, 14, 0, 0, 0, 0]),
    ("po/exp2/ok/prototype", Some(true), [114, 93, 52, 0, 0, 0, 0, 20, 0, 0, 0, 0]),
    ("po/exp2/bad/prototype", Some(false), [80, 72, 36, 0, 0, 0, 0, 14, 0, 0, 0, 0]),
    ("po/exp2/ok/baseline", Some(true), [188, 105, 0, 0, 0, 0, 0, 82, 0, 0, 0, 0]),
    ("po/exp2/bad/baseline", Some(false), [138, 84, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0]),
    ("po/exp2/edit/qty-150/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp2/edit/qty-150/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp2/edit/qty-150/mods", Some(false), [25, 0, 11, 0, 3, 0, 0, 4, 0, 0, 0, 0]),
    ("po/exp2/edit/qty-42/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp2/edit/qty-42/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp2/edit/qty-42/mods", Some(true), [114, 0, 52, 0, 19, 0, 0, 20, 0, 0, 0, 0]),
    ("po/exp2/edit/append-item/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp2/edit/append-item/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp2/edit/append-item/mods", Some(true), [121, 4, 52, 0, 20, 0, 1, 23, 0, 0, 0, 0]),
    ("po/exp2/edit/delete-shipdate/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp2/edit/delete-shipdate/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("po/exp2/edit/delete-shipdate/mods", Some(true), [113, 1, 51, 0, 19, 0, 0, 20, 0, 0, 0, 0]),
    ("outline/v1-v2/default", Some(true), [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v1-v2/broken/default", Some(true), [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v2-v1/default", Some(true), [74, 73, 37, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v2-v1/broken/default", Some(false), [69, 69, 34, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ("outline/v1-v2/prototype", Some(true), [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v1-v2/broken/prototype", Some(true), [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v2-v1/prototype", Some(true), [74, 73, 37, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v2-v1/broken/prototype", Some(false), [69, 71, 34, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v1-v2/baseline", Some(true), [111, 73, 0, 0, 0, 0, 0, 37, 0, 0, 0, 0]),
    ("outline/v1-v2/broken/baseline", Some(false), [103, 71, 0, 0, 0, 0, 0, 34, 0, 0, 0, 0]),
    ("outline/v2-v1/baseline", Some(true), [111, 73, 0, 0, 0, 0, 0, 37, 0, 0, 0, 0]),
    ("outline/v2-v1/broken/baseline", Some(false), [103, 71, 0, 0, 0, 0, 0, 34, 0, 0, 0, 0]),
    ("outline/v1-v2/edit/note-deep/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v1-v2/edit/note-deep/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v1-v2/edit/note-deep/mods", Some(true), [52, 1, 37, 0, 0, 0, 1, 1, 0, 0, 0, 0]),
    ("outline/v2-v1/edit/note-deep/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v2-v1/edit/note-deep/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("outline/v2-v1/edit/note-deep/mods", Some(false), [69, 69, 34, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/none/static", Some(true), [4, 2, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ("items/none/script", Some(true), [4, 2, 3, 0, 1, 0, 0, 0, 0, 0, 1, 0]),
    ("items/none/mods", Some(true), [4, 2, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ("items/settext-sku0/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/settext-sku0/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/settext-sku0/mods", Some(true), [13, 2, 8, 0, 0, 0, 0, 1, 0, 0, 0, 0]),
    ("items/insert-bare-item/static", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]),
    ("items/insert-bare-item/script", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    ("items/insert-bare-item/mods", Some(false), [5, 3, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0]),
    ("items/relabel-sku-noop/static", Some(true), [9, 2, 7, 0, 2, 0, 0, 0, 1, 0, 0, 0]),
    ("items/relabel-sku-noop/script", Some(true), [4, 2, 3, 0, 1, 0, 0, 0, 0, 0, 1, 0]),
    ("items/relabel-sku-noop/mods", Some(true), [13, 2, 8, 0, 0, 0, 0, 1, 0, 0, 0, 0]),
    ("items/delete-sku0/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/delete-sku0/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/delete-sku0/mods", Some(false), [5, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/delete-qty1/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/delete-qty1/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/delete-qty1/mods", Some(false), [6, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/relabel-item0-bogus/static", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]),
    ("items/relabel-item0-bogus/script", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    ("items/relabel-item0-bogus/mods", Some(false), [4, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/append-item/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/append-item/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/append-item/mods", Some(true), [15, 5, 8, 0, 0, 0, 1, 2, 0, 0, 0, 0]),
    ("items/nobill/none/static", Some(false), [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ("items/nobill/none/script", Some(false), [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]),
    ("items/nobill/none/mods", Some(false), [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ("items/nobill/insert-billto/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/nobill/insert-billto/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("items/nobill/insert-billto/mods", Some(true), [8, 5, 2, 0, 0, 0, 1, 2, 0, 0, 0, 0]),
    ("feed/same/insert-note/static", Some(true), [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]),
    ("feed/same/insert-note/script", Some(true), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]),
    ("feed/same/insert-note/mods", Some(true), [6, 3, 4, 0, 0, 0, 1, 1, 0, 0, 0, 0]),
    ("feed/drop/insert-note/static", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]),
    ("feed/drop/insert-note/script", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    ("feed/drop/insert-note/mods", Some(false), [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/same/multi-site/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/same/multi-site/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/same/multi-site/mods", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/drop/delete-note/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/drop/delete-note/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/drop/delete-note/mods", Some(false), [1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/same/exempt/none", Some(true), [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/same/exempt/entry0", Some(true), [3, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/same/exempt/note", Some(true), [3, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ("feed/drop/exempt/none", Some(false), [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ("feed/drop/exempt/entry0", Some(false), [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ("feed/drop/exempt/note", Some(false), [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ("simple-po/insert-billto/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("simple-po/insert-billto/script", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("simple-po/insert-billto/mods", Some(true), [5, 3, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0]),
    ("simple-po/insert-billto-1/static", None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("simple-po/insert-billto-1/script", Some(true), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]),
    ("simple-po/insert-billto-1/mods", Some(true), [4, 3, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0]),
    ("dtd/bill/bill1/n50/default", Some(true), [1, 2, 5, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n50/default", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill1/n0/default", Some(true), [1, 2, 4, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n2/default", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill1/n50/default", Some(true), [2, 1, 4, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill0/n50/default", Some(true), [2, 1, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill1/n0/default", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill0/n2/default", Some(true), [2, 1, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill1/n50/prototype", Some(true), [1, 3, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n50/prototype", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill1/n0/prototype", Some(true), [1, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n2/prototype", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill1/n50/prototype", Some(true), [2, 53, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill0/n50/prototype", Some(true), [2, 52, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill1/n0/prototype", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill0/n2/prototype", Some(true), [2, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill1/n50/baseline", Some(true), [108, 55, 0, 0, 0, 0, 0, 52, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n50/baseline", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill1/n0/baseline", Some(true), [8, 5, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n2/baseline", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill1/n50/baseline", Some(true), [108, 55, 0, 0, 0, 0, 0, 52, 0, 0, 0, 0]),
    ("dtd/items/bill0/n50/baseline", Some(true), [105, 53, 0, 0, 0, 0, 0, 51, 0, 0, 0, 0]),
    ("dtd/items/bill1/n0/baseline", Some(false), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill0/n2/baseline", Some(true), [9, 5, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n50/default/reject", Some(false), [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n2/default/reject", Some(false), [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill1/n0/default/reject", Some(false), [2, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n50/prototype/reject", Some(false), [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n2/prototype/reject", Some(false), [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill1/n0/prototype/reject", Some(false), [2, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n50/baseline/reject", Some(false), [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/bill/bill0/n2/baseline/reject", Some(false), [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("dtd/items/bill1/n0/baseline/reject", Some(false), [8, 5, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0]),
];
