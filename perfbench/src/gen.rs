//! Seeded inputs and their oracle.
//!
//! * The purchase-order schemas of the paper's Figures 1 and 2, taken
//!   from `schemacast_workload::purchase_order`; the edit workload adds the
//!   W3C primer's optional item `comment` to both schemas of its pair.
//! * Document sizes drawn by stratified sampling from a body distribution
//!   plus a small tail just above the mmap threshold, so the byte total
//!   and the latency percentiles barely move from seed to seed while every
//!   document's content does.
//! * The on-disk corpus writer and the in-memory edit-script items.
//!
//! Every input's expected target verdict is fixed by construction and
//! cross-checked when it is generated: the document is parsed back from
//! its bytes and run through the tree-based [`FullValidator`] against
//! both schemas (edit items: against the committed edited tree).

use crate::rng::Rng;
use crate::run::{compile, Compiled};
use schemacast_core::FullValidator;
use schemacast_engine::CorpusOptions;
use schemacast_regex::Alphabet;
use schemacast_tree::{DeltaDoc, Doc, Edit, NodeId, WhitespaceMode};
use schemacast_workload::purchase_order as po;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// The corpus pipeline's mmap threshold: files at least this large are
/// mapped, smaller ones read into a reused buffer.
pub fn mmap_threshold() -> u64 {
    CorpusOptions::default().mmap_threshold
}

/// Files per corpus subdirectory.
const SHARD: usize = 1000;

/// A source → target pair of the schema family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pair {
    /// `po_maxex200 → po_target`: quantity `maxExclusive` 200 → 100, so
    /// every item is entered and its quantity value-checked (Experiment 2).
    Values,
    /// `po_source → po_target`: `billTo` optional → required; the `items`
    /// pair is subsumed (Experiment 1).
    BillTo,
    /// [`Pair::BillTo`] with an optional `comment` in `Item`, between
    /// `USPrice` and `shipDate` (as in the W3C primer). Edits that add or
    /// drop it are what the static and script skip routes decide.
    BillToComment,
}

impl Pair {
    /// The source schema text.
    pub fn source_xsd(self) -> String {
        match self {
            Pair::Values => po::source_maxex200_xsd(),
            Pair::BillTo => po::source_xsd(),
            Pair::BillToComment => with_item_comment(&po::source_xsd()),
        }
    }

    /// The target schema text (`po_target`, with the item `comment` for
    /// [`Pair::BillToComment`]).
    pub fn target_xsd(self) -> String {
        match self {
            Pair::Values | Pair::BillTo => po::target_xsd(),
            Pair::BillToComment => with_item_comment(&po::target_xsd()),
        }
    }
}

/// Inserts an optional reference to the global `comment` element before
/// `Item`'s `shipDate`.
fn with_item_comment(xsd: &str) -> String {
    const SHIP_DATE: &str = r#"<xsd:element name="shipDate""#;
    assert!(xsd.contains(SHIP_DATE), "Item declares shipDate");
    xsd.replacen(
        SHIP_DATE,
        &format!("<xsd:element ref=\"comment\" minOccurs=\"0\"/>\n      {SHIP_DATE}"),
        1,
    )
}

// ---------------------------------------------------------------- shapes

/// How many inputs a run generates.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Name on the command line.
    pub name: &'static str,
    /// Documents in an on-disk corpus.
    pub corpus_docs: usize,
    /// Items in the edit-script batch.
    pub edit_items: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub const FULL: Scale = Scale {
        name: "full",
        corpus_docs: 2000,
        edit_items: 1000,
    };
    /// A scale small enough for unit tests (still one tail document).
    pub const TINY: Scale = Scale {
        name: "tiny",
        corpus_docs: 120,
        edit_items: 140,
    };
}

/// Body item counts: log-uniform over the range of the paper's Table 2
/// (2 to 1000 items, the repository's `ITEM_COUNTS`), so every decade of
/// that range gets the same share of documents. The mean is about 160
/// items (~25 KB). No body document reaches the mmap threshold.
const BODY: (f64, f64) = (2.0, 1000.0);
/// Tail item counts: log-uniform from the smallest count whose document
/// crosses the mmap threshold whatever its quantities to 10 % above it,
/// so the tail exercises the mapped branch with the smallest files that
/// take it.
const TAIL: (f64, f64) = (1752.0, 1930.0);
/// Share of documents in the tail: twice p99's share, so the corpus
/// workloads' p99 falls in the middle of one size class (and on
/// `warm_edits`, whose 1 % of rewritten files are misses, not on the
/// boundary between misses and hits). At least 1 document.
const TAIL_SHARE: f64 = 0.02;

/// One document's size class and role, before content is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Item count.
    pub items: usize,
    /// In the tail (mmapped by the corpus pipeline).
    pub tail: bool,
    /// Carries the workload's rejection (bad quantity / missing `billTo`).
    pub flagged: bool,
    /// Rewritten before every warm run.
    pub edited: bool,
}

/// `count` systematic picks out of `len` strata positions, every `every`
/// positions from a seeded offset: an exact count spread evenly over the
/// size order.
fn systematic(rng: &mut Rng, len: usize, every: usize) -> Vec<bool> {
    let mut pick = vec![false; len];
    let count = len / every;
    let offset = rng.below(every as u64) as usize;
    for t in 0..count {
        pick[offset + every * t] = true;
    }
    pick
}

/// Stratified shapes for `n` documents: stratum `j` of each class draws
/// its quantile from `[j/m, (j+1)/m)`, so totals repeat across seeds.
/// Flagged documents are every 20th (5 %) and edited ones every 100th
/// (1 %) of each class in size order; the shapes are then shuffled over
/// document indices.
pub fn shapes(seed: u64, n: usize, tail_share: f64) -> Vec<Shape> {
    let mut rng = Rng::derive(seed, "shapes", 0);
    let n_tail = if tail_share > 0.0 {
        ((n as f64 * tail_share).round() as usize).max(1)
    } else {
        0
    };
    let n_body = n - n_tail;
    let mut out = Vec::with_capacity(n);
    for (len, (lo, hi), tail) in [(n_body, BODY, false), (n_tail, TAIL, true)] {
        let flagged = systematic(&mut rng, len, 20);
        let edited = systematic(&mut rng, len, 100);
        for j in 0..len {
            let u = (j as f64 + rng.unit()) / len as f64;
            out.push(Shape {
                items: (lo * (hi / lo).powf(u)) as usize,
                tail,
                flagged: flagged[j],
                edited: edited[j],
            });
        }
    }
    rng.shuffle(&mut out);
    out
}

// -------------------------------------------------------------- documents

/// A purchase order from `schemacast_workload`'s generator with seeded
/// quantities, optionally an empty `comment` in item `comment_at`,
/// serialized as its experiment files are, plus a trailing comment naming
/// the document and a tag: every file's bytes (and content hash) are
/// distinct, and a rewrite with a new tag changes them without changing
/// the verdict.
fn render(
    alphabet: &mut Alphabet,
    items: usize,
    bill_to: bool,
    quantities: &[u32],
    comment_at: Option<usize>,
    index: usize,
    tag: &str,
) -> String {
    let mut doc = po::generate_document_with(alphabet, items, bill_to, |i| quantities[i]);
    if let Some(k) = comment_at {
        let items_node = *doc.children(doc.root()).last().expect("items");
        let item = doc.children(items_node)[k];
        let comment = alphabet.intern("comment");
        doc.insert_element(item, 3, comment);
    }
    let mut s = schemacast_xml::to_pretty_string(&doc.to_xml(alphabet));
    let _ = writeln!(s, "<!-- doc {index} tag {tag} -->");
    s
}

/// Seeded quantities in `1..100` (valid for every schema of the family).
fn quantities(rng: &mut Rng, items: usize) -> Vec<u32> {
    (0..items).map(|_| rng.range(1, 100) as u32).collect()
}

/// The full-validation oracle: its own session and schema compile,
/// independent of anything the benchmark measures.
pub struct Oracle(Compiled);

impl Oracle {
    /// Compiles a pair.
    pub fn new(pair: Pair) -> Oracle {
        Oracle(compile(pair))
    }

    /// Parses `text` into a tree over the oracle's alphabet.
    fn doc(&mut self, text: &str) -> Option<Doc> {
        let xml = schemacast_xml::parse_document(text).ok()?;
        Some(Doc::from_xml(
            &xml.root,
            &mut self.0.session.alphabet,
            WhitespaceMode::Trim,
        ))
    }

    /// Whether `doc` is source-valid and its target verdict is `expected`.
    fn agrees(&self, doc: &Doc, expected: bool) -> bool {
        FullValidator::new(&self.0.source).validate(doc).is_valid()
            && FullValidator::new(&self.0.target).validate(doc).is_valid() == expected
    }

    /// Whether `doc` is source-valid, `edits` apply to it, and the
    /// committed result's target verdict is `expected`.
    fn agrees_edited(&self, doc: &Doc, edits: &[Edit], expected: bool) -> bool {
        let mut dd = DeltaDoc::new(doc.clone());
        FullValidator::new(&self.0.source).validate(doc).is_valid()
            && dd.apply_all(edits).is_ok()
            && FullValidator::new(&self.0.target)
                .validate(&dd.committed())
                .is_valid()
                == expected
    }
}

// ----------------------------------------------------------------- corpus

/// Which corpus to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    /// Valid for `po_maxex200`; flagged documents carry one quantity in
    /// `100..200` halfway through their items.
    Values,
    /// Valid for `po_source`; flagged documents lack `billTo`.
    Skip,
}

impl CorpusKind {
    /// The schema pair the corpus is cast under.
    pub fn pair(self) -> Pair {
        match self {
            CorpusKind::Values => Pair::Values,
            CorpusKind::Skip => Pair::BillTo,
        }
    }
}

/// A generated on-disk corpus.
#[derive(Debug)]
pub struct Corpus {
    /// Root directory (walked by the pipeline).
    pub dir: PathBuf,
    /// File paths in walk order (= index order).
    pub paths: Vec<PathBuf>,
    /// Expected target verdict per file.
    pub expected: Vec<bool>,
    /// Size per file.
    pub bytes: Vec<u64>,
    /// Indices rewritten before each warm run.
    pub edited: Vec<usize>,
    /// Documents whose bytes disagreed with the oracle at generation.
    pub oracle_mismatches: usize,
    kind: CorpusKind,
    seed: u64,
    shapes: Vec<Shape>,
    /// Labels for rendering.
    alphabet: Alphabet,
}

impl Corpus {
    /// Generates `n` documents under `dir` (which must not exist yet).
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn generate(dir: &Path, kind: CorpusKind, n: usize, seed: u64) -> io::Result<Corpus> {
        let shapes = shapes(seed, n, TAIL_SHARE);
        let mut oracle = Oracle::new(kind.pair());
        let mut corpus = Corpus {
            dir: dir.to_path_buf(),
            paths: Vec::with_capacity(n),
            expected: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n),
            edited: (0..n).filter(|&i| shapes[i].edited).collect(),
            oracle_mismatches: 0,
            kind,
            seed,
            shapes,
            alphabet: Alphabet::new(),
        };
        for i in 0..n {
            let path = dir
                .join(format!("d{:03}", i / SHARD))
                .join(format!("doc{i:06}.xml"));
            if i % SHARD == 0 {
                std::fs::create_dir_all(path.parent().expect("sharded path has a parent"))?;
            }
            let text = corpus.text(i, "gen");
            let expected = !corpus.shapes[i].flagged;
            let agrees = oracle
                .doc(&text)
                .is_some_and(|doc| oracle.agrees(&doc, expected));
            if !agrees {
                corpus.oracle_mismatches += 1;
            }
            std::fs::write(&path, &text)?;
            corpus.paths.push(path);
            corpus.expected.push(expected);
            corpus.bytes.push(text.len() as u64);
        }
        Ok(corpus)
    }

    /// Document `i`'s bytes under a tag.
    fn text(&mut self, i: usize, tag: &str) -> String {
        let shape = self.shapes[i];
        let mut rng = Rng::derive(self.seed, "corpus-doc", i as u64);
        let mut quantities = quantities(&mut rng, shape.items);
        let mut bill_to = true;
        if shape.flagged {
            match self.kind {
                CorpusKind::Values => {
                    quantities[shape.items / 2] = rng.range(100, 200) as u32;
                }
                CorpusKind::Skip => bill_to = false,
            }
        }
        render(
            &mut self.alphabet,
            shape.items,
            bill_to,
            &quantities,
            None,
            i,
            tag,
        )
    }

    /// Rewrites document `i` with a fresh tag: new bytes, same verdict.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn rewrite(&mut self, i: usize, tag: &str) -> io::Result<()> {
        let text = self.text(i, tag);
        // A new file rather than a truncated one: ext4 starts writeback of
        // a file truncated and rewritten in place, and that disk traffic
        // would overlap the timed pass that follows.
        std::fs::remove_file(&self.paths[i])?;
        std::fs::write(&self.paths[i], &text)?;
        self.bytes[i] = text.len() as u64;
        Ok(())
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Share of bytes in files at or above `threshold`.
    pub fn mmap_share(&self, threshold: u64) -> f64 {
        let mapped: u64 = self.bytes.iter().filter(|&&b| b >= threshold).sum();
        mapped as f64 / self.total_bytes().max(1) as f64
    }

    /// Plants a wrong expected verdict (anti-vacuity tests).
    pub fn plant_wrong_expectation(&mut self, i: usize) {
        self.expected[i] = !self.expected[i];
    }
}

// ------------------------------------------------------------ edit items

/// The decision route an edit script is built to take in
/// `BatchEngine::validate_edited`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `SetText` on a quantity (value in `1..200`): Δ-mods fallback.
    SetQuantity,
    /// Delete a `shipDate` and its text: Δ-mods fallback, valid.
    DropShipDate,
    /// Delete `billTo` with all its descendants: Δ-mods fallback, invalid.
    DropBillTo,
    /// Delete an empty optional `comment` leaf: static skip, valid.
    DropComment,
    /// Insert an empty `comment` after `USPrice`: script skip, valid.
    InsertComment,
    /// Insert one empty `item`: static reject.
    InsertItem,
    /// Insert two empty `item`s at one site: script reject.
    InsertTwoItems,
}

/// Route shares, in per-mille of the batch.
const ROUTE_MIX: [(Route, usize); 7] = [
    (Route::SetQuantity, 250),
    (Route::DropShipDate, 120),
    (Route::DropBillTo, 80),
    (Route::DropComment, 150),
    (Route::InsertComment, 150),
    (Route::InsertItem, 125),
    (Route::InsertTwoItems, 125),
];

/// One edit item before it is bound to an alphabet: the document's bytes
/// plus the script as a route and its parameters.
#[derive(Debug, Clone)]
pub struct EditPlan {
    /// The original document (valid for `po_source`, with `billTo`).
    pub text: String,
    /// Intended route.
    pub route: Route,
    /// The item the script touches.
    item: usize,
    /// New quantity for [`Route::SetQuantity`].
    quantity: u32,
    /// Expected target verdict of the edited document.
    pub expected: bool,
}

/// Edit items for `n` documents drawn from the body distribution, routes
/// assigned in exact shares; with `check`, each is checked against the
/// oracle on the committed edited tree. Returns the plans and the oracle
/// mismatches.
pub fn edit_plans(seed: u64, n: usize, check: bool) -> (Vec<EditPlan>, usize) {
    let shapes = shapes(seed, n, 0.0);
    let mut routes: Vec<Route> = Vec::with_capacity(n);
    for (route, per_mille) in ROUTE_MIX {
        routes.extend(std::iter::repeat_n(route, n * per_mille / 1000));
    }
    while routes.len() < n {
        routes.push(Route::SetQuantity);
    }
    let mut rng = Rng::derive(seed, "edit-routes", 0);
    rng.shuffle(&mut routes);

    let mut oracle = Oracle::new(Pair::BillToComment);
    let mut alphabet = Alphabet::new();
    let mut mismatches = 0;
    let plans: Vec<EditPlan> = (0..n)
        .map(|i| {
            let mut rng = Rng::derive(seed, "edit-doc", i as u64);
            let route = routes[i];
            let len = shapes[i].items;
            let quantities = quantities(&mut rng, len);
            // The generator gives every even-numbered item a shipDate.
            let item = if route == Route::DropShipDate {
                2 * rng.below(len.div_ceil(2) as u64) as usize
            } else {
                rng.below(len as u64) as usize
            };
            let comment_at = (route == Route::DropComment).then_some(item);
            let quantity = rng.range(1, 200) as u32;
            let expected = match route {
                Route::SetQuantity => quantity < 100,
                Route::DropShipDate | Route::DropComment | Route::InsertComment => true,
                Route::DropBillTo | Route::InsertItem | Route::InsertTwoItems => false,
            };
            let plan = EditPlan {
                text: render(&mut alphabet, len, true, &quantities, comment_at, i, "edit"),
                route,
                item,
                quantity,
                expected,
            };
            let agrees = !check
                || plan
                    .bind(&mut oracle.0.session.alphabet)
                    .is_some_and(|(doc, edits)| oracle.agrees_edited(&doc, &edits, plan.expected));
            if !agrees {
                mismatches += 1;
            }
            plan
        })
        .collect();
    (plans, mismatches)
}

impl EditPlan {
    /// Parses the document over `alphabet` and builds its edit script.
    /// `None` if the document does not have the expected shape.
    pub fn bind(&self, alphabet: &mut Alphabet) -> Option<(Doc, Vec<Edit>)> {
        let xml = schemacast_xml::parse_document(&self.text).ok()?;
        let doc = Doc::from_xml(&xml.root, alphabet, WhitespaceMode::Trim);
        let root = doc.root();
        let items = *doc.children(root).last()?;
        let item = *doc.children(items).get(self.item)?;
        let child = |label: &str| -> Option<NodeId> {
            let sym = alphabet.lookup(label)?;
            doc.children(item)
                .iter()
                .copied()
                .find(|&c| doc.label(c) == Some(sym))
        };
        let text_of = |node: NodeId| doc.children(node).first().copied();
        let edits = match self.route {
            Route::SetQuantity => vec![Edit::SetText {
                node: text_of(child("quantity")?)?,
                text: self.quantity.to_string(),
            }],
            Route::DropShipDate => {
                let date = child("shipDate")?;
                vec![
                    Edit::DeleteLeaf {
                        node: text_of(date)?,
                    },
                    Edit::DeleteLeaf { node: date },
                ]
            }
            Route::DropBillTo => {
                let bill = *doc.children(root).get(1)?;
                let mut edits = Vec::new();
                for &field in doc.children(bill) {
                    edits.extend(
                        doc.children(field)
                            .iter()
                            .map(|&t| Edit::DeleteLeaf { node: t }),
                    );
                    edits.push(Edit::DeleteLeaf { node: field });
                }
                edits.push(Edit::DeleteLeaf { node: bill });
                edits
            }
            Route::DropComment => vec![Edit::DeleteLeaf {
                node: child("comment")?,
            }],
            Route::InsertComment => vec![Edit::InsertElement {
                parent: item,
                position: 3,
                label: alphabet.lookup("comment")?,
            }],
            Route::InsertItem | Route::InsertTwoItems => {
                let label = alphabet.lookup("item")?;
                let count = if self.route == Route::InsertItem {
                    1
                } else {
                    2
                };
                (0..count)
                    .map(|_| Edit::InsertElement {
                        parent: items,
                        position: self.item,
                        label,
                    })
                    .collect()
            }
        };
        Some((doc, edits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_repeat_per_seed_and_keep_their_strata() {
        let a = shapes(3, 500, TAIL_SHARE);
        assert_eq!(a, shapes(3, 500, TAIL_SHARE));
        assert_ne!(a, shapes(4, 500, TAIL_SHARE));
        assert_eq!(a.iter().filter(|s| s.tail).count(), 10);
        assert_eq!(a.iter().filter(|s| s.flagged).count(), 490 / 20);
        assert_eq!(a.iter().filter(|s| s.edited).count(), 490 / 100);
        assert!(a
            .iter()
            .filter(|s| s.tail)
            .all(|s| s.items >= TAIL.0 as usize && s.items < TAIL.1 as usize));
        assert!(a
            .iter()
            .filter(|s| !s.tail)
            .all(|s| s.items >= BODY.0 as usize && s.items < BODY.1 as usize));
    }

    #[test]
    fn tail_documents_cross_the_mmap_threshold() {
        let mut alphabet = Alphabet::new();
        // Smallest and largest documents of an item count: one- and
        // two-digit quantities.
        let mut size = |items: usize, quantity: u32| {
            let q = vec![quantity; items];
            render(&mut alphabet, items, true, &q, None, 0, "gen").len() as u64
        };
        let (lo, hi) = (TAIL.0 as usize, BODY.1 as usize);
        assert!(size(lo, 1) >= mmap_threshold());
        assert!(size(lo - 1, 1) < mmap_threshold());
        assert!(size(hi, 99) < mmap_threshold());
    }

    #[test]
    fn every_route_agrees_with_the_oracle() {
        let (plans, mismatches) = edit_plans(11, 200, true);
        assert_eq!(mismatches, 0);
        for (route, _) in ROUTE_MIX {
            assert!(plans.iter().any(|p| p.route == route), "{route:?}");
        }
    }
}
