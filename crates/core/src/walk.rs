//! The §3.2 walk, written once.
//!
//! Every tree revalidation in this crate is one top-down pass: type each
//! element against the target (and the source, where known), skip or reject
//! it on `R_sub`/`R_dis`, check its simple value or child word, and type its
//! children. The paper's algorithms differ only in which elements may be
//! skipped or pruned and in what is known about their content, so each is a
//! [`Policy`] over the one kernel:
//!
//! * [`Pristine`] — the §3.2 cast of an unedited document
//!   ([`CastContext::validate`], [`crate::explain`]);
//! * `Exemptions` (in [`crate::safety`]) — the static fast path's walk over
//!   the original document: edited sites are skipped, their ancestors are
//!   not pruned;
//! * `Edited` (in [`crate::mods`]) — the §3.3 walk over the new view of a
//!   Δ-encoded tree, navigating the `modified(v)` trie in parallel.
//!
//! [`Walker::walk`] keeps its pending elements on an explicit work stack, so
//! document depth never consumes call-stack frames. [`Walker::step`] is the
//! per-element step; the §3.4 label-indexed DTD validator calls it directly.

use crate::cast::CastContext;
use crate::stats::ValidationStats;
use schemacast_automata::IdaOutcome;
use schemacast_regex::Sym;
use schemacast_schema::{ComplexType, TypeDef, TypeId};
use schemacast_tree::{Doc, NodeId, NodeKind};

/// How the walk treats one element, as its policy decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Count the subtree valid without inspecting it.
    Skip,
    /// Check the subtree against the target alone, consulting the policy no
    /// further (no source typing, or inserted content). Counted in
    /// `full_validations`.
    Full,
    /// The §3.2 step; `prune` (sound only on source-valid subtrees) allows
    /// the `R_sub` skip and `R_dis` reject.
    Cast { prune: bool },
    /// The §3.3 step for an element whose subtree holds an edit: no
    /// pruning, and the new child word is revalidated against the old one.
    Modified,
}

/// What varies between the walks.
pub(crate) trait Policy {
    /// State passed from an element to its children (the Δ trie cursor).
    type Mark: Copy;

    /// Routes an element whose source type is `src` (`None`: unknown, so
    /// neither pruning nor the product IDA applies to it).
    fn route(&self, node: NodeId, src: Option<TypeId>, mark: Self::Mark) -> Route;

    /// The mark of the child at `index` in its parent's full child list.
    fn child_mark(&self, mark: Self::Mark, index: usize) -> Self::Mark;

    /// Whether a child is a deleted placeholder, absent from the new view.
    fn deleted(&self, _node: NodeId) -> bool {
        false
    }

    /// A live child's label in the source document (`None`: inserted).
    fn old_label(&self, _node: NodeId, label: Sym) -> Option<Sym> {
        Some(label)
    }

    /// §4.3 for a [`Route::Modified`] element with complex source type
    /// `src`: whether its new child word `new` is in `tgt`'s content model,
    /// or `None` when the old word is unavailable (the target DFA decides).
    fn revalidate(
        &self,
        _node: NodeId,
        _src: TypeId,
        _tgt: TypeId,
        _new: &[Sym],
        _stats: &mut ValidationStats,
    ) -> Option<bool> {
        None
    }
}

/// The plain §3.2 cast of an unedited, source-valid document.
pub(crate) struct Pristine;

impl Policy for Pristine {
    type Mark = ();

    fn route(&self, _node: NodeId, src: Option<TypeId>, (): ()) -> Route {
        match src {
            Some(_) => Route::Cast { prune: true },
            None => Route::Full,
        }
    }

    fn child_mark(&self, (): (), _index: usize) {}
}

/// Why an element fails the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reason {
    /// The root label has no target root type.
    Root,
    /// The source and target types are disjoint.
    Disjoint { src: TypeId, tgt: TypeId },
    /// More than one child, or an element child, where text is expected.
    NotSimple,
    /// The simple value violates this target type.
    Value(TypeId),
    /// Character data among element children.
    Text,
    /// The child word is not in this target type's content model.
    Content(TypeId),
}

/// The first failing element in document order, and why it fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Failure {
    pub(crate) node: NodeId,
    pub(crate) reason: Reason,
}

/// The per-element step over one document, with a reusable label buffer.
pub(crate) struct Walker<'w, 'a, P> {
    ctx: &'w CastContext<'a>,
    doc: &'w Doc,
    policy: &'w P,
    /// The live child labels of the element last stepped.
    labels: Vec<Sym>,
}

impl<'w, 'a, P: Policy> Walker<'w, 'a, P> {
    pub(crate) fn new(ctx: &'w CastContext<'a>, doc: &'w Doc, policy: &'w P) -> Self {
        Walker {
            ctx,
            doc,
            policy,
            labels: Vec::new(),
        }
    }

    /// The children that count for validation: no indentation whitespace,
    /// no deleted placeholders.
    fn live(&self, node: NodeId) -> impl DoubleEndedIterator<Item = (usize, NodeId)> + 'w {
        let (doc, policy) = (self.doc, self.policy);
        doc.children(node)
            .iter()
            .copied()
            .enumerate()
            .filter(move |&(_, c)| !doc.is_ignorable_ws(c) && !policy.deleted(c))
    }

    /// Visits `node` against target type `tgt` (source type `src`): prunes
    /// on the relations when `route` allows it, then checks the simple
    /// value or the child word. Returns the target complex type whose
    /// children still need typing (their labels are left in the buffer),
    /// or `None` when the element is done.
    pub(crate) fn step(
        &mut self,
        node: NodeId,
        src: Option<TypeId>,
        tgt: TypeId,
        route: Route,
        stats: &mut ValidationStats,
    ) -> Result<Option<&'w ComplexType>, Reason> {
        let ctx = self.ctx;
        stats.nodes_visited += 1;
        if let (Some(s), Route::Cast { prune: true }) = (src, route) {
            if ctx.options().use_subsumption && ctx.relations().subsumed(s, tgt) {
                stats.subsumed_skips += 1;
                return Ok(None);
            }
            if ctx.options().use_disjointness && ctx.relations().disjoint(s, tgt) {
                stats.disjoint_rejects += 1;
                return Err(Reason::Disjoint { src: s, tgt });
            }
        }
        let doc = self.doc;
        let mut live = self.live(node).map(|(_, c)| c);
        let c_tgt = match ctx.target().type_def(tgt) {
            TypeDef::Simple(simple) => {
                stats.value_checks += 1;
                let valid = match (live.next(), live.next()) {
                    (None, _) => simple.validate(""),
                    (Some(only), None) => {
                        stats.nodes_visited += 1;
                        match doc.kind(only) {
                            NodeKind::Text(text) => simple.validate(text),
                            NodeKind::Element(_) => return Err(Reason::NotSimple),
                        }
                    }
                    (Some(_), Some(_)) => return Err(Reason::NotSimple),
                };
                return if valid {
                    Ok(None)
                } else {
                    Err(Reason::Value(tgt))
                };
            }
            TypeDef::Complex(c_tgt) => c_tgt,
        };
        self.labels.clear();
        for child in live {
            self.labels.push(doc.label(child).ok_or(Reason::Text)?);
        }
        if self.content(node, src, tgt, c_tgt, route, stats) {
            Ok(Some(c_tgt))
        } else {
            Err(Reason::Content(tgt))
        }
    }

    /// Content-model membership of the buffered child word: the §4.3
    /// revalidation for modified elements, the product IDA when the source
    /// type is complex (the word is then known to be in the source model),
    /// else the target DFA.
    fn content(
        &self,
        node: NodeId,
        src: Option<TypeId>,
        tgt: TypeId,
        c_tgt: &ComplexType,
        route: Route,
        stats: &mut ValidationStats,
    ) -> bool {
        let ctx = self.ctx;
        let src = src
            .filter(|&s| ctx.options().use_ida && ctx.source().type_def(s).as_complex().is_some());
        if let Some(s) = src {
            if route != Route::Modified {
                let out = ctx.product_ida(s, tgt).run(&self.labels);
                stats.content_symbols_scanned += out.consumed();
                return match out {
                    IdaOutcome::Accept { early, .. } => {
                        stats.ida_early_accepts += usize::from(early);
                        true
                    }
                    IdaOutcome::Reject { early, .. } => {
                        stats.ida_early_rejects += usize::from(early);
                        false
                    }
                };
            }
            if let Some(accepted) = self.policy.revalidate(node, s, tgt, &self.labels, stats) {
                return accepted;
            }
        }
        stats.content_symbols_scanned += self.labels.len();
        c_tgt.dfa.accepts(&self.labels)
    }

    /// Walks the subtree of `node` (source type `src`, target type `tgt`)
    /// in document order under the policy, stopping at the first failure.
    pub(crate) fn walk(
        mut self,
        node: NodeId,
        src: Option<TypeId>,
        tgt: TypeId,
        mark: P::Mark,
        stats: &mut ValidationStats,
    ) -> Result<(), Failure> {
        let (ctx, policy) = (self.ctx, self.policy);
        // A `None` mark is a target-only subtree: the policy is not consulted.
        let mut work = vec![(node, src, tgt, Some(mark))];
        while let Some((node, mut src, tgt, mut mark)) = work.pop() {
            let route = match mark {
                None => Route::Full,
                Some(m) => match policy.route(node, src, m) {
                    Route::Skip => continue,
                    Route::Full => {
                        stats.full_validations += 1;
                        (src, mark) = (None, None);
                        Route::Full
                    }
                    route => route,
                },
            };
            let fail = |reason| Err(Failure { node, reason });
            let c_tgt = match self.step(node, src, tgt, route, stats) {
                Ok(Some(c_tgt)) => c_tgt,
                Ok(None) => continue,
                Err(reason) => return fail(reason),
            };
            let c_src = src.and_then(|s| ctx.source().type_def(s).as_complex());
            // Push in reverse so children are processed in document order.
            for ((index, child), &label) in self.live(node).rev().zip(self.labels.iter().rev()) {
                let Some(child_tgt) = c_tgt.child_type(label) else {
                    return fail(Reason::Content(tgt));
                };
                let child_src = c_src.and_then(|c| c.child_type(policy.old_label(child, label)?));
                let child_mark = mark.map(|m| policy.child_mark(m, index));
                work.push((child, child_src, child_tgt, child_mark));
            }
        }
        Ok(())
    }

    /// [`Walker::walk`] from the document root, typed by its label in both
    /// schemas.
    pub(crate) fn walk_doc(
        self,
        mark: P::Mark,
        stats: &mut ValidationStats,
    ) -> Result<(), Failure> {
        let (ctx, root) = (self.ctx, self.doc.root());
        let types = self
            .doc
            .label(root)
            .and_then(|l| Some((ctx.source().root_type(l), ctx.target().root_type(l)?)));
        let Some((src, tgt)) = types else {
            return Err(Failure {
                node: root,
                reason: Reason::Root,
            });
        };
        self.walk(root, src, tgt, mark, stats)
    }
}
