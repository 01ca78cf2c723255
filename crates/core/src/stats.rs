//! Validation statistics — the instrumentation behind Table 3 and the
//! cost accounting of every benchmark.

use std::ops::AddAssign;

/// Declares [`ValidationStats`] and its field-wise `AddAssign` from one
/// field list, so a new counter cannot be left out of the fold.
macro_rules! counters {
    ($(#[$attr:meta])* pub struct $name:ident {
        $($(#[$doc:meta])* pub $field:ident: usize,)*
    }) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[$doc])* pub $field: usize,)*
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                $(self.$field += rhs.$field;)*
            }
        }

        #[cfg(test)]
        impl $name {
            /// Every counter, in declaration order.
            fn fields_mut(&mut self) -> Vec<&mut usize> {
                vec![$(&mut self.$field),*]
            }
        }
    };
}

counters! {
    /// Counters collected during one validation run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ValidationStats {
        /// Tree nodes the validator descended into (the paper's "nodes visited",
        /// Table 3). Skipped subtrees contribute only their root.
        pub nodes_visited: usize,
        /// Symbols consumed by content-model automata.
        pub content_symbols_scanned: usize,
        /// Subtrees skipped because their type pair is in `R_sub`.
        pub subsumed_skips: usize,
        /// Validations cut short because a type pair is disjoint.
        pub disjoint_rejects: usize,
        /// Content-model checks decided early by an immediate-accept state.
        pub ida_early_accepts: usize,
        /// Content-model checks decided early by an immediate-reject state.
        pub ida_early_rejects: usize,
        /// Subtrees validated from scratch (inserted content, or no source
        /// type available).
        pub full_validations: usize,
        /// Simple values checked against facets.
        pub value_checks: usize,
        /// Edited documents accepted by the static fast path (all edits
        /// statically `Safe`; the edited subtrees were never inspected).
        pub static_skips: usize,
        /// Edited documents rejected by the static fast path (some edit
        /// statically `Unsafe`; the document was never inspected).
        pub static_rejects: usize,
        /// Edited documents accepted by the *script-level* analyzer: the
        /// whole script's net effect per touched site was statically decided
        /// valid, after normalization, without applying the edits.
        pub script_skips: usize,
        /// Edited documents rejected by the script-level analyzer: some
        /// site's net child word can never be target-valid.
        pub script_rejects: usize,
        /// Raw bytes the streaming validator scanned past without tokenization
        /// (lexical subtree skipping). Tree validators and the depth-counting
        /// event path leave this 0 — the bytes of a skipped subtree are still
        /// *read* by the scanner's state machine, but never lexed into names,
        /// attributes, or entity-resolved text.
        pub bytes_skipped: usize,
        /// Start/end tag events that were never tokenized because the subtree
        /// containing them was skipped lexically. A self-closing tag counts as
        /// two (the `Start`/`End` pair it would have produced); the skipped
        /// element's own end tag is included.
        pub events_avoided: usize,
        /// Wall-clock microseconds spent building the stage-1 structural index
        /// (the tape) before streaming validation. Paths that do not build a
        /// tape (tree validators, the generic event path) leave this 0.
        pub index_build_micros: usize,
        /// Structural tape entries produced by the stage-1 indexer for the
        /// validated document(s).
        pub tape_events: usize,
        /// Subtree skips served as O(1) tape hops (cursor jump to the matching
        /// end tag's tape entry) rather than byte rescans. On the tape-fed
        /// path every lexical skip is a hop; the scalar reference lexer and
        /// the depth-counting event path leave this 0.
        pub tape_skip_hops: usize,
        /// Certificates emitted by the certification pass (`--certify`): every
        /// static claim packaged for the independent checker.
        pub certs_emitted: usize,
        /// Objects the independent checker examined (DFA tables plus
        /// certificates of every kind).
        pub certs_checked: usize,
        /// Wall-clock microseconds the independent checker spent validating.
        pub cert_check_micros: usize,
    }
}

/// The result of a validation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastOutcome {
    /// The document is valid with respect to the target schema.
    Valid,
    /// The document is not valid with respect to the target schema.
    Invalid,
}

impl CastOutcome {
    /// Whether the outcome is [`CastOutcome::Valid`].
    pub fn is_valid(self) -> bool {
        matches!(self, CastOutcome::Valid)
    }

    /// Builds an outcome from a boolean.
    pub fn from_bool(b: bool) -> CastOutcome {
        if b {
            CastOutcome::Valid
        } else {
            CastOutcome::Invalid
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut a = ValidationStats {
            nodes_visited: 3,
            content_symbols_scanned: 5,
            ..Default::default()
        };
        let b = ValidationStats {
            nodes_visited: 2,
            subsumed_skips: 1,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.nodes_visited, 5);
        assert_eq!(a.content_symbols_scanned, 5);
        assert_eq!(a.subsumed_skips, 1);

        // Every field accumulates into itself.
        let (mut a, mut b) = (ValidationStats::default(), ValidationStats::default());
        for (i, (x, y)) in a.fields_mut().into_iter().zip(b.fields_mut()).enumerate() {
            *x = i + 1;
            *y = 100 * (i + 1);
        }
        a += b;
        for (i, x) in a.fields_mut().into_iter().enumerate() {
            assert_eq!(*x, 101 * (i + 1), "field {i}");
        }
    }

    #[test]
    fn outcome_helpers() {
        assert!(CastOutcome::Valid.is_valid());
        assert!(!CastOutcome::Invalid.is_valid());
        assert_eq!(CastOutcome::from_bool(true), CastOutcome::Valid);
        assert_eq!(CastOutcome::from_bool(false), CastOutcome::Invalid);
    }
}
