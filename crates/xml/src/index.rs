//! The stage-1 structural index: one SWAR classification pass over the raw
//! document producing a compact *tape* of markup boundaries.
//!
//! This is the simdjson idea transplanted to XML. Before any tokenization
//! happens, [`StructuralIndex::build`] scans the input once with the
//! word-at-a-time kernels in [`crate::scan`], classifying every `<`, `>`,
//! `&`, `"`, `'` and the multi-byte delimiters (`<!--`/`-->`,
//! `<![CDATA[`/`]]>`, `<?`/`?>`, `<!DOCTYPE`) into a sequence of
//! [`TapeEntry`] records:
//!
//! * tag entries carry the offsets of their `<` and `>` (found with a
//!   quote-aware scan, so `>` inside attribute values cannot split a tag);
//! * text entries carry their byte span plus a *has-entity* flag (`&`
//!   presence is classified here, so the entity-free fast path never
//!   rescans the text);
//! * comments and processing instructions produce **no** entries — the
//!   tape-fed parser never visits them at all;
//! * start-tag entries are *paired* with their structurally matching end
//!   tag during the same pass (a plain open-tag stack), recording both the
//!   tape index to resume at and the number of tag events in between —
//!   which is what turns [`crate::PullParser::skip_subtree`] into an O(1)
//!   hop.
//!
//! The tape is deliberately **structural, not lexical**: names, attributes
//! and entities are still lexed by the pull parser, but only inside spans
//! whose boundaries the tape already knows. Malformed-markup errors
//! therefore surface at event time exactly like the scalar lexer's; only
//! unterminated-construct errors (comment/CDATA/PI/DOCTYPE that never
//! close) are discovered during the scan and recorded as a terminal
//! [`TapeError`] that the parser replays lazily — events before the error
//! point are still delivered, matching the scalar lexer's laziness.
//!
//! The index is reusable: [`StructuralIndex::rebuild`] clears and refills
//! the entry vector in place, so batch workers (one index per
//! `StreamScratch`) classify thousands of documents with zero steady-state
//! allocation.

use crate::scan;

/// What a [`TapeEntry`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A start tag `<name …>` (possibly self-closing).
    Open,
    /// An end tag `</name>`.
    Close,
    /// A character-data run between markup.
    Text,
    /// A CDATA section.
    Cdata,
    /// The `<!DOCTYPE …>` declaration (recognized only in the prolog,
    /// mirroring the scalar lexer).
    Doctype,
}

/// Bit flags on a [`TapeEntry`].
pub mod flags {
    /// The tag ends in `/>` (set on [`super::EntryKind::Open`]).
    pub const SELF_CLOSING: u8 = 1;
    /// The text span contains at least one `&` (set on
    /// [`super::EntryKind::Text`]).
    pub const HAS_AMP: u8 = 2;
    /// The tag's `>` was never found; its `b` offset is the end of input.
    /// Event-time lexing reproduces the scalar lexer's error for it.
    pub const UNCLOSED: u8 = 4;
    /// Every byte of the text span is XML whitespace (space, tab, CR, LF) —
    /// set on [`super::EntryKind::Text`]. The validator uses this as a
    /// *sound hint*: set means definitely ignorable between elements with
    /// no re-scan; clear means "unknown" (the span may still be Unicode
    /// whitespace, which the slow path re-checks). Entity-bearing spans
    /// never carry it: `&` is not whitespace, and what an entity expands
    /// to is event-time knowledge.
    pub const ALL_WS: u8 = 8;
}

/// One record on the structural tape. 20 bytes, plain data.
///
/// Field meaning by kind:
///
/// | kind      | `a`            | `b`                    | `c`              | `d`                 |
/// |-----------|----------------|------------------------|------------------|---------------------|
/// | `Open`    | offset of `<`  | offset of `>`          | resume tape idx  | tag events within   |
/// | `Close`   | offset of `<`  | offset of `>`          | —                | —                   |
/// | `Text`    | span start     | span end (exclusive)   | —                | —                   |
/// | `Cdata`   | offset of `<`  | offset of `]]>`        | —                | —                   |
/// | `Doctype` | offset of `<`  | offset past `>`        | —                | —                   |
///
/// For `Open`, `c` is the tape index just past the structurally matching
/// `Close` entry (`u32::MAX` when the subtree never closes) and `d` is the
/// number of start/end tag events strictly inside the subtree plus the
/// matching end tag itself (self-closing tags count as two) — exactly the
/// count [`crate::SubtreeSkip::events`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeEntry {
    /// Entry classification.
    pub kind: EntryKind,
    /// Bit flags from [`flags`].
    pub flags: u8,
    /// First offset (see table).
    pub a: u32,
    /// Second offset (see table).
    pub b: u32,
    /// `Open`: resume tape index past the matching close (`u32::MAX` if
    /// unmatched).
    pub c: u32,
    /// `Open`: tag events within the subtree (including the end tag).
    pub d: u32,
}

/// A scan error discovered while building the tape (an unterminated
/// construct). The parser replays it *after* delivering every event that
/// precedes the error point, matching the scalar lexer's laziness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeError {
    /// Byte offset the scalar lexer would report the error at.
    pub offset: usize,
    /// The scalar lexer's message for the same condition.
    pub message: &'static str,
}

/// The structural tape for one document. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct StructuralIndex {
    entries: Vec<TapeEntry>,
    error: Option<TapeError>,
    /// Open-tag pairing stack, kept as a field so `rebuild` reuses its
    /// allocation: `(entry index, tag-event count just after the open)`.
    opens: Vec<(u32, u32)>,
}

impl StructuralIndex {
    /// An empty index (build it with [`rebuild`](Self::rebuild)).
    pub fn new() -> StructuralIndex {
        StructuralIndex::default()
    }

    /// Builds the index for `input` in one pass.
    pub fn build(input: &str) -> StructuralIndex {
        let mut ix = StructuralIndex::new();
        ix.rebuild(input);
        ix
    }

    /// Clears and rebuilds the index in place, reusing allocations.
    pub fn rebuild(&mut self, input: &str) {
        self.entries.clear();
        self.opens.clear();
        self.error = None;
        Builder {
            bytes: input.as_bytes(),
            ix: self,
            tag_events: 0,
            in_prolog: true,
        }
        .run();
        self.opens.clear();
    }

    /// The tape entries in document order.
    pub fn entries(&self) -> &[TapeEntry] {
        &self.entries
    }

    /// Number of tape entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of start tags on the tape (self-closing ones included): the
    /// document's element count, when it is well-formed.
    pub fn element_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Open)
            .count()
    }

    /// The terminal scan error, if the document contains an unterminated
    /// construct. Entries before the error point are still present.
    pub fn error(&self) -> Option<TapeError> {
        self.error
    }
}

/// One tape-building pass. Separate from `StructuralIndex` so the entry
/// vector and pairing stack borrow-split cleanly.
struct Builder<'i, 'b> {
    bytes: &'b [u8],
    ix: &'i mut StructuralIndex,
    /// Running count of start/end tag events (self-closing counts two).
    tag_events: u32,
    /// Whether we are still in the prolog (only whitespace, comments, and
    /// PIs seen) — the only region where `<!DOCTYPE` is recognized.
    in_prolog: bool,
}

impl Builder<'_, '_> {
    fn run(&mut self) {
        // Offsets are stored as u32; refuse (gracefully) anything bigger.
        if u32::try_from(self.bytes.len()).is_err() {
            self.ix.error = Some(TapeError {
                offset: 0,
                message: "document larger than the 4 GiB structural-index limit",
            });
            return;
        }
        let mut pos = 0usize;
        while pos < self.bytes.len() {
            // One forward scan both finds the next `<` and classifies `&`
            // presence in the text run on the way — a separate
            // `contains_byte` pass over every span would double the bytes
            // the builder touches.
            let (lt, has_amp) = match scan::find_byte2(self.bytes, pos, b'<', b'&') {
                Some(i) if self.bytes[i] == b'<' => (Some(i), false),
                Some(amp) => (scan::find_byte(self.bytes, amp + 1, b'<'), true),
                None => (None, false),
            };
            let Some(lt) = lt else {
                self.text(pos, self.bytes.len(), has_amp);
                break;
            };
            if lt > pos {
                self.text(pos, lt, has_amp);
            }
            pos = match self.markup(lt) {
                Some(next) => next,
                None => return, // terminal scan error recorded
            };
        }
    }

    /// Classifies the markup starting at the `<` at `lt`; returns the next
    /// scan position, or `None` after recording a terminal error.
    fn markup(&mut self, lt: usize) -> Option<usize> {
        match self.bytes.get(lt + 1) {
            Some(b'!') => {
                if self.starts_with(lt, b"<!--") {
                    match scan::find_seq(self.bytes, lt + 4, b"-->") {
                        Some(end) => Some(end + 3),
                        None => self.fail(lt, "unterminated comment"),
                    }
                } else if self.starts_with(lt, b"<![CDATA[") {
                    match scan::find_seq(self.bytes, lt + 9, b"]]>") {
                        Some(end) => {
                            self.in_prolog = false;
                            self.push(EntryKind::Cdata, 0, lt, end);
                            Some(end + 3)
                        }
                        None => self.fail(lt, "unterminated CDATA section"),
                    }
                } else if self.in_prolog && self.starts_with(lt, b"<!DOCTYPE") {
                    self.doctype(lt)
                } else {
                    // `<!…` anywhere else lexes (and fails) as a start tag,
                    // exactly like the scalar lexer.
                    Some(self.open_tag(lt))
                }
            }
            Some(b'?') => match scan::find_seq(self.bytes, lt + 2, b"?>") {
                Some(end) => Some(end + 2),
                None => self.fail(lt, "unterminated processing instruction"),
            },
            Some(b'/') => {
                self.in_prolog = false;
                let idx = self.ix.entries.len() as u32;
                match scan::find_byte(self.bytes, lt + 2, b'>') {
                    Some(gt) => {
                        self.push(EntryKind::Close, 0, lt, gt);
                        self.tag_events += 1;
                        // Pair with the innermost open tag (structural
                        // pairing only; name matching is event-time work).
                        if let Some((open_idx, events_at_open)) = self.ix.opens.pop() {
                            let open = &mut self.ix.entries[open_idx as usize];
                            open.c = idx + 1;
                            open.d = self.tag_events - events_at_open;
                        }
                        Some(gt + 1)
                    }
                    None => {
                        // No `>` before EOF: event-time lexing reproduces
                        // the scalar "malformed end tag" error. Left
                        // unpaired so a skip cannot hop past it.
                        self.push_flagged(EntryKind::Close, flags::UNCLOSED, lt, self.bytes.len());
                        Some(self.bytes.len())
                    }
                }
            }
            _ => Some(self.open_tag(lt)),
        }
    }

    /// A start tag: quote-aware scan to its `>`.
    fn open_tag(&mut self, lt: usize) -> usize {
        self.in_prolog = false;
        let mut at = lt + 1;
        let gt = loop {
            match scan::find_byte3(self.bytes, at, b'>', b'"', b'\'') {
                Some(i) if self.bytes[i] == b'>' => break i,
                Some(i) => match scan::find_byte(self.bytes, i + 1, self.bytes[i]) {
                    Some(close_quote) => at = close_quote + 1,
                    None => {
                        // Unterminated attribute value: event-time lexing
                        // reproduces the scalar error.
                        self.push_flagged(EntryKind::Open, flags::UNCLOSED, lt, self.bytes.len());
                        return self.bytes.len();
                    }
                },
                None => {
                    self.push_flagged(EntryKind::Open, flags::UNCLOSED, lt, self.bytes.len());
                    return self.bytes.len();
                }
            }
        };
        let self_closing = gt > lt + 1 && self.bytes[gt - 1] == b'/';
        let idx = self.ix.entries.len() as u32;
        if self_closing {
            self.push_flagged(EntryKind::Open, flags::SELF_CLOSING, lt, gt);
            self.tag_events += 2;
        } else {
            self.push(EntryKind::Open, 0, lt, gt);
            self.tag_events += 1;
            self.ix.opens.push((idx, self.tag_events));
        }
        gt + 1
    }

    /// `<!DOCTYPE …>` with an optional `[internal subset]` — structural
    /// scan only; the parser re-lexes the details from the span.
    fn doctype(&mut self, lt: usize) -> Option<usize> {
        self.in_prolog = false;
        let mut at = lt + 9;
        loop {
            match scan::find_byte2(self.bytes, at, b'[', b'>') {
                Some(i) if self.bytes[i] == b'>' => {
                    self.push(EntryKind::Doctype, 0, lt, i + 1);
                    return Some(i + 1);
                }
                Some(open_bracket) => match scan::find_byte(self.bytes, open_bracket + 1, b']') {
                    Some(close_bracket) => at = close_bracket + 1,
                    None => {
                        return self.doctype_fail(
                            lt,
                            open_bracket + 1,
                            "unterminated internal DTD subset",
                        )
                    }
                },
                None => return self.doctype_fail(lt, self.bytes.len(), "unterminated DOCTYPE"),
            }
        }
    }

    /// A DOCTYPE declaration that never closes. The scalar lexer lexes the
    /// doctype *name* before it can notice the missing close, so a
    /// truncated `<!DOCTYPE` with a bad or absent name reports "expected a
    /// name" there — mirror that precedence for error parity.
    fn doctype_fail(&mut self, lt: usize, at: usize, message: &'static str) -> Option<usize> {
        let mut p = lt + "<!DOCTYPE".len();
        while p < self.bytes.len() && matches!(self.bytes[p], b' ' | b'\t' | b'\r' | b'\n') {
            p += 1;
        }
        if !self
            .bytes
            .get(p)
            .copied()
            .is_some_and(crate::pull::is_name_start)
        {
            return self.fail(p, "expected a name");
        }
        self.fail(at, message)
    }

    /// A character-data run `[start, end)` (never empty). `&` presence was
    /// classified by the caller's forward scan so the entity-free path
    /// never rescans the span.
    fn text(&mut self, start: usize, end: usize, has_amp: bool) {
        debug_assert!(start < end);
        debug_assert_eq!(has_amp, scan::contains_byte(self.bytes, start, end, b'&'));
        // One SWAR pass classifies the whole span as whitespace-only (or
        // not) at build time, so the validator never re-scans ignorable
        // text. Entity-bearing spans can never be all-whitespace (`&` is
        // not whitespace), so they skip the scan. This also subsumes the
        // prolog check — "still in the prolog" means exactly "nothing but
        // whitespace text so far", over the same four bytes.
        let ws_only = !has_amp && scan::all_ws(self.bytes, start, end);
        if self.in_prolog && !ws_only {
            self.in_prolog = false;
        }
        let mut entry_flags = 0;
        if has_amp {
            entry_flags |= flags::HAS_AMP;
        }
        if ws_only {
            entry_flags |= flags::ALL_WS;
        }
        self.push_flagged(EntryKind::Text, entry_flags, start, end);
    }

    fn push(&mut self, kind: EntryKind, entry_flags: u8, a: usize, b: usize) {
        self.push_flagged(kind, entry_flags, a, b);
    }

    fn push_flagged(&mut self, kind: EntryKind, entry_flags: u8, a: usize, b: usize) {
        self.ix.entries.push(TapeEntry {
            kind,
            flags: entry_flags,
            a: a as u32,
            b: b as u32,
            c: u32::MAX,
            d: 0,
        });
    }

    fn fail(&mut self, offset: usize, message: &'static str) -> Option<usize> {
        self.ix.error = Some(TapeError { offset, message });
        None
    }

    fn starts_with(&self, at: usize, prefix: &[u8]) -> bool {
        self.bytes[at..].starts_with(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(ix: &StructuralIndex) -> Vec<EntryKind> {
        ix.entries().iter().map(|e| e.kind).collect()
    }

    #[test]
    fn classifies_basic_markup() {
        let ix = StructuralIndex::build("<a x=\"1\"><b/>hi</a>");
        assert_eq!(
            kinds(&ix),
            vec![
                EntryKind::Open,
                EntryKind::Open,
                EntryKind::Text,
                EntryKind::Close
            ]
        );
        assert!(ix.error().is_none());
        let a = ix.entries()[0];
        assert_eq!((a.a, a.b), (0, 8));
        let b = ix.entries()[1];
        assert_ne!(b.flags & flags::SELF_CLOSING, 0);
        let text = ix.entries()[2];
        assert_eq!((text.a, text.b), (13, 15));
        assert_eq!(text.flags & flags::HAS_AMP, 0);
    }

    #[test]
    fn pairs_tags_with_resume_and_event_counts() {
        //                  0         1         2         3
        //                  0123456789012345678901234567890123456
        let ix = StructuralIndex::build("<r><skip><i></i><x/></skip><next/></r>");
        let entries = ix.entries();
        // r, skip, i, /i, x, /skip, next, /r
        let skip = entries[1];
        assert_eq!(skip.kind, EntryKind::Open);
        // Resume just past the `</skip>` entry (index 5).
        assert_eq!(skip.c, 6);
        // <i>, </i>, <x/> (×2), </skip> = 5 events.
        assert_eq!(skip.d, 5);
        let r = entries[0];
        assert_eq!(r.c, entries.len() as u32);
        // <skip>, <i>, </i>, <x/> (×2), </skip>, <next/> (×2), </r> = 9.
        assert_eq!(r.d, 9);
    }

    #[test]
    fn quotes_comments_cdata_and_pis_do_not_derail() {
        let input = "<r><s q='a>b'>x ]]> y<![CDATA[</s>]]><!-- </s> --><?pi </s> ?></s></r>";
        let ix = StructuralIndex::build(input);
        assert!(ix.error().is_none());
        assert_eq!(
            kinds(&ix),
            vec![
                EntryKind::Open,  // <r>
                EntryKind::Open,  // <s q='a>b'>
                EntryKind::Text,  // "x ]]> y"
                EntryKind::Cdata, // inner "</s>"
                EntryKind::Close, // the real </s>
                EntryKind::Close, // </r>
            ]
        );
        let s = ix.entries()[1];
        assert_eq!(s.c, 5, "resume past the real </s>");
    }

    #[test]
    fn amp_classification() {
        let ix = StructuralIndex::build("<a>x &amp; y</a><!---->");
        let text = ix.entries()[1];
        assert_eq!(text.kind, EntryKind::Text);
        assert_ne!(text.flags & flags::HAS_AMP, 0);
    }

    #[test]
    fn whitespace_only_text_classification() {
        let ix = StructuralIndex::build("<a>\n  <b/> \t\r\n x <c/>&#32;</a>");
        let texts: Vec<u8> = ix
            .entries()
            .iter()
            .filter(|e| e.kind == EntryKind::Text)
            .map(|e| e.flags)
            .collect();
        assert_eq!(texts.len(), 3);
        assert_ne!(texts[0] & flags::ALL_WS, 0, "newline+indent before <b/>");
        assert_eq!(texts[1] & flags::ALL_WS, 0, "\" \\t\\r\\n x \" has content");
        // The entity-bearing span never carries ALL_WS even though it
        // expands to a space: expansion is event-time knowledge.
        assert_ne!(texts[2] & flags::HAS_AMP, 0);
        assert_eq!(texts[2] & flags::ALL_WS, 0);
    }

    #[test]
    fn doctype_only_in_prolog() {
        let ix = StructuralIndex::build("<!DOCTYPE po [<!ELEMENT po EMPTY>]><po/>");
        assert_eq!(kinds(&ix), vec![EntryKind::Doctype, EntryKind::Open]);
        // After the root, `<!DOCTYPE` is a (doomed) start tag — same as the
        // scalar lexer.
        let ix = StructuralIndex::build("<po/><!DOCTYPE x>");
        assert_eq!(kinds(&ix), vec![EntryKind::Open, EntryKind::Open]);
    }

    #[test]
    fn unterminated_constructs_record_errors() {
        for (doc, message) in [
            ("<a><!-- oops", "unterminated comment"),
            ("<a><![CDATA[ oops", "unterminated CDATA section"),
            ("<a><?pi oops", "unterminated processing instruction"),
            ("<!DOCTYPE a [", "unterminated internal DTD subset"),
            ("<!DOCTYPE a ", "unterminated DOCTYPE"),
        ] {
            let ix = StructuralIndex::build(doc);
            let err = ix.error().unwrap_or_else(|| panic!("{doc:?} must err"));
            assert_eq!(err.message, message, "{doc:?}");
        }
        // Unterminated *tags* are not scan errors: they become UNCLOSED
        // entries whose event-time lexing reproduces the scalar error.
        let ix = StructuralIndex::build("<a href=\"unclosed");
        assert!(ix.error().is_none());
        assert_ne!(ix.entries()[0].flags & flags::UNCLOSED, 0);
    }

    #[test]
    fn rebuild_reuses_and_resets() {
        let mut ix = StructuralIndex::build("<a><!-- broken");
        assert!(ix.error().is_some());
        ix.rebuild("<b/>");
        assert!(ix.error().is_none());
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.entries()[0].kind, EntryKind::Open);
    }
}
