//! A zero-copy pull (streaming) XML parser, fed by the stage-1 structural
//! index.
//!
//! Yields borrowed [`PullEvent`]s one at a time with O(depth) memory — the
//! substrate for streaming schema-cast validation, which realizes the
//! paper's claim that "the memory requirement of our algorithm does not vary
//! with the size of the document, but depends solely on the sizes of the
//! schemas".
//!
//! Five properties make this the hot-path tokenizer:
//!
//! * **Tape-fed dispatch.** Construction runs the SWAR structural indexer
//!   ([`crate::index::StructuralIndex`]) over the input once;
//!   [`PullParser::step`] is then a walk over precomputed [`TapeEntry`]
//!   records — no per-byte `position()` scans, no `starts_with` dispatch
//!   chains, and comments/PIs are never visited at all. Only the *interiors*
//!   of tags and entity-bearing text are lexed, inside spans whose
//!   boundaries the tape already knows.
//! * **One step cursor, two views.** [`PullParser::step`] is the only
//!   tokenizer. It returns a [`Step`]: a self-closing element is one step,
//!   and a text run carries the tape's whitespace flag. The [`PullEvent`]
//!   iterator is an adapter over it that splits `<a/>` into `Start` and
//!   `End`; the streaming validator drives `step` directly. A start tag
//!   whose bytes between `<` and `>` (or `/>`) are exactly a name is
//!   interned with no attribute loop; every other tag, every entity and
//!   every error takes the validating lexer, so both views report the same
//!   errors at the same offsets.
//! * **Borrowed events.** Element and attribute names are `&str` slices of
//!   the input; text runs and attribute values are [`Cow`]s that stay
//!   borrowed unless entity resolution forces an owned buffer. On the
//!   no-entity path the parser performs **zero** per-event string
//!   allocations (asserted by `tests/zero_copy.rs`).
//! * **Lexer-level label interning.** Every distinct element name is
//!   assigned a dense per-document [`NameId`] by a fast hash table, so
//!   downstream consumers (the streaming cast, the tree builder) hash each
//!   *distinct* name once and afterwards work with integer ids.
//! * **O(1) subtree skipping.** The tape pairs every start tag with its
//!   structurally matching end tag at build time, so
//!   [`PullParser::skip_subtree`] is a single hop: set the cursor to the
//!   recorded resume index and the byte position past the recorded `>`.
//!   No byte between the tags is ever rescanned — this is what makes the
//!   paper's `R_sub` skip *lexical* rather than merely semantic, and it is
//!   measured by [`SubtreeSkip::hops`].
//!
//! The scalar reference lexer this replaced lives on as
//! [`crate::scalar::ScalarParser`]; a property suite
//! (`tests/tape_props.rs`) holds the two to event-for-event, error-for-error
//! equivalence. The DOM parser in [`crate::parser`] is a thin loop over
//! these events; there is exactly one production tokenizer in the workspace.

use crate::error::XmlError;
use crate::index::{flags, EntryKind, StructuralIndex, TapeEntry};
use crate::scan;
use std::borrow::Cow;

/// A dense per-document id for a distinct element name.
///
/// Ids are assigned by the parser's internal interner in first-appearance
/// order and are stable for the lifetime of the parser; `NameId(0)` is the
/// first distinct tag name seen. Use [`PullParser::name_of`] to recover the
/// string and [`PullParser::name_count`] for the table size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

impl NameId {
    /// The dense index of this name.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One parsing event, borrowing from the input document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullEvent<'a> {
    /// The `<!DOCTYPE name [internal]>` declaration, if present (at most
    /// once, before the root element).
    Doctype {
        /// The document-type name.
        name: &'a str,
        /// The raw internal subset, if any.
        internal: Option<&'a str>,
    },
    /// A start tag (or the opening half of a self-closing tag).
    Start {
        /// Tag name — a slice of the input.
        name: &'a str,
        /// The name's dense per-document id from the lexer interner.
        id: NameId,
        /// Lazy view of the attributes in document order. The tag was
        /// validated when the event was produced, but nothing is
        /// materialized up front — iterating re-lexes the (already
        /// validated) span, and values stay borrowed unless entity
        /// resolution forces an owned buffer.
        attributes: Attrs<'a>,
    },
    /// An end tag (self-closing tags produce `Start` then `End`).
    End {
        /// Tag name — a slice of the input.
        name: &'a str,
        /// The same id the matching [`PullEvent::Start`] carried.
        id: NameId,
    },
    /// Character data. Borrowed unless entity resolution forced an owned
    /// buffer; adjacent runs may be split at CDATA boundaries.
    Text(Cow<'a, str>),
}

/// One token off the structural tape, as [`PullParser::step`] returns it.
///
/// The step cursor is the parser's only tokenizer; the [`PullEvent`]
/// iterator is a thin adapter over it. A step differs from an event in two
/// ways that matter to a validator on the hot path: a self-closing element
/// is a single [`Step::Open`] with `empty: true` (no `End` follows), and a
/// text run carries the tape's build-time whitespace classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<'a> {
    /// The `<!DOCTYPE name [internal]>` declaration.
    Doctype {
        /// The document-type name.
        name: &'a str,
        /// The raw internal subset, if any.
        internal: Option<&'a str>,
    },
    /// A start tag.
    Open {
        /// Tag name — a slice of the input.
        name: &'a str,
        /// The name's dense per-document id.
        id: NameId,
        /// Lazy view of the (validated) attributes.
        attributes: Attrs<'a>,
        /// `<name …/>`: the element is already closed, no
        /// [`Step::Close`] follows and there is nothing to skip.
        empty: bool,
    },
    /// An end tag, already checked against its start tag.
    Close {
        /// Tag name — a slice of the input.
        name: &'a str,
        /// The id the matching [`Step::Open`] carried.
        id: NameId,
    },
    /// Character data, as for [`PullEvent::Text`].
    Text {
        /// The run, borrowed unless entity resolution forced a buffer.
        text: Cow<'a, str>,
        /// The tape classified the run as all XML whitespace (space, tab,
        /// CR, LF) when it was built. A sound hint, not a complete one:
        /// `false` means unknown — CDATA sections and entity-bearing runs
        /// always report `false`.
        all_ws: bool,
    },
}

/// A lazy, allocation-free view of a start tag's attributes.
///
/// The producing lexer has already validated the span (syntax, duplicate
/// names, entity references), so iteration cannot fail and nothing is
/// heap-allocated until a value containing an entity reference is actually
/// read. Compares and prints by content, so parity suites that hold two
/// parsers to event-for-event equality keep working unchanged.
#[derive(Clone, Copy)]
pub struct Attrs<'a> {
    text: &'a str,
    /// Byte offset of the attribute region (just after the tag name).
    start: usize,
    /// Attribute count, recorded by the validating lexer.
    count: usize,
}

impl<'a> Attrs<'a> {
    /// A view over a *validated* attribute region starting at `start` and
    /// holding `count` attributes.
    pub(crate) fn from_span(text: &'a str, start: usize, count: usize) -> Attrs<'a> {
        Attrs { text, start, count }
    }

    /// Number of attributes on the tag.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the tag has no attributes.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates `(name, value)` pairs in document order, lexing on demand.
    pub fn iter(&self) -> AttrIter<'a> {
        AttrIter {
            text: self.text,
            pos: self.start,
            remaining: self.count,
        }
    }

    /// The value of the attribute named `name`, if present.
    pub fn get(&self, name: &str) -> Option<Cow<'a, str>> {
        self.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether any of the (validated) attributes is named `name` — the
    /// lexers' duplicate check. Scans names only; never expands values.
    pub(crate) fn names_contain(&self, name: &str) -> bool {
        let mut pos = self.start;
        for _ in 0..self.count {
            let raw = scan_attr(self.text, pos);
            if raw.name == name {
                return true;
            }
            pos = raw.next;
        }
        false
    }
}

impl std::fmt::Debug for Attrs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Attrs<'_> {
    fn eq(&self, other: &Attrs<'_>) -> bool {
        self.count == other.count && self.iter().eq(other.iter())
    }
}

impl Eq for Attrs<'_> {}

impl<'a> IntoIterator for Attrs<'a> {
    type Item = (&'a str, Cow<'a, str>);
    type IntoIter = AttrIter<'a>;
    fn into_iter(self) -> AttrIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Attrs<'a> {
    type Item = (&'a str, Cow<'a, str>);
    type IntoIter = AttrIter<'a>;
    fn into_iter(self) -> AttrIter<'a> {
        self.iter()
    }
}

/// Iterator over a validated attribute region (see [`Attrs`]).
#[derive(Clone)]
pub struct AttrIter<'a> {
    text: &'a str,
    pos: usize,
    remaining: usize,
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = (&'a str, Cow<'a, str>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let raw = scan_attr(self.text, self.pos);
        self.pos = raw.next;
        let value = if raw.has_entity {
            match expand_entities_span(self.text, raw.value_start, raw.value_end) {
                Ok(s) => Cow::Owned(s),
                // Unreachable: the producing lexer validated every entity
                // reference in the span. Fall back to the raw slice rather
                // than panic.
                Err(_) => Cow::Borrowed(&self.text[raw.value_start..raw.value_end]),
            }
        } else {
            Cow::Borrowed(&self.text[raw.value_start..raw.value_end])
        };
        Some((raw.name, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for AttrIter<'_> {}

/// One lexed attribute from a validated region.
struct RawAttr<'a> {
    name: &'a str,
    value_start: usize,
    value_end: usize,
    has_entity: bool,
    /// Byte offset just past the closing quote.
    next: usize,
}

/// Lexes the attribute at `pos` in a region the producing parser already
/// validated (so every delimiter it expects is present).
fn scan_attr(text: &str, mut pos: usize) -> RawAttr<'_> {
    let bytes = text.as_bytes();
    let ws = |b: u8| matches!(b, b' ' | b'\t' | b'\r' | b'\n');
    while ws(bytes[pos]) {
        pos += 1;
    }
    let name_start = pos;
    while is_name_char(bytes[pos]) {
        pos += 1;
    }
    let name = &text[name_start..pos];
    while ws(bytes[pos]) {
        pos += 1;
    }
    debug_assert_eq!(bytes[pos], b'=');
    pos += 1;
    while ws(bytes[pos]) {
        pos += 1;
    }
    let quote = bytes[pos];
    debug_assert!(matches!(quote, b'"' | b'\''));
    pos += 1;
    let value_start = pos;
    let mut has_entity = false;
    loop {
        let b = bytes[pos];
        if b == quote {
            break;
        }
        has_entity |= b == b'&';
        pos += 1;
    }
    RawAttr {
        name,
        value_start,
        value_end: pos,
        has_entity,
        next: pos + 1,
    }
}

/// Expands the entity references in `text[start..end]`. Errors carry the
/// byte offset and message the streaming lexers report (both delegate
/// here, which is what keeps their error behavior identical).
pub(crate) fn expand_entities_span(
    text: &str,
    start: usize,
    end: usize,
) -> Result<String, (usize, String)> {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(end - start);
    let mut pos = start;
    while pos < end {
        match scan::find_byte(bytes, pos, b'&') {
            Some(amp) if amp < end => {
                out.push_str(&text[pos..amp]);
                pos = amp + 1;
                let semi = scan::find_byte(bytes, pos, b';')
                    .ok_or_else(|| (pos, "unterminated entity reference".to_owned()))?;
                let name = &text[pos..semi];
                match name {
                    "amp" => out.push('&'),
                    "lt" => out.push('<'),
                    "gt" => out.push('>'),
                    "apos" => out.push('\''),
                    "quot" => out.push('"'),
                    _ if name.starts_with("#x") || name.starts_with("#X") => {
                        let code = u32::from_str_radix(&name[2..], 16)
                            .map_err(|_| (pos, "bad hexadecimal character reference".to_owned()))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| {
                                (pos, "character reference out of range".to_owned())
                            })?,
                        );
                    }
                    _ if name.starts_with('#') => {
                        let code: u32 = name[1..]
                            .parse()
                            .map_err(|_| (pos, "bad decimal character reference".to_owned()))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| {
                                (pos, "character reference out of range".to_owned())
                            })?,
                        );
                    }
                    _ => return Err((pos, format!("unknown entity &{name};"))),
                }
                pos = semi + 1;
            }
            _ => {
                out.push_str(&text[pos..end]);
                pos = end;
            }
        }
    }
    Ok(out)
}

/// What [`PullParser::skip_subtree`] skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubtreeSkip {
    /// Raw bytes scanned past without tokenization.
    pub bytes: usize,
    /// Start/end tag events that were never tokenized (self-closing tags
    /// count as two, matching the event stream they replace; the skipped
    /// element's own end tag is included).
    pub events: usize,
    /// Tape hops the skip took: 1 on the O(1) indexed path, 0 when the
    /// element was self-closing (its end event was already lexed). The
    /// scalar reference parser always reports 0 — its skip rescans bytes.
    pub hops: usize,
}

/// How the parser holds its structural tape: built and owned by
/// [`PullParser::new`], or borrowed from a caller-managed reusable buffer
/// via [`PullParser::with_index`] (the batch engine's per-worker scratch).
#[derive(Clone)]
enum TapeRef<'a> {
    Owned(StructuralIndex),
    Borrowed(&'a StructuralIndex),
}

/// An open element: its interned name plus the precomputed skip target.
#[derive(Clone, Copy)]
struct OpenElem {
    id: NameId,
    /// Tape index just past the matching close (`u32::MAX` if unmatched).
    resume: u32,
    /// Tag events within the subtree (including the matching end tag).
    events: u32,
}

/// A streaming parser over an in-memory UTF-8 document.
///
/// Cloning a parser forks the stream: both copies independently continue
/// from the same position (used by the skip-oracle property tests).
///
/// # Examples
/// ```
/// use schemacast_xml::pull::{PullParser, PullEvent};
/// let mut p = PullParser::new("<a x='1'><b/>hi</a>");
/// let events: Result<Vec<_>, _> = p.collect();
/// let events = events.unwrap();
/// assert_eq!(events.len(), 5); // <a>, <b>, </b>, "hi", </a>
/// assert!(matches!(&events[0], PullEvent::Start { name, .. } if *name == "a"));
/// ```
#[derive(Clone)]
pub struct PullParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    tape: TapeRef<'a>,
    /// Next tape entry to consume.
    cursor: usize,
    /// Byte cursor for event-time lexing (tag interiors, entities).
    pos: usize,
    /// Byte offset of the markup (or text run) of the last event returned.
    event_start: usize,
    stack: Vec<OpenElem>,
    names: NameTable<'a>,
    state: State,
    /// The iterator adapter's queued `End` (a self-closing tag is one
    /// step but two events).
    queued: Option<PullEvent<'a>>,
    /// Whether the document element has already been seen.
    seen_root: bool,
    /// Whether the last token was a self-closing start tag, which
    /// [`skip_subtree`](Self::skip_subtree) then skips as a no-op.
    opened_empty: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Active,
    Done,
    Failed,
}

impl<'a> PullParser<'a> {
    /// Creates a parser over `input`, building its structural index.
    pub fn new(input: &'a str) -> PullParser<'a> {
        PullParser::from_tape(input, TapeRef::Owned(StructuralIndex::build(input)))
    }

    /// Creates a parser over `input` running off a caller-provided index
    /// (which must have been built — or rebuilt — for exactly this input).
    /// Lets batch workers reuse one tape allocation across documents.
    pub fn with_index(input: &'a str, index: &'a StructuralIndex) -> PullParser<'a> {
        PullParser::from_tape(input, TapeRef::Borrowed(index))
    }

    fn from_tape(input: &'a str, tape: TapeRef<'a>) -> PullParser<'a> {
        PullParser {
            text: input,
            bytes: input.as_bytes(),
            tape,
            cursor: 0,
            pos: 0,
            event_start: 0,
            stack: Vec::new(),
            names: NameTable::default(),
            state: State::Active,
            queued: None,
            seen_root: false,
            opened_empty: false,
        }
    }

    /// The structural tape this parser runs off (owned or borrowed) —
    /// consumers read its length for instrumentation.
    #[inline]
    pub fn tape(&self) -> &StructuralIndex {
        match &self.tape {
            TapeRef::Owned(ix) => ix,
            TapeRef::Borrowed(ix) => ix,
        }
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Byte offset where the most recently returned event's markup (or text
    /// run) began.
    pub fn last_event_offset(&self) -> usize {
        self.event_start
    }

    /// Number of distinct element names interned so far.
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// The string for an interned name id.
    ///
    /// # Panics
    /// Panics if `id` did not come from this parser.
    pub fn name_of(&self, id: NameId) -> &'a str {
        self.names.get(id)
    }

    fn err(&self, message: &str) -> XmlError {
        self.err_at(self.pos, message)
    }

    fn err_at(&self, offset: usize, message: &str) -> XmlError {
        err_at(self.bytes, offset, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    /// Lexes a name as a borrowed slice (boundaries are ASCII delimiters,
    /// so slicing the `str` is always at char boundaries).
    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        if !self.peek().is_some_and(is_name_start) {
            return Err(self.err("expected a name"));
        }
        while self.peek().is_some_and(is_name_char) {
            self.pos += 1;
        }
        Ok(&self.text[start..self.pos])
    }

    /// Builds the owned expansion of `text[start..end]`, which is known to
    /// contain at least one `&` (shared kernel; errors carry the exact
    /// offsets the old inline lexer reported).
    fn expand_entities(&mut self, start: usize, end: usize) -> Result<String, XmlError> {
        expand_entities_span(self.text, start, end).map_err(|(o, m)| self.err_at(o, &m))
    }

    fn attribute_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        // First pass: find the closing quote, rejecting '<' and noting '&'.
        let mut has_entity = false;
        loop {
            match self.peek() {
                Some(q) if q == quote => break,
                Some(b'<') => return Err(self.err("'<' in attribute value")),
                Some(b'&') => {
                    has_entity = true;
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated attribute value")),
            }
        }
        let end = self.pos;
        let value = if has_entity {
            let expanded = self.expand_entities(start, end)?;
            Cow::Owned(expanded)
        } else {
            Cow::Borrowed(&self.text[start..end])
        };
        self.pos = end + 1; // past the closing quote
        Ok(value)
    }

    /// Lexes an `Open` tape entry: the name and attributes between the
    /// recorded `<` and `>`.
    fn open_step(&mut self, entry: TapeEntry) -> Result<Step<'a>, XmlError> {
        let lt = entry.a as usize;
        if self.stack.is_empty() {
            if self.seen_root {
                self.pos = lt;
                return Err(self.err("content after document element"));
            }
            self.seen_root = true;
        }
        self.event_start = lt;
        let empty = entry.flags & flags::SELF_CLOSING != 0;
        // Fast path: the tape recorded the `>` (and whether `/` precedes
        // it), so when the bytes in between are exactly a name there are
        // no attributes to lex — intern and go. A name already in the
        // table was checked when it was first interned, so only a new one
        // is checked byte by byte. Anything else (attributes, whitespace,
        // malformed markup) takes the validating lexer below.
        if entry.flags & flags::UNCLOSED == 0 {
            let end = entry.b as usize - usize::from(empty);
            let tag = &self.bytes[lt + 1..end];
            let known = self.names.find(tag);
            if known.is_some() || is_name(tag) {
                let name = &self.text[lt + 1..end];
                let id = known.unwrap_or_else(|| self.names.intern(name));
                self.pos = entry.b as usize + 1;
                return Ok(self.opened(entry, name, id, Attrs::from_span(self.text, end, 0)));
            }
        }
        self.pos = lt + 1;
        let name = self.name()?;
        // Validate-and-count pass: each attribute is fully checked (syntax,
        // quoting, entities, duplicates) but nothing is materialized — the
        // returned `Attrs` view re-lexes the already-validated span on
        // demand, so documents whose attributes are never read pay nothing.
        let attr_start = self.pos;
        let mut count = 0usize;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.err("malformed empty-element tag"));
                    }
                    self.pos += 2;
                    break;
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b) if is_name_start(b) => {
                    let attr = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    self.attribute_value()?;
                    if Attrs::from_span(self.text, attr_start, count).names_contain(attr) {
                        return Err(self.err(&format!("duplicate attribute {attr:?}")));
                    }
                    count += 1;
                }
                _ => return Err(self.err("malformed start tag")),
            }
        }
        let id = self.names.intern(name);
        Ok(self.opened(
            entry,
            name,
            id,
            Attrs::from_span(self.text, attr_start, count),
        ))
    }

    /// Opens a lexed and interned start tag, unless it is self-closing.
    #[inline]
    fn opened(
        &mut self,
        entry: TapeEntry,
        name: &'a str,
        id: NameId,
        attributes: Attrs<'a>,
    ) -> Step<'a> {
        let empty = entry.flags & flags::SELF_CLOSING != 0;
        if !empty {
            self.stack.push(OpenElem {
                id,
                resume: entry.c,
                events: entry.d,
            });
        }
        self.opened_empty = empty;
        Step::Open {
            name,
            id,
            attributes,
            empty,
        }
    }

    /// Lexes a `Close` tape entry. The close name is compared byte-for-byte
    /// against the open element's interned name — no second intern, and
    /// matching names imply matching ids.
    fn close_step(&mut self, entry: TapeEntry) -> Result<Step<'a>, XmlError> {
        let lt = entry.a as usize;
        self.pos = lt;
        let Some(&open) = self.stack.last() else {
            return Err(self.err("expected an element name, found an end tag"));
        };
        self.event_start = lt;
        let open_name = self.names.get(open.id);
        // Fast path: the tape already recorded this tag's `>`, and on
        // well-formed input the bytes between `</` and `>` are exactly the
        // open element's name — one key compare replaces the per-byte name
        // scan. Any mismatch (trailing whitespace, wrong name, malformed
        // tag) falls through to the scalar-identical slow path so errors
        // keep exact parity.
        if entry.flags & flags::UNCLOSED == 0
            && self
                .names
                .is(open.id, &self.bytes[lt + 2..entry.b as usize])
        {
            self.stack.pop();
            self.pos = entry.b as usize + 1;
            return Ok(Step::Close {
                name: open_name,
                id: open.id,
            });
        }
        self.pos = lt + 2;
        let close_name = self.name()?;
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.err("malformed end tag"));
        }
        self.pos += 1;
        self.stack.pop();
        if open_name != close_name {
            return Err(self.err(&format!(
                "mismatched end tag: expected </{open_name}>, found </{close_name}>"
            )));
        }
        Ok(Step::Close {
            name: close_name,
            id: open.id,
        })
    }

    /// Lexes a `Doctype` tape entry, re-lexing the details from the
    /// recorded span.
    fn doctype_step(&mut self, entry: TapeEntry) -> Result<Step<'a>, XmlError> {
        let lt = entry.a as usize;
        self.event_start = lt;
        self.pos = lt + "<!DOCTYPE".len();
        self.skip_ws();
        let name = self.name()?;
        let mut internal = None;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'[') => {
                    self.pos += 1;
                    let start = self.pos;
                    let end = scan::find_byte(self.bytes, self.pos, b']')
                        .ok_or_else(|| self.err("unterminated internal DTD subset"))?;
                    internal = Some(&self.text[start..end]);
                    self.pos = end + 1;
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated DOCTYPE")),
            }
        }
        Ok(Step::Doctype { name, internal })
    }

    /// The tape ran out: replay the builder's terminal scan error if there
    /// is one, otherwise check document-level completeness.
    fn end_of_tape(&mut self) -> Result<Option<Step<'a>>, XmlError> {
        if let Some(e) = self.tape().error() {
            // One precedence nit the scalar lexer resolves the other way:
            // outside the root it reports stray CDATA before noticing the
            // section never closes.
            if e.message == "unterminated CDATA section" && self.stack.is_empty() {
                return Err(self.err_at(e.offset, "character data outside the root element"));
            }
            return Err(self.err_at(e.offset, e.message));
        }
        self.pos = self.bytes.len();
        if !self.stack.is_empty() {
            return Err(self.err("unexpected end of input inside element"));
        }
        if !self.seen_root {
            return Err(self.err("expected a document element"));
        }
        self.state = State::Done;
        Ok(None)
    }

    /// Advances the step cursor by one token — the parser's one tokenizer,
    /// which the [`PullEvent`] iterator adapts.
    ///
    /// Well-formedness is checked exactly as for events (same errors, same
    /// offsets); the differences are in shape only (see [`Step`]). Returns
    /// `Ok(None)` at the end of the document; after an error, every later
    /// call returns `Ok(None)`.
    ///
    /// # Errors
    /// Returns the first well-formedness error.
    pub fn step(&mut self) -> Result<Option<Step<'a>>, XmlError> {
        if self.state != State::Active {
            return Ok(None);
        }
        self.opened_empty = false;
        let step = self.lex_step();
        if step.is_err() {
            self.state = State::Failed;
        }
        step
    }

    fn lex_step(&mut self) -> Result<Option<Step<'a>>, XmlError> {
        loop {
            let Some(&entry) = self.tape().entries().get(self.cursor) else {
                return self.end_of_tape();
            };
            self.cursor += 1;
            let step = match entry.kind {
                EntryKind::Open => self.open_step(entry)?,
                EntryKind::Close => self.close_step(entry)?,
                EntryKind::Text => {
                    let (start, end) = (entry.a as usize, entry.b as usize);
                    let all_ws = entry.flags & flags::ALL_WS != 0;
                    if self.stack.is_empty() {
                        // Only whitespace is allowed outside the root. The
                        // tape flag settles clean spans with no re-scan.
                        if !all_ws {
                            if let Some(i) = self.bytes[start..end]
                                .iter()
                                .position(|&b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
                            {
                                self.pos = start + i;
                                return Err(self.err(
                                    "expected markup, found character data outside the root element",
                                ));
                            }
                        }
                        self.pos = end;
                        continue;
                    }
                    self.event_start = start;
                    let text = if entry.flags & flags::HAS_AMP != 0 {
                        Cow::Owned(self.expand_entities(start, end)?)
                    } else {
                        Cow::Borrowed(&self.text[start..end])
                    };
                    self.pos = end;
                    Step::Text { text, all_ws }
                }
                EntryKind::Cdata => {
                    let lt = entry.a as usize;
                    if self.stack.is_empty() {
                        self.pos = lt;
                        return Err(self.err("character data outside the root element"));
                    }
                    self.event_start = lt;
                    self.pos = entry.b as usize + 3;
                    // CDATA content is never classified on the tape.
                    Step::Text {
                        text: Cow::Borrowed(&self.text[lt + 9..entry.b as usize]),
                        all_ws: false,
                    }
                }
                EntryKind::Doctype => self.doctype_step(entry)?,
            };
            return Ok(Some(step));
        }
    }

    /// Skips the content and end tag of the innermost open element in O(1):
    /// the structural index paired the tags at build time, so this is a
    /// single hop to the recorded resume point — no byte in between is
    /// rescanned (reported as [`SubtreeSkip::hops`]).
    ///
    /// Must be called *just after* the element's [`PullEvent::Start`] (or
    /// [`Step::Open`]) was returned. The element's own end tag is consumed;
    /// the next token is whatever follows it. A self-closing element has
    /// nothing to skip: the call is a no-op that reports zero. Returns how
    /// many bytes and tag events were skipped without lexing.
    ///
    /// It intentionally does **not** check that end-tag names match
    /// start-tag names inside the skipped region — skipped subtrees trade
    /// well-formedness *checking* for speed, which is exactly the paper's
    /// cost model (work proportional to the decided part of the document).
    /// On well-formed input it lands byte-for-byte where depth-counted
    /// event consumption would (property-tested).
    ///
    /// # Errors
    /// Returns `Err` if the input ends before the subtree closes, if the
    /// scan found an unterminated comment/CDATA/PI, or if no element is
    /// open.
    pub fn skip_subtree(&mut self) -> Result<SubtreeSkip, XmlError> {
        if std::mem::take(&mut self.opened_empty) {
            // A self-closing element is already closed; for the event
            // adapter, its queued End is the whole skip.
            self.queued = None;
            return Ok(SubtreeSkip::default());
        }
        if self.stack.is_empty() || self.state != State::Active {
            return Err(self.err("skip_subtree called with no open element"));
        }
        let open = *self.stack.last().expect("checked non-empty");
        if open.resume == u32::MAX {
            // The subtree never closes. Surface the builder's scan error if
            // it recorded one; otherwise the input simply ran out.
            return Err(match self.tape().error() {
                Some(e) => self.err_at(e.offset, e.message),
                None => self.err_at(self.bytes.len(), "unexpected end of input inside element"),
            });
        }
        let start = self.pos;
        let close = self.tape().entries()[open.resume as usize - 1];
        debug_assert_eq!(close.kind, EntryKind::Close);
        self.cursor = open.resume as usize;
        self.pos = close.b as usize + 1;
        self.stack.pop();
        Ok(SubtreeSkip {
            bytes: self.pos - start,
            events: open.events as usize,
            hops: 1,
        })
    }
}

/// The event view of the step cursor: one step per event, except that a
/// self-closing tag's single step becomes `Start` then `End`.
impl<'a> Iterator for PullParser<'a> {
    type Item = Result<PullEvent<'a>, XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(end) = self.queued.take() {
            self.opened_empty = false;
            return Some(Ok(end));
        }
        let event = match self.step() {
            Ok(step) => step?,
            Err(e) => return Some(Err(e)),
        };
        Some(Ok(match event {
            Step::Open {
                name,
                id,
                attributes,
                empty,
            } => {
                if empty {
                    self.queued = Some(PullEvent::End { name, id });
                }
                PullEvent::Start {
                    name,
                    id,
                    attributes,
                }
            }
            Step::Close { name, id } => PullEvent::End { name, id },
            Step::Text { text, .. } => PullEvent::Text(text),
            Step::Doctype { name, internal } => PullEvent::Doctype { name, internal },
        }))
    }
}

/// Builds an [`XmlError`] at `offset`, computing line/column on demand.
pub(crate) fn err_at(bytes: &[u8], offset: usize, message: &str) -> XmlError {
    let mut line = 1;
    let mut col = 1;
    for &b in &bytes[..offset.min(bytes.len())] {
        if b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    XmlError {
        offset,
        line,
        column: col,
        message: message.to_owned(),
    }
}

/// Whether `b` is exactly one name.
fn is_name(b: &[u8]) -> bool {
    b.split_first()
        .is_some_and(|(&first, rest)| is_name_start(first) && rest.iter().all(|&c| is_name_char(c)))
}

#[inline]
pub(crate) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

/// 256-entry classification table for name characters: the name scan runs
/// once per tag, so each byte costs one indexed load instead of a chain of
/// range compares.
static NAME_CHAR: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || c >= 0x80 || matches!(c, b'_' | b':' | b'.' | b'-');
        b += 1;
    }
    table
};

#[inline]
pub(crate) fn is_name_char(b: u8) -> bool {
    NAME_CHAR[b as usize]
}

/// The lexer-level name interner: borrowed keys, dense ids, open
/// addressing over a two-word key. One (cheap) hash per name occurrence, one
/// id thereafter — consumers resolve each *distinct* name against heavier
/// structures (e.g. the schema [`Alphabet`](../../schemacast_regex/struct.Alphabet.html))
/// exactly once.
#[derive(Clone, Default)]
pub(crate) struct NameTable<'a> {
    names: Vec<&'a str>,
    /// [`name_key`] of each name, so a probe or a close-tag check compares
    /// two words instead of calling into `memcmp`.
    keys: Vec<(u64, u64)>,
    /// Open-addressing buckets holding `index + 1` (`0` = empty).
    buckets: Vec<u32>,
}

impl<'a> NameTable<'a> {
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn get(&self, id: NameId) -> &'a str {
        self.names[id.index()]
    }

    /// Whether `bytes` spell the name interned as `id`.
    #[inline]
    pub(crate) fn is(&self, id: NameId, bytes: &[u8]) -> bool {
        self.names[id.index()].len() == bytes.len()
            && self.keys[id.index()] == name_key(bytes)
            && self.spells(id, bytes)
    }

    /// The id of the interned name spelled by `bytes`, if any.
    #[inline]
    pub(crate) fn find(&self, bytes: &[u8]) -> Option<NameId> {
        if self.buckets.is_empty() {
            return None;
        }
        let key = name_key(bytes);
        let mask = self.buckets.len() - 1;
        let mut slot = hash_name(bytes, key) as usize & mask;
        loop {
            match self.buckets[slot] {
                0 => return None,
                occupied => {
                    let id = NameId(occupied - 1);
                    if self.keys[id.index()] == key && self.spells(id, bytes) {
                        return Some(id);
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    /// Whether the name interned as `id`, whose key is known to match,
    /// is `bytes`.
    #[inline]
    fn spells(&self, id: NameId, bytes: &[u8]) -> bool {
        let name = self.names[id.index()];
        name.len() == bytes.len() && (bytes.len() <= 16 || name.as_bytes() == bytes)
    }

    pub(crate) fn intern(&mut self, name: &'a str) -> NameId {
        if self.buckets.is_empty() {
            self.buckets = vec![0; 16];
        } else if (self.names.len() + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
        let key = name_key(name.as_bytes());
        let mask = self.buckets.len() - 1;
        let mut slot = hash_name(name.as_bytes(), key) as usize & mask;
        loop {
            match self.buckets[slot] {
                0 => {
                    let id = NameId(self.names.len() as u32);
                    self.names.push(name);
                    self.keys.push(key);
                    self.buckets[slot] = id.0 + 1;
                    return id;
                }
                occupied => {
                    let id = NameId(occupied - 1);
                    if self.keys[id.index()] == key && self.spells(id, name.as_bytes()) {
                        return id;
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        let mask = new_len - 1;
        let mut buckets = vec![0u32; new_len];
        for (idx, (name, &key)) in self.names.iter().zip(&self.keys).enumerate() {
            let mut slot = hash_name(name.as_bytes(), key) as usize & mask;
            while buckets[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            buckets[slot] = idx as u32 + 1;
        }
        self.buckets = buckets;
    }
}

/// Two words that, with the length, spell a name of up to 16 bytes
/// exactly: its first and last 8 bytes (overlapping when shorter than 16),
/// or first and last 4, or the bytes themselves. Two loads per name instead
/// of a loop over its bytes; longer names also compare their bytes.
#[inline]
fn name_key(b: &[u8]) -> (u64, u64) {
    let n = b.len();
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    let half = |at: usize| {
        u64::from(u32::from_le_bytes(
            b[at..at + 4].try_into().expect("4 bytes"),
        ))
    };
    match n {
        8.. => (word(0), word(n - 8)),
        4..=7 => (half(0), half(n - 4)),
        1..=3 => (
            u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16,
            0,
        ),
        0 => (0, 0),
    }
}

/// The bucket hash of name `b` with [`name_key`] `key` (names are hashed on
/// every start-tag occurrence, so this sits on the tokenizer hot path). A
/// name longer than 16 bytes also mixes in the bytes its key leaves out, so
/// a document cannot pile distinct names into one probe chain by varying
/// only their middles.
#[inline]
fn hash_name(b: &[u8], (first, last): (u64, u64)) -> u64 {
    const MIX: u64 = 0xff51_afd7_ed55_8ccd;
    let mix = |h: u64, w: u64| {
        let h = (h ^ w).wrapping_mul(MIX);
        h ^ (h >> 29)
    };
    let mut h = mix(0x9e37_79b9_7f4a_7c15 ^ b.len() as u64, first);
    if b.len() > 16 {
        for chunk in b[8..b.len() - 8].chunks(8) {
            h = mix(h, chunk.iter().fold(0, |w, &c| w << 8 | u64::from(c)));
        }
    }
    mix(h, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_document, XmlElement, XmlNode};

    fn events(input: &str) -> Vec<PullEvent<'_>> {
        PullParser::new(input)
            .collect::<Result<Vec<_>, _>>()
            .expect("parses")
    }

    #[test]
    fn basic_event_stream() {
        let ev = events("<a x=\"1\"><b/>hi &amp; bye</a>");
        assert_eq!(ev.len(), 5);
        match &ev[0] {
            PullEvent::Start {
                name, attributes, ..
            } => {
                assert_eq!(*name, "a");
                assert_eq!(attributes.len(), 1);
                let pairs: Vec<_> = attributes.iter().collect();
                assert_eq!(pairs[0].0, "x");
                assert_eq!(pairs[0].1, "1");
            }
            other => panic!("expected Start, got {other:?}"),
        }
        assert!(matches!(&ev[1], PullEvent::Start { name, .. } if *name == "b"));
        assert!(matches!(&ev[2], PullEvent::End { name, .. } if *name == "b"));
        assert!(matches!(&ev[3], PullEvent::Text(t) if t == "hi & bye"));
        assert!(matches!(&ev[4], PullEvent::End { name, .. } if *name == "a"));
    }

    #[test]
    fn doctype_event() {
        let ev = events("<!DOCTYPE po [<!ELEMENT po EMPTY>]><po/>");
        assert!(matches!(&ev[0], PullEvent::Doctype { name, internal }
            if *name == "po" && *internal == Some("<!ELEMENT po EMPTY>")));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["<a>", "<a></b>", "<a/><b/>", "text", "<a>&bogus;</a>"] {
            let r: Result<Vec<_>, _> = PullParser::new(bad).collect();
            assert!(r.is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn name_ids_are_dense_and_stable() {
        let mut p = PullParser::new("<a><b/><b/><a/></a>");
        let mut ids = Vec::new();
        for ev in p.by_ref() {
            if let PullEvent::Start { name, id, .. } = ev.expect("ok") {
                ids.push((name, id));
            }
        }
        assert_eq!(
            ids,
            vec![
                ("a", NameId(0)),
                ("b", NameId(1)),
                ("b", NameId(1)),
                ("a", NameId(0)),
            ]
        );
        assert_eq!(p.name_count(), 2);
        assert_eq!(p.name_of(NameId(0)), "a");
        assert_eq!(p.name_of(NameId(1)), "b");
    }

    #[test]
    fn borrowed_on_fast_path_owned_only_for_entities() {
        let input = "<a k=\"plain\" e=\"x&amp;y\">text<![CDATA[raw]]>with &lt; entity</a>";
        for ev in events(input) {
            match ev {
                PullEvent::Start { attributes, .. } => {
                    for (n, v) in &attributes {
                        match n {
                            "k" => assert!(matches!(v, Cow::Borrowed(_))),
                            "e" => {
                                assert!(matches!(v, Cow::Owned(_)));
                                assert_eq!(v, "x&y");
                            }
                            _ => unreachable!(),
                        }
                    }
                }
                PullEvent::Text(t) => match &*t {
                    "text" | "raw" => assert!(matches!(t, Cow::Borrowed(_))),
                    "with < entity" => assert!(matches!(t, Cow::Owned(_))),
                    other => panic!("unexpected text {other:?}"),
                },
                _ => {}
            }
        }
    }

    #[test]
    fn offsets_track_event_markup() {
        let input = "<a><b>hi</b></a>";
        let mut p = PullParser::new(input);
        let mut offsets = Vec::new();
        while let Some(ev) = p.next() {
            ev.expect("ok");
            offsets.push(p.last_event_offset());
        }
        // <a> at 0, <b> at 3, "hi" at 6, </b> at 8, </a> at 12.
        assert_eq!(offsets, vec![0, 3, 6, 8, 12]);
        assert_eq!(p.offset(), input.len());
    }

    #[test]
    fn skip_subtree_lands_after_matching_end_tag() {
        let input = "<r><skip a=\">\"><inner>]]&gt;</inner><!-- <fake> --><x/></skip><next/></r>";
        let mut p = PullParser::new(input);
        // <r>
        assert!(matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "r"));
        // <skip ...>
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "skip")
        );
        let skipped = p.skip_subtree().expect("skips");
        assert!(skipped.bytes > 0);
        assert_eq!(skipped.events, 5); // <inner>, </inner>, <x/> (×2), </skip>
        assert_eq!(skipped.hops, 1); // one indexed hop, zero bytes rescanned
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "next")
        );
    }

    #[test]
    fn skip_subtree_on_self_closing_consumes_queued_end() {
        let mut p = PullParser::new("<r><leaf/><next/></r>");
        p.next().unwrap().unwrap(); // <r>
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "leaf")
        );
        let skipped = p.skip_subtree().expect("skips");
        assert_eq!(skipped, SubtreeSkip::default());
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "next")
        );
    }

    #[test]
    fn step_closes_self_closing_tags_in_one_step() {
        let mut p = PullParser::new("<r>\n <leaf/><next a='1'/></r>");
        let mut shapes = Vec::new();
        while let Some(step) = p.step().expect("well-formed") {
            shapes.push(match step {
                Step::Open { name, empty, .. } => {
                    if name == "leaf" {
                        // Nothing to skip: the parent stays open.
                        assert_eq!(p.skip_subtree().expect("no-op"), SubtreeSkip::default());
                        assert_eq!(p.depth(), 1);
                    }
                    format!("<{name}{}>", if empty { "/" } else { "" })
                }
                Step::Close { name, .. } => format!("</{name}>"),
                Step::Text { text, all_ws } => format!("{text:?}:{all_ws}"),
                Step::Doctype { .. } => unreachable!(),
            });
        }
        assert_eq!(
            shapes,
            ["<r>", "\"\\n \":true", "<leaf/>", "<next/>", "</r>"]
        );
    }

    #[test]
    fn long_names_differing_only_in_the_middle_spread_over_buckets() {
        // Same first and last 8 bytes, hence the same key: only the bytes
        // in between tell these names apart, and they must reach the hash.
        let names: Vec<String> = (0..1000)
            .map(|i| format!("prefix__{i:08}__suffix"))
            .collect();
        let slots: std::collections::HashSet<u64> = names
            .iter()
            .map(|n| hash_name(n.as_bytes(), name_key(n.as_bytes())) & 2047)
            .collect();
        assert!(slots.len() > 500, "{} distinct slots", slots.len());
        let mut table = NameTable::default();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(table.intern(n), NameId(i as u32));
        }
        assert_eq!(table.find(names[42].as_bytes()), Some(NameId(42)));
    }

    #[test]
    fn skip_subtree_handles_tricky_payloads() {
        // ']]>' inside text, '>' inside attribute values, comments and CDATA
        // containing tags.
        let input =
            "<r><s q='a>b'>x ]]> y<![CDATA[</s>]]><!-- </s> --><t u=\"/>\">z</t></s><after/></r>";
        let mut p = PullParser::new(input);
        p.next().unwrap().unwrap(); // <r>
        p.next().unwrap().unwrap(); // <s>
        p.skip_subtree().expect("skips");
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "after")
        );
    }

    #[test]
    fn skip_subtree_err_cases() {
        let mut p = PullParser::new("<a><b>unclosed");
        p.next().unwrap().unwrap(); // <a>
        p.next().unwrap().unwrap(); // <b>
        assert!(p.skip_subtree().is_err());

        let mut p = PullParser::new("<a/>");
        assert!(matches!(
            p.next().unwrap().unwrap(),
            PullEvent::Start { .. }
        ));
        // Queued end: fine.
        assert!(p.skip_subtree().is_ok());
        // Nothing open anymore.
        assert!(p.skip_subtree().is_err());
    }

    #[test]
    fn with_index_runs_off_a_reused_tape() {
        let mut tape = StructuralIndex::new();
        for doc in ["<a><b>hi</b></a>", "<x y='1'/>", "<r>&amp;</r>"] {
            tape.rebuild(doc);
            let borrowed: Vec<_> = PullParser::with_index(doc, &tape)
                .collect::<Result<Vec<_>, _>>()
                .expect("parses");
            let owned: Vec<_> = PullParser::new(doc)
                .collect::<Result<Vec<_>, _>>()
                .expect("parses");
            assert_eq!(borrowed, owned);
        }
    }

    /// Build a DOM from pull events and compare against the DOM parser on a
    /// battery of documents.
    #[test]
    fn agrees_with_dom_parser() {
        fn build(input: &str) -> Result<XmlElement, crate::error::XmlError> {
            let mut stack: Vec<XmlElement> = Vec::new();
            let mut root: Option<XmlElement> = None;
            for ev in PullParser::new(input) {
                match ev? {
                    PullEvent::Doctype { .. } => {}
                    PullEvent::Start {
                        name, attributes, ..
                    } => {
                        let mut e = XmlElement::new(name);
                        e.attributes = attributes
                            .into_iter()
                            .map(|(n, v)| (n.to_owned(), v.into_owned()))
                            .collect();
                        stack.push(e);
                    }
                    PullEvent::End { .. } => {
                        let e = stack.pop().expect("balanced");
                        match stack.last_mut() {
                            Some(parent) => parent.children.push(XmlNode::Element(e)),
                            None => root = Some(e),
                        }
                    }
                    PullEvent::Text(t) => {
                        if let Some(parent) = stack.last_mut() {
                            // Coalesce adjacent text like the DOM parser.
                            if let Some(XmlNode::Text(prev)) = parent.children.last_mut() {
                                prev.push_str(&t);
                            } else if !t.is_empty() {
                                parent.children.push(XmlNode::Text(t.into_owned()));
                            }
                        }
                    }
                }
            }
            Ok(root.expect("root"))
        }

        for doc in [
            "<a><b><c/></b><b/></a>",
            "<t>&lt;x&gt; &#65;</t>",
            "<a>\n  <b>text</b>\n  <c/>\n</a>",
            "<r><![CDATA[<raw>]]>tail</r>",
            r#"<x a="1" b='two'/>"#,
            "<?xml version=\"1.0\"?><!-- c --><r><k>v</k></r>",
        ] {
            let via_pull = build(doc).expect("pull parses");
            let via_dom = parse_document(doc).expect("dom parses").root;
            assert_eq!(via_pull, via_dom, "document {doc:?}");
        }
    }

    #[test]
    fn depth_is_bounded_by_nesting() {
        let mut p = PullParser::new("<a><b><c>x</c></b></a>");
        let mut max_depth = 0;
        while let Some(ev) = p.next() {
            ev.expect("ok");
            max_depth = max_depth.max(p.depth());
        }
        assert_eq!(max_depth, 3);
    }
}
