//! A namespace-aware pull reader for the XML subset the WS-* stacks
//! exchange: elements, attributes, character data, entity and character
//! references, CDATA sections, comments, processing instructions (skipped),
//! and `xmlns`/`xmlns:p` scoped namespace bindings.
//!
//! DTDs are rejected (no WS-I-compliant message carries one, and rejecting
//! them avoids entity-expansion pathologies).
//!
//! The reader scans byte slices and decodes character data in a **single
//! pass**: entity resolution and end-of-line normalisation are fused, and
//! both text and attribute values come back as [`Cow::Borrowed`] slices of
//! the input unless a reference or normalisation actually fires. It builds
//! no nodes and interns no names: a start tag's name is its resolved
//! namespace URI plus the local part as a slice of the input, so a consumer
//! that knows the shape it expects (the SOAP layer reading a
//! `wsse:Security` block) allocates nothing per element. [`crate::parser`]
//! is the tree builder over it. Its stacks come from a per-thread pool and
//! go back when it drops: a thread's next document allocates none of them.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;

use crate::error::{XmlError, XmlResult};
use crate::escape::resolve_entity;
use crate::name::intern;
use crate::node::Element;
use crate::scan::{find_any, find_any_or_non_char};

/// One step through a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// A start tag. Its name and attributes are read from the reader
    /// ([`Reader::name`], [`Reader::attrs`]) until the next call to
    /// [`Reader::next`]. An empty-element tag yields `Start` then `End`.
    Start,
    /// The end of the innermost open element.
    End,
    /// Decoded character data (a text run or a CDATA section).
    Text(Cow<'a, str>),
    /// A comment inside element content (comments around the root are
    /// skipped).
    Comment(&'a str),
    /// The root element has closed and nothing but comments and whitespace
    /// followed it.
    Eof,
}

/// An attribute of the current start tag. Unprefixed attributes are in no
/// namespace (per the XML namespaces spec).
#[derive(Debug)]
pub struct RawAttr<'a> {
    pub ns: Option<Arc<str>>,
    pub local: &'a str,
    pub value: Cow<'a, str>,
}

/// In-scope namespace bindings, maintained as an undo stack so nested scopes
/// never clone the whole map (the paper's messages nest 6-10 levels deep).
/// Prefixes borrow from the input, so pushing a binding allocates nothing.
struct NsScope<'a> {
    /// (prefix, uri) pairs; later entries shadow earlier ones.
    bindings: Vec<(&'a str, Arc<str>)>,
    /// Default-namespace stack ("" binding); `None` entries mean unbound.
    default_ns: Vec<Option<Arc<str>>>,
}

impl NsScope<'_> {
    fn lookup(&self, prefix: &str) -> Option<Arc<str>> {
        if prefix == "xml" {
            return Some(intern("http://www.w3.org/XML/1998/namespace"));
        }
        self.bindings
            .iter()
            .rev()
            .find(|(p, _)| *p == prefix)
            .map(|(_, uri)| uri.clone())
    }

    fn default_uri(&self) -> Option<Arc<str>> {
        self.default_ns.last().cloned().flatten()
    }
}

/// An element whose end tag has not been read yet.
struct Open<'a> {
    raw_name: &'a str,
    bindings_mark: usize,
    pushed_default: bool,
}

enum State {
    /// Before the root element's start tag.
    Prolog,
    /// Inside the root element.
    Content,
    /// An empty-element tag was reported as `Start`; its `End` is next.
    EmptyElement,
    /// After the root element's end tag.
    Epilog,
}

/// The pull reader. Create one per document and call [`Reader::next`] until
/// [`Event::Eof`] or an error; errors are final.
pub struct Reader<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
    state: State,
    scope: NsScope<'a>,
    open: Vec<Open<'a>>,
    name_ns: Option<Arc<str>>,
    name_local: &'a str,
    /// Attributes of the current start tag; the buffer is reused from tag
    /// to tag.
    attrs: Vec<RawAttr<'a>>,
    /// [`crate::build_subtree`]'s open elements, pooled with the rest.
    pub(crate) ancestors: Vec<Element>,
}

impl<'a> Reader<'a> {
    pub fn new(input: &'a str) -> Self {
        let (bindings, default_ns, open, attrs, ancestors) =
            SPARE.with_borrow_mut(Vec::pop).unwrap_or_default();
        Reader {
            bytes: input.as_bytes(),
            input,
            pos: 0,
            state: State::Prolog,
            scope: NsScope {
                bindings: relabel(bindings),
                default_ns,
            },
            open: relabel(open),
            name_ns: None,
            name_local: "",
            attrs: relabel(attrs),
            ancestors,
        }
    }

    /// The current start tag's resolved name: namespace URI (prefixed names
    /// take their binding, unprefixed ones the default namespace) and local
    /// part.
    pub fn name(&self) -> (Option<&Arc<str>>, &'a str) {
        (self.name_ns.as_ref(), self.name_local)
    }

    /// Is the current start tag named `{uri}local` (`None`: in no namespace)?
    /// Interned URIs compare by pointer; content is the fallback.
    pub fn is_named(&self, uri: Option<&Arc<str>>, local: &str) -> bool {
        self.name_local == local
            && match (&self.name_ns, uri) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                _ => false,
            }
    }

    /// The current start tag's attributes, `xmlns` declarations excluded,
    /// in document order.
    pub fn attrs(&self) -> &[RawAttr<'a>] {
        &self.attrs
    }

    /// Move the current start tag's attributes out (a tree builder keeps
    /// their decoded values without copying them).
    pub fn drain_attrs(&mut self) -> std::vec::Drain<'_, RawAttr<'a>> {
        self.attrs.drain(..)
    }

    /// Number of elements currently open, the one just started included.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Byte offset of the next unread input, for error reporting.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Read on, discarding events, until at most `depth` elements are open.
    /// Everything skipped is still checked for well-formedness.
    pub fn skip_to_depth(&mut self, depth: usize) -> XmlResult<()> {
        while self.open.len() > depth {
            self.next()?;
        }
        Ok(())
    }

    /// The next event.
    #[allow(clippy::should_implement_trait)] // fallible, and events borrow the input
    pub fn next(&mut self) -> XmlResult<Event<'a>> {
        match self.state {
            State::Prolog => {
                self.skip_prolog()?;
                self.read_start_tag()
            }
            State::EmptyElement => {
                self.state = State::Content;
                self.close_element();
                Ok(Event::End)
            }
            State::Content => self.read_content(),
            State::Epilog => {
                self.skip_misc();
                if self.pos != self.bytes.len() {
                    return Err(XmlError::parse(
                        self.pos,
                        "trailing content after root element",
                    ));
                }
                Ok(Event::Eof)
            }
        }
    }

    fn read_content(&mut self) -> XmlResult<Event<'a>> {
        loop {
            let rest = &self.bytes[self.pos..];
            match rest {
                [b'<', b'/', ..] => return self.read_end_tag(),
                [b'<', b'!', ..] if rest.starts_with(b"<!--") => {
                    let start = self.pos + 4;
                    let end = self.input[start..]
                        .find("-->")
                        .ok_or_else(|| XmlError::parse(self.pos, "unterminated comment"))?;
                    check_chars(&self.bytes[start..start + end], start)?;
                    self.pos = start + end + 3;
                    return Ok(Event::Comment(&self.input[start..start + end]));
                }
                [b'<', b'!', ..] if rest.starts_with(b"<![CDATA[") => {
                    let start = self.pos + 9;
                    let end = self.input[start..]
                        .find("]]>")
                        .ok_or_else(|| XmlError::parse(self.pos, "unterminated CDATA"))?;
                    check_chars(&self.bytes[start..start + end], start)?;
                    self.pos = start + end + 3;
                    return Ok(Event::Text(Cow::Borrowed(&self.input[start..start + end])));
                }
                [b'<', b'?', ..] => self.skip_pi()?,
                [b'<', ..] => return self.read_start_tag(),
                [_, ..] => return self.read_text(),
                [] => {
                    return Err(XmlError::parse(
                        self.pos,
                        "unexpected end of input in element content",
                    ))
                }
            }
        }
    }

    /// Read `</name>`, which must close the innermost open element.
    fn read_end_tag(&mut self) -> XmlResult<Event<'a>> {
        let raw_name = self.open.last().map_or("", |o| o.raw_name);
        let after = &self.bytes[self.pos + 2..];
        if after.starts_with(raw_name.as_bytes()) && after.get(raw_name.len()) == Some(&b'>') {
            // The expected name, exactly: nothing to scan or compare.
            self.pos += 2 + raw_name.len() + 1;
        } else {
            self.pos += 2;
            let close_name = self.read_name()?;
            self.skip_ws();
            self.expect(">")?;
            if close_name != raw_name {
                return Err(XmlError::TagMismatch {
                    expected: raw_name.to_owned(),
                    found: close_name.to_owned(),
                    offset: self.pos,
                });
            }
        }
        self.close_element();
        Ok(Event::End)
    }

    /// Read the element whose start tag was just returned against the text
    /// that wrote it: `seams[0]`, a value, `seams[1]`, … a last value,
    /// `seams[N]`, from the start tag through the end tag (or a later
    /// sibling's, the seams going on through siblings that declare nothing).
    /// A value is clean character data — no `<`, `&` or `\r`, and no code
    /// point XML 1.0 forbids, so its bytes are what the events would decode.
    /// Matching bytes name the same elements only where the
    /// seams' prefixes are bound as the writer bound them: the caller lists
    /// every prefix the seams spell with its URI in `prefixes`, and no default
    /// namespace may be in scope for the names without one.
    ///
    /// When all of it matches and `accept` takes the values, the element is
    /// consumed and closed and `accept`'s answer returned. On the first
    /// difference, or if `accept` declines, nothing is consumed: the events
    /// read the element as if this had not been called.
    pub fn read_template<const N: usize, T>(
        &mut self,
        seams: &[&str],
        prefixes: &[(&str, &Arc<str>)],
        accept: impl FnOnce([&'a str; N]) -> Option<T>,
    ) -> Option<T> {
        assert_eq!(seams.len(), N + 1, "one seam either side of each value");
        // The tag itself: `<name>` to the byte, so it declared and carried
        // nothing. (A `<` cannot sit unquoted inside a tag, so bytes ending
        // the tag that spell `<name>` are the whole of it.)
        let name = self.open.last()?.raw_name;
        let tag = seams[0].get(..name.len() + 2)?;
        let spells_name = tag.strip_prefix('<').and_then(|t| t.strip_suffix('>')) == Some(name);
        let bound = |(prefix, uri): &(&str, &Arc<str>)| {
            let binding = self.scope.lookup(prefix);
            binding.is_some_and(|u| Arc::ptr_eq(&u, uri) || u == **uri)
        };
        if !matches!(self.state, State::Content)
            || !spells_name
            || !self.bytes[..self.pos].ends_with(tag.as_bytes())
            || self.scope.default_uri().is_some()
            || !prefixes.iter().all(bound)
        {
            return None;
        }

        let after = |at: usize, seam: &str| {
            let matches = self.bytes[at..].starts_with(seam.as_bytes());
            matches.then_some(at + seam.len())
        };
        let mut at = after(self.pos, &seams[0][tag.len()..])?;
        let mut values = [""; N];
        for (value, seam) in values.iter_mut().zip(&seams[1..]) {
            let rest = &self.bytes[at..];
            let len = find_any_or_non_char(rest, b"<&\r").filter(|&i| rest[i] == b'<')?;
            *value = &self.input[at..at + len];
            at = after(at + len, seam)?;
        }

        let out = accept(values)?;
        self.pos = at;
        self.close_element();
        Some(out)
    }

    /// Read character data up to the next `<`. One search finds the end of
    /// clean text; only text holding a `&` or `\r` is searched on for its
    /// `<` and decoded. Both searches refuse a code point XML 1.0 forbids.
    fn read_text(&mut self) -> XmlResult<Event<'a>> {
        let start = self.pos;
        let rest = &self.bytes[start..];
        let first = find_checked(rest, b"<&\r", start)?.unwrap_or(rest.len());
        if matches!(rest.get(first), None | Some(b'<')) {
            self.pos = start + first;
            return Ok(Event::Text(Cow::Borrowed(&self.input[start..self.pos])));
        }
        let len =
            find_checked(&rest[first..], b"<", start + first)?.map_or(rest.len(), |i| first + i);
        self.pos = start + len;
        decode(&self.input[start..self.pos], start, false).map(Event::Text)
    }

    /// Read one start tag: bind its `xmlns` declarations, then resolve its
    /// name and its attributes' names against the new scope.
    fn read_start_tag(&mut self) -> XmlResult<Event<'a>> {
        let open_pos = self.pos;
        self.expect("<")?;
        let raw_name = self.read_name()?;

        self.attrs.clear();
        let bindings_mark = self.scope.bindings.len();
        let mut pushed_default = false;
        let mut carried = 0;
        let empty = loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    break true;
                }
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(_) => {
                    carried += 1;
                    if carried > MAX_TAG_ATTRS {
                        return Err(too_many_attrs(open_pos));
                    }
                    let attr_name = self.read_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.read_quoted()?;
                    if attr_name == "xmlns" {
                        if !pushed_default {
                            pushed_default = true;
                            self.scope.default_ns.push(None);
                        }
                        *self.scope.default_ns.last_mut().expect("pushed above") =
                            if value.is_empty() {
                                None
                            } else {
                                Some(intern(&value))
                            };
                    } else if let Some(prefix) = attr_name.strip_prefix("xmlns:") {
                        self.scope.bindings.push((prefix, intern(&value)));
                    } else {
                        // Resolved below, once every binding of this tag
                        // is in scope.
                        self.attrs.push(RawAttr {
                            ns: None,
                            local: attr_name,
                            value,
                        });
                    }
                }
                None => return Err(XmlError::parse(self.pos, "unterminated start tag")),
            }
        };
        if self.open.len() == MAX_DEPTH {
            return Err(XmlError::parse(
                open_pos,
                format!("elements nested more than {MAX_DEPTH} deep"),
            ));
        }
        self.open.push(Open {
            raw_name,
            bindings_mark,
            pushed_default,
        });

        let scope = &self.scope;
        let unbound = |prefix: &str| XmlError::UnboundPrefix {
            prefix: prefix.to_owned(),
            offset: open_pos,
        };
        match raw_name.split_once(':') {
            Some((prefix, local)) => {
                self.name_ns = Some(scope.lookup(prefix).ok_or_else(|| unbound(prefix))?);
                self.name_local = local;
            }
            None => {
                self.name_ns = scope.default_uri();
                self.name_local = raw_name;
            }
        }
        for i in 0..self.attrs.len() {
            let (earlier, rest) = self.attrs.split_at_mut(i);
            let attr = &mut rest[0];
            if let Some((prefix, local)) = attr.local.split_once(':') {
                attr.ns = Some(scope.lookup(prefix).ok_or_else(|| unbound(prefix))?);
                attr.local = local;
            }
            // XML 1.0 §3.1, Namespaces in XML §6.3: expanded names are
            // unique within a tag. A tag has at most `MAX_TAG_ATTRS`
            // attributes, so compare pairwise.
            if earlier
                .iter()
                .any(|e| e.local == attr.local && e.ns == attr.ns)
            {
                return Err(XmlError::parse(
                    open_pos,
                    format!("duplicate attribute `{}`", attr.local),
                ));
            }
        }

        self.state = if empty {
            State::EmptyElement
        } else {
            State::Content
        };
        Ok(Event::Start)
    }

    /// Drop the innermost open element and the bindings it declared.
    fn close_element(&mut self) {
        if let Some(open) = self.open.pop() {
            self.scope.bindings.truncate(open.bindings_mark);
            if open.pushed_default {
                self.scope.default_ns.pop();
            }
        }
        if self.open.is_empty() {
            self.state = State::Epilog;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
            .unwrap_or(rest.len());
    }

    fn expect(&mut self, s: &str) -> XmlResult<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(XmlError::parse(self.pos, format!("expected `{s}`")))
        }
    }

    /// Skip the XML declaration, comments, PIs and whitespace before the root.
    fn skip_prolog(&mut self) -> XmlResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!DOCTYPE") {
                return Err(XmlError::parse(self.pos, "DTDs are not accepted"));
            } else {
                return Ok(());
            }
        }
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_comment().is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_comment(&mut self) -> XmlResult<()> {
        debug_assert!(self.starts_with("<!--"));
        let end = self.input[self.pos + 4..]
            .find("-->")
            .ok_or_else(|| XmlError::parse(self.pos, "unterminated comment"))?;
        check_chars(&self.bytes[self.pos + 4..self.pos + 4 + end], self.pos + 4)?;
        self.pos += 4 + end + 3;
        Ok(())
    }

    /// Skip a processing instruction, checking its characters.
    fn skip_pi(&mut self) -> XmlResult<()> {
        let end = self.input[self.pos..]
            .find("?>")
            .ok_or_else(|| XmlError::parse(self.pos, "unterminated processing instruction"))?;
        check_chars(&self.bytes[self.pos..self.pos + end], self.pos)?;
        self.pos += end + 2;
        Ok(())
    }

    /// Read a name, refusing U+FFFE and U+FFFF in it: looked for only when
    /// the name holds a byte past ASCII, so ASCII names pay nothing.
    fn read_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        let rest = &self.bytes[start..];
        let mut seen = 0;
        let len = rest
            .iter()
            .position(|&b| {
                seen |= b;
                !NAME_BYTE[usize::from(b)]
            })
            .unwrap_or(rest.len());
        if seen >= 0x80 && self.input[start..start + len].contains(['\u{FFFE}', '\u{FFFF}']) {
            return Err(not_a_char(start));
        }
        if len == 0 {
            return Err(XmlError::parse(start, "expected a name"));
        }
        self.pos = start + len;
        Ok(&self.input[start..self.pos])
    }

    /// Read a quoted attribute value. One search finds the closing quote of
    /// a clean value; only a value holding a `&` or literal whitespace is
    /// searched on for its quote and decoded. Both searches refuse a code
    /// point XML 1.0 forbids.
    fn read_quoted(&mut self) -> XmlResult<Cow<'a, str>> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(XmlError::parse(self.pos, "expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        let rest = &self.bytes[start..];
        let unterminated = || XmlError::parse(start, "unterminated attribute value");
        let first = find_checked(rest, &[quote, b'&', b'\t', b'\n', b'\r'], start)?
            .ok_or_else(unterminated)?;
        if rest[first] == quote {
            self.pos = start + first + 1;
            return Ok(Cow::Borrowed(&self.input[start..start + first]));
        }
        let len = first
            + find_checked(&rest[first..], &[quote], start + first)?.ok_or_else(unterminated)?;
        self.pos = start + len + 1;
        decode(&self.input[start..start + len], start, true)
    }
}

impl Drop for Reader<'_> {
    /// Hand the stacks back to the pool, read to the end or not.
    fn drop(&mut self) {
        let spare = (
            relabel(std::mem::take(&mut self.scope.bindings)),
            relabel(std::mem::take(&mut self.scope.default_ns)),
            relabel(std::mem::take(&mut self.open)),
            relabel(std::mem::take(&mut self.attrs)),
            relabel(std::mem::take(&mut self.ancestors)),
        );
        SPARE.with_borrow_mut(|pool| (pool.len() < MAX_SPARE).then(|| pool.push(spare)));
    }
}

/// A finished reader's stacks, empty, their lifetimes forgotten.
type Spare = (
    Vec<(&'static str, Arc<str>)>,
    Vec<Option<Arc<str>>>,
    Vec<Open<'static>>,
    Vec<RawAttr<'static>>,
    Vec<Element>,
);

/// Readers' stacks a thread keeps (readers alive at once: the envelope's
/// and a tree parse it starts), each cut back to `MAX_SPARE_LEN` entries.
const MAX_SPARE: usize = 4;
const MAX_SPARE_LEN: usize = 64;

thread_local! {
    static SPARE: RefCell<Vec<Spare>> = const { RefCell::new(Vec::new()) };
}

/// `v`, emptied, as a vector of `U`: the collect reuses the allocation (same
/// layout, in place), so a buffer changes lifetime without `unsafe`.
fn relabel<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.shrink_to(MAX_SPARE_LEN);
    v.into_iter().filter_map(|_| None).collect()
}

/// Most attributes plus namespace declarations one start tag may carry. A
/// WS-* message carries a dozen; duplicate detection and prefix lookup
/// compare a tag's attributes and bindings pairwise, so an unbounded tag at a
/// server's body limit would hold a worker for seconds.
pub const MAX_TAG_ATTRS: usize = 256;

/// Deepest element nesting a document may have. A WS-* envelope nests a
/// dozen or two. The reader keeps no stack frame per level, but the trees
/// built from it are walked recursively: `Drop`, `Clone`, `PartialEq`, the
/// writer, canonicalisation and XPath. Bounding depth here, at the one place
/// every tree builder passes through, keeps all six within a default 2 MiB
/// thread stack (a debug build's `Clone` spends ~1.2 KB a level) instead of
/// rewriting each as a stack-free walk. Unbounded, one 1 MB request nesting
/// 140 000 levels overflowed a server worker's stack while its tree was
/// dropped: an abort no panic containment catches.
pub const MAX_DEPTH: usize = 512;

/// The first member of `set` in `bytes` (at `offset` in the document), or an
/// error at a literal code point outside XML 1.0 `Char` before it: a C0
/// control other than TAB, LF and CR, or U+FFFE / U+FFFF. A reference to one
/// is refused by [`resolve_entity`]; the literal is refused here.
fn find_checked<const N: usize>(
    bytes: &[u8],
    set: &[u8; N],
    offset: usize,
) -> XmlResult<Option<usize>> {
    match find_any_or_non_char(bytes, set) {
        Some(at) if !set.contains(&bytes[at]) => Err(not_a_char(offset + at)),
        found => Ok(found),
    }
}

fn not_a_char(offset: usize) -> XmlError {
    XmlError::parse(offset, "character outside XML 1.0 `Char`")
}

/// Refuse `bytes` (at `offset`) if it holds a code point outside XML 1.0
/// `Char`: comments and CDATA sections, which hold no markup to find.
fn check_chars(bytes: &[u8], offset: usize) -> XmlResult<()> {
    find_checked(bytes, &[], offset).map(drop)
}

fn too_many_attrs(offset: usize) -> XmlError {
    XmlError::parse(
        offset,
        format!("more than {MAX_TAG_ATTRS} attributes on one start tag"),
    )
}

/// The bytes a name may hold: ASCII letters, digits, `_` `-` `.` `:`, and
/// anything outside ASCII. Names are short runs, where a table test per
/// byte beats a block search.
const NAME_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80;
        b += 1;
    }
    table
};

/// Decode character data (`attr` false) or an attribute value (`attr` true)
/// in one pass, hopping from special byte to special byte. Text gets XML
/// 1.0 §2.11 end-of-line handling (`\r\n` and bare `\r` become `\n`), an
/// attribute value §3.3.3 whitespace normalisation (literal `\t`/`\n`/`\r`
/// become spaces, CRLF counting as one), each fused with entity and
/// character-reference resolution — a `&#13;` survives as a literal `\r`.
/// Clean input is returned borrowed.
fn decode(raw: &str, offset: usize, attr: bool) -> XmlResult<Cow<'_, str>> {
    let bytes = raw.as_bytes();
    let next_special = |from: usize| {
        let rest = &bytes[from..];
        let found = if attr {
            find_any(rest, b"&\r\t\n")
        } else {
            find_any(rest, b"&\r")
        };
        found.map(|i| from + i)
    };
    let mut next = next_special(0);
    if next.is_none() {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut start = 0;
    while let Some(at) = next {
        out.push_str(&raw[start..at]);
        start = match bytes[at] {
            b'&' => {
                let (c, len) = resolve_entity(&raw[at..], offset)?;
                out.push(c);
                at + len
            }
            literal => {
                out.push(if attr { ' ' } else { '\n' });
                let crlf = literal == b'\r' && bytes.get(at + 1) == Some(&b'\n');
                at + 1 + usize::from(crlf)
            }
        };
        next = next_special(start);
    }
    out.push_str(&raw[start..]);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ns;

    #[test]
    fn clean_decode_borrows() {
        // The zero-copy fast path: no entity, no carriage return — no
        // allocation in either decoder.
        assert!(matches!(
            decode("plain text\nwith newline", 0, false).unwrap(),
            Cow::Borrowed(_)
        ));
        assert!(matches!(
            decode("plain value", 0, true).unwrap(),
            Cow::Borrowed(_)
        ));
        // Dirty input allocates exactly once.
        assert!(matches!(
            decode("a&amp;b", 0, false).unwrap(),
            Cow::Owned(_)
        ));
        assert!(matches!(decode("a\tb", 0, true).unwrap(), Cow::Owned(_)));
    }

    /// Every event of a document, names rendered `{uri}local`.
    fn trace(input: &str) -> XmlResult<Vec<String>> {
        let mut r = Reader::new(input);
        let mut out = Vec::new();
        loop {
            out.push(match r.next()? {
                Event::Start => {
                    let (uri, local) = r.name();
                    let mut s = format!("<{{{}}}{local}", uri.map_or("", |u| &**u));
                    for a in r.attrs() {
                        let uri = a.ns.as_deref().unwrap_or("");
                        s.push_str(&format!(" {{{uri}}}{}={}", a.local, a.value));
                    }
                    s
                }
                Event::End => format!("/{}", r.depth()),
                Event::Text(t) => format!("T:{t}"),
                Event::Comment(c) => format!("C:{c}"),
                Event::Eof => return Ok(out),
            });
        }
    }

    #[test]
    fn events_in_document_order_with_resolved_names() {
        let doc = format!(
            "<?xml version=\"1.0\"?><!-- pre --><s:a xmlns:s=\"{0}\" xmlns=\"urn:d\" k=\"v\" s:q=\"1\">\
             hi<b/><!-- in --><![CDATA[<raw>]]><?pi x?></s:a><!-- post -->",
            ns::SOAP
        );
        assert_eq!(
            trace(&doc).unwrap(),
            [
                &format!("<{{{0}}}a {{}}k=v {{{0}}}q=1", ns::SOAP),
                "T:hi",
                "<{urn:d}b",
                "/1",
                "C: in ",
                "T:<raw>",
                "/0",
            ]
        );
    }

    #[test]
    fn bindings_declared_after_their_use_in_the_same_tag_resolve() {
        assert_eq!(
            trace("<p:a p:k=\"v\" xmlns:p=\"urn:p\"/>").unwrap(),
            ["<{urn:p}a {urn:p}k=v", "/0"]
        );
    }

    #[test]
    fn skip_to_depth_leaves_the_enclosing_element_open() {
        let mut r = Reader::new("<a><b><c>deep</c><d/></b><e/></a>");
        assert_eq!(r.next().unwrap(), Event::Start); // a
        assert_eq!(r.next().unwrap(), Event::Start); // b
        r.skip_to_depth(1).unwrap();
        assert_eq!(r.next().unwrap(), Event::Start);
        assert!(r.is_named(None, "e"));
        assert!(!r.is_named(Some(&intern("urn:x")), "e"));
    }

    #[test]
    fn skipped_content_is_still_checked() {
        let mut r = Reader::new("<a><b><c></d></b></a>");
        r.next().unwrap();
        r.next().unwrap();
        assert!(matches!(
            r.skip_to_depth(1),
            Err(XmlError::TagMismatch { .. })
        ));
    }

    #[test]
    fn a_template_consumes_its_whole_element_or_nothing() {
        let seams = ["<p:pair><p:a>", "</p:a><b k=\"v\">", "</b></p:pair>"];
        let urn = intern("urn:p");
        let doc = "<r xmlns:p=\"urn:p\"><p:pair><p:a>1 &gt; 0</p:a><b k=\"v\"></b></p:pair>\
                   <p:pair><p:a>x</p:a><b k=\"v\">y\u{e9}</b></p:pair><p:pair/></r>";
        let mut r = Reader::new(doc);
        let pair = |r: &mut Reader<'_>| {
            assert_eq!(r.next().unwrap(), Event::Start);
            assert!(r.is_named(Some(&intern("urn:p")), "pair"));
        };
        let join = |[a, b]: [&str; 2]| Some(format!("{a}|{b}"));
        assert_eq!(r.next().unwrap(), Event::Start); // r

        // A value the events must decode: declined, and the events go on.
        pair(&mut r);
        let at = r.offset();
        assert_eq!(r.read_template(&seams, &[("p", &urn)], join), None);
        assert_eq!((r.offset(), r.depth()), (at, 2));
        r.skip_to_depth(1).unwrap();

        // Matching bytes: refused by the caller, by a binding, then taken.
        pair(&mut r);
        let at = r.offset();
        assert_eq!(
            r.read_template(&seams, &[("p", &urn)], |_: [&str; 2]| None::<()>),
            None
        );
        let other = intern("urn:q");
        assert_eq!(r.read_template(&seams, &[("p", &other)], join), None);
        assert_eq!(r.read_template(&seams, &[("q", &urn)], join), None);
        assert_eq!((r.offset(), r.depth()), (at, 2));
        assert_eq!(
            r.read_template(&seams, &[("p", &urn)], join).as_deref(),
            Some("x|y\u{e9}")
        );
        assert_eq!(r.depth(), 1);

        // An empty-element tag is not the template's start tag.
        pair(&mut r);
        assert_eq!(r.read_template(&seams, &[("p", &urn)], join), None);
        assert_eq!(r.next().unwrap(), Event::End);
        assert_eq!(r.next().unwrap(), Event::End);
        assert_eq!(r.next().unwrap(), Event::Eof);

        // The root itself, and a default namespace in scope.
        let mut r = Reader::new("<a>v</a> ");
        r.next().unwrap();
        assert_eq!(
            r.read_template(&["<a>", "</a>"], &[], |[v]| Some(v)),
            Some("v")
        );
        assert_eq!(r.next().unwrap(), Event::Eof);
        let mut r = Reader::new("<a xmlns=\"urn:d\"><b>v</b></a>");
        r.next().unwrap();
        r.next().unwrap();
        assert_eq!(r.read_template(&["<b>", "</b>"], &[], |[v]| Some(v)), None);
    }

    /// Two readers alive at once on one thread each get stacks of their
    /// own, a reader dropped mid-document on an error hands back stacks
    /// that read the next document right, and the pool holds at most
    /// `MAX_SPARE` stacks of at most `MAX_SPARE_LEN` entries each.
    #[test]
    fn pooled_stacks_serve_readers_alive_together_and_after_an_error() {
        let doc = "<p:a xmlns:p='urn:p' xmlns='urn:d' k='v'><b x='1'/>t</p:a>";
        let expected = trace(doc).unwrap();
        let (mut one, mut two) = (Reader::new(doc), Reader::new(doc));
        for _ in 0..expected.len() {
            assert_eq!(one.next(), two.next());
        }
        drop((one, two));
        let mut broken = Reader::new("<q:x xmlns:q='urn:q' a='1'><y b='2'><z></y></q:x>");
        while broken.next().is_ok() {}
        drop(broken);
        assert_eq!(trace(doc).unwrap(), expected);

        let wide: String = (0..MAX_TAG_ATTRS)
            .map(|i| format!(" xmlns:p{i}='urn:{i}'"))
            .collect();
        let deep = format!("<r{wide}>{}{}</r>", "<d>".repeat(300), "</d>".repeat(300));
        let readers: Vec<_> = (0..2 * MAX_SPARE).map(|_| Reader::new(&deep)).collect();
        for mut r in readers {
            while r.next().unwrap() != Event::Eof {}
            assert!(r.scope.bindings.capacity() > MAX_SPARE_LEN);
        }
        SPARE.with(|s| {
            let pool = s.borrow();
            assert_eq!(pool.len(), MAX_SPARE);
            for spare in pool.iter() {
                let caps = [spare.0.capacity(), spare.2.capacity()];
                assert!(caps.iter().all(|&c| c <= MAX_SPARE_LEN), "{caps:?}");
            }
        });
        assert_eq!(trace(doc).unwrap(), expected);
    }

    #[test]
    fn a_start_tag_carries_at_most_max_tag_attrs() {
        let tag = |attrs: usize, declarations: usize| {
            let attrs: String = (0..attrs).map(|i| format!(" a{i}='v'")).collect();
            let declarations: String = (0..declarations)
                .map(|i| format!(" xmlns:p{i}='urn:{i}'"))
                .collect();
            format!("<r{attrs}{declarations}/>")
        };
        for (attrs, declarations) in [(MAX_TAG_ATTRS, 0), (0, MAX_TAG_ATTRS), (200, 56)] {
            assert!(trace(&tag(attrs, declarations)).is_ok());
        }
        for (attrs, declarations) in [(MAX_TAG_ATTRS + 1, 0), (0, MAX_TAG_ATTRS + 1), (200, 57)] {
            assert!(matches!(
                trace(&tag(attrs, declarations)),
                Err(XmlError::Parse { offset: 0, .. })
            ));
        }
    }

    #[test]
    fn errors_are_reported_where_the_document_breaks() {
        assert!(matches!(
            trace("<p:a/>"),
            Err(XmlError::UnboundPrefix { .. })
        ));
        assert!(matches!(
            trace("<a q:k=\"v\"/>"),
            Err(XmlError::UnboundPrefix { .. })
        ));
        // A second attribute with the same expanded name, at its start tag.
        for doc in [
            "<a x='1' x='2'><b></a>",
            "<a xmlns:p='urn:x' xmlns:q='urn:x' p:k='1' q:k='2'/>",
        ] {
            assert!(matches!(
                Reader::new(doc).next(),
                Err(XmlError::Parse { offset: 0, .. })
            ));
        }
        assert_eq!(
            trace("<a xmlns:p='urn:x' xmlns:q='urn:y' p:k='1' q:k='2' k='3'/>").unwrap()[0],
            "<{}a {urn:x}k=1 {urn:y}k=2 {}k=3"
        );
        assert!(trace("<a/><b/>").is_err());
        assert!(trace("<a>").is_err());
        assert!(trace("").is_err());
    }
}
