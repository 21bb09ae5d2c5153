//! Serialisation with automatic prefix management.
//!
//! All namespaces used anywhere in the tree are declared once on the root
//! element, using the well-known prefixes from [`crate::name::ns`] where
//! possible (`soap`, `wsa`, `wsrp`, ...) and generated `ns0`, `ns1`, ...
//! prefixes otherwise. This mirrors how WSE/ASP.NET emitted envelopes and
//! keeps messages compact and deterministic.
//!
//! Every writer in the message path — this one, [`crate::escape`], the
//! canonicaliser, the SOAP envelope and its security block — is one
//! function generic over a [`Sink`]: it hands the output over as a sequence
//! of `&str` fragments, in order, and knows nothing of where they go. A
//! `String` keeps them, [`ByteCount`] adds up their lengths, a digest
//! hashes them. A length is therefore never computed apart from the bytes:
//! [`element_len`] and the SOAP layer's `wire_size` *are* the writer, run
//! into the counter, so the cost model is charged for a size nobody had to
//! materialise and no second definition of the format can drift from the
//! first. A sink must treat `push_str(a); push_str(b)` as `push_str(a + b)`
//! and may not fail; fragment boundaries carry no meaning.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;

use crate::escape::{escape_runs, write_runs};
use crate::name::{ns, QName};
use crate::node::{Element, Node};
use crate::pool::collect_pooled;

/// Where a writer's bytes go (see the module comment for the contract).
pub trait Sink {
    fn push_str(&mut self, s: &str);
}

impl Sink for String {
    #[inline]
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn push_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// The sink that keeps nothing but the number of bytes it was given.
#[derive(Debug)]
pub struct ByteCount(pub usize);

impl ByteCount {
    /// The number of bytes `write` produces.
    pub fn of(write: impl FnOnce(&mut ByteCount)) -> usize {
        let mut n = ByteCount(0);
        write(&mut n);
        n.0
    }
}

impl Sink for ByteCount {
    #[inline]
    fn push_str(&mut self, s: &str) {
        self.0 += s.len();
    }
}

/// The document prologue emitted by [`write_document`].
pub const XML_DECL: &str = "<?xml version=\"1.0\" encoding=\"utf-8\"?>";

/// Serialise as a full document: XML declaration plus the root element.
pub fn write_document(root: &Element) -> String {
    collect_pooled(|out| write_document_into(root, out))
}

/// Serialise a full document into an existing buffer.
pub fn write_document_into(root: &Element, out: &mut String) {
    out.push_str(XML_DECL);
    write_into(root, out);
}

/// Serialise the element without an XML declaration.
pub fn write_element(root: &Element) -> String {
    collect_pooled(|out| write_into(root, out))
}

/// Serialise the element into any sink — an existing buffer, a counter, a
/// digest.
pub fn write_into<S: Sink>(root: &Element, out: &mut S) {
    write_elem(root, &Prefixes::for_tree(root), true, out);
}

/// Exact byte length of [`write_element`]'s output, without producing it.
pub fn element_len(root: &Element) -> usize {
    ByteCount::of(|n| write_into(root, n))
}

/// Exact byte length of [`write_document`]'s output, without producing it.
pub fn document_len(root: &Element) -> usize {
    XML_DECL.len() + element_len(root)
}

/// A deterministic URI → prefix assignment for one serialisation.
///
/// URIs are held in sorted order so generated prefixes do not depend on
/// traversal order; lookups compare `Arc` pointers first (all URIs produced
/// by the parser and `QName::new` are interned) and fall back to content.
#[derive(Clone, Default)]
pub struct Prefixes {
    /// `(uri, prefix)` in URI-sorted order — also the declaration order.
    /// Shared with the per-thread memo an assignment is remembered in.
    entries: Arc<[(Arc<str>, Cow<'static, str>)]>,
}

impl Prefixes {
    /// Assign prefixes for every namespace URI in one tree.
    pub fn for_tree(root: &Element) -> Prefixes {
        let mut b = PrefixesBuilder::new();
        b.add_tree(root);
        b.build()
    }

    /// Preferred prefixes from [`ns::preferred_prefix`] where available and
    /// unclaimed, `ns0`, `ns1`, ... otherwise, in URI order.
    fn assign(uris: &[Arc<str>]) -> Prefixes {
        let mut sorted: Vec<&Arc<str>> = uris.iter().collect();
        sorted.sort_unstable();
        let mut entries: Vec<(Arc<str>, Cow<'static, str>)> = Vec::with_capacity(uris.len());
        let mut counter = 0usize;
        for uri in sorted {
            let preferred = ns::preferred_prefix(uri).map(Cow::Borrowed);
            let prefix = match preferred {
                Some(p) if !entries.iter().any(|(_, taken)| *taken == p) => p,
                _ => loop {
                    let candidate = format!("ns{counter}");
                    counter += 1;
                    if !entries.iter().any(|(_, taken)| **taken == candidate) {
                        break Cow::Owned(candidate);
                    }
                },
            };
            entries.push((uri.clone(), prefix));
        }
        Prefixes {
            entries: entries.into(),
        }
    }

    /// The prefix assigned to `uri`. Panics if the URI was never collected —
    /// serialising a tree with a builder that did not see it is a bug.
    pub fn prefix_for(&self, uri: &Arc<str>) -> &str {
        for (u, p) in self.entries.iter() {
            if Arc::ptr_eq(u, uri) || **u == **uri {
                return p;
            }
        }
        panic!("namespace `{uri}` was not collected before serialisation");
    }

    /// Append ` xmlns:p="uri"` declarations for every collected URI, in
    /// deterministic (URI-sorted) order.
    pub fn write_declarations<S: Sink>(&self, out: &mut S) {
        for (uri, prefix) in self.entries.iter() {
            out.push_str(" xmlns:");
            out.push_str(prefix);
            out.push_str("=\"");
            escape_runs(uri, true, out);
            out.push_str("\"");
        }
    }
}

/// How many assignments a thread remembers. A service writes a handful of
/// URI sets; a whole Grid-in-a-Box job on both stacks writes fourteen.
const MEMO_SLOTS: usize = 32;

/// The assignment is a pure function of the URI set, and a thread writes the
/// same few sets over and over (interned, so the same pointers): remember
/// the last [`MEMO_SLOTS`] by the `Arc`s collected, in collection order. A
/// key holds its `Arc`s, so a pointer it compares equal to is that string.
#[derive(Default)]
struct Memo {
    /// A finished builder's collecting vector, emptied, for the next one.
    spare: Vec<Arc<str>>,
    /// Oldest first.
    slots: Vec<(Vec<Arc<str>>, Prefixes)>,
}

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::default();
}

/// Collects namespace URIs from one or more trees (plus any synthetic names
/// the caller will emit itself) before freezing them into [`Prefixes`].
/// The SOAP layer uses this to serialise an envelope around *borrowed*
/// header and body subtrees without first cloning them into one tree.
#[derive(Default)]
pub struct PrefixesBuilder {
    uris: Vec<Arc<str>>,
}

impl PrefixesBuilder {
    pub fn new() -> PrefixesBuilder {
        PrefixesBuilder {
            uris: MEMO.with_borrow_mut(|memo| std::mem::take(&mut memo.spare)),
        }
    }

    /// Collect every URI in the subtree rooted at `e`.
    pub fn add_tree(&mut self, e: &Element) {
        if let Some(uri) = &e.name.ns {
            self.add_uri(uri);
        }
        for a in &e.attrs {
            if let Some(uri) = &a.name.ns {
                self.add_uri(uri);
            }
        }
        for c in e.child_elements() {
            self.add_tree(c);
        }
    }

    /// The URIs collected so far, each once, in collection order.
    pub fn uris(&self) -> &[Arc<str>] {
        &self.uris
    }

    /// Collect a single URI (for elements the caller writes by hand).
    pub fn add_uri(&mut self, uri: &Arc<str>) {
        if !self
            .uris
            .iter()
            .any(|u| Arc::ptr_eq(u, uri) || **u == **uri)
        {
            self.uris.push(uri.clone());
        }
    }

    /// Freeze into the deterministic assignment of [`Prefixes::assign`] —
    /// remembered, if this thread lately built one for the same URIs.
    pub fn build(self) -> Prefixes {
        let mut uris = self.uris;
        MEMO.with_borrow_mut(|memo| {
            let same = |key: &[Arc<str>]| {
                key.len() == uris.len() && key.iter().zip(&uris).all(|(a, b)| Arc::ptr_eq(a, b))
            };
            let prefixes = match memo.slots.iter().find(|(key, _)| same(key)) {
                Some((_, prefixes)) => prefixes.clone(),
                None => {
                    let prefixes = Prefixes::assign(&uris);
                    if memo.slots.len() == MEMO_SLOTS {
                        memo.slots.remove(0);
                    }
                    memo.slots.push((uris.clone(), prefixes.clone()));
                    prefixes
                }
            };
            uris.clear();
            memo.spare = uris;
            prefixes
        })
    }
}

/// The prefix a name is written with, looked up once per name.
fn prefix_of<'p>(name: &QName, prefixes: &'p Prefixes) -> Option<&'p str> {
    name.ns.as_ref().map(|uri| prefixes.prefix_for(uri))
}

fn qname_str<S: Sink>(prefix: Option<&str>, name: &QName, out: &mut S) {
    if let Some(prefix) = prefix {
        out.push_str(prefix);
        out.push_str(":");
    }
    out.push_str(&name.local);
}

/// Serialise a subtree under an already-established prefix assignment —
/// no namespace declarations are emitted (the caller's root carries them).
pub fn write_subtree_into<S: Sink>(e: &Element, prefixes: &Prefixes, out: &mut S) {
    write_elem(e, prefixes, false, out);
}

fn write_elem<S: Sink>(e: &Element, prefixes: &Prefixes, is_root: bool, out: &mut S) {
    let prefix = prefix_of(&e.name, prefixes);
    out.push_str("<");
    qname_str(prefix, &e.name, out);
    if is_root {
        prefixes.write_declarations(out);
    }
    for a in &e.attrs {
        out.push_str(" ");
        qname_str(prefix_of(&a.name, prefixes), &a.name, out);
        out.push_str("=\"");
        escape_runs(&a.value, true, out);
        out.push_str("\"");
    }
    if e.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push_str(">");
    for child in &e.children {
        match child {
            Node::Element(c) => write_elem(c, prefixes, false, out),
            Node::Shared(c) => write_elem(c, prefixes, false, out),
            Node::Text(t) => escape_runs(t, false, out),
            Node::Comment(c) => {
                // A comment may hold no `--` and not end in `-`: a space
                // parts each such `-` from what follows it.
                out.push_str("<!--");
                for (n, piece) in c.split('-').enumerate() {
                    if n > 0 {
                        out.push_str(if piece.is_empty() { "- " } else { "-" });
                    }
                    write_runs(piece, &[], out);
                }
                out.push_str("-->");
            }
        }
    }
    out.push_str("</");
    qname_str(prefix, &e.name, out);
    out.push_str(">");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::{intern, ns, QName};
    use crate::Element;

    #[test]
    fn unqualified_tree_has_no_declarations() {
        let e = Element::new("a").with_child(Element::text_element("b", "x<y"));
        assert_eq!(write_element(&e), "<a><b>x&lt;y</b></a>");
    }

    #[test]
    fn known_namespaces_use_preferred_prefixes() {
        let e = Element::new(QName::new(ns::SOAP, "Envelope"))
            .with_child(Element::new(QName::new(ns::SOAP, "Body")));
        let s = write_element(&e);
        assert!(s.starts_with("<soap:Envelope xmlns:soap="));
        assert!(s.contains("<soap:Body/>"));
    }

    #[test]
    fn unknown_namespaces_get_generated_prefixes() {
        let e = Element::new(QName::new("urn:one", "a"))
            .with_child(Element::new(QName::new("urn:two", "b")));
        let s = write_element(&e);
        assert!(s.contains("xmlns:ns0=\"urn:one\""));
        assert!(s.contains("xmlns:ns1=\"urn:two\""));
        assert!(s.contains("<ns1:b/>"));
    }

    #[test]
    fn qualified_attributes_are_prefixed() {
        let e = Element::new("root").with_attr(QName::new(ns::WSU, "Id"), "body-1");
        let s = write_element(&e);
        assert!(s.contains("wsu:Id=\"body-1\""), "{s}");
    }

    #[test]
    fn document_has_declaration() {
        let s = write_document(&Element::new("d"));
        assert!(s.starts_with("<?xml version=\"1.0\""));
        assert!(s.ends_with("<d/>"));
    }

    #[test]
    fn comments_are_preserved() {
        let mut e = Element::new("a");
        e.children.push(crate::Node::Comment(" hi ".into()));
        assert_eq!(write_element(&e), "<a><!-- hi --></a>");
    }

    /// A comment holding `-->` (or `--`, or ending in `-`) is written so it
    /// reads back as one comment, not a comment and text.
    #[test]
    fn comment_dashes_are_parted() {
        let mut e = Element::new("a");
        e.children.push(crate::Node::Comment("x-->y--z-".into()));
        let doc = write_element(&e);
        assert_eq!(doc, "<a><!--x- ->y- -z- --></a>");
        let back = crate::parse(&doc).unwrap();
        assert_eq!(back.children, [crate::Node::Comment("x- ->y- -z- ".into())]);
    }

    #[test]
    fn attr_values_are_escaped() {
        let e = Element::new("a").with_attr("v", "a\"b<c&d");
        assert_eq!(write_element(&e), "<a v=\"a&quot;b&lt;c&amp;d\"/>");
    }

    /// A mixed tree exercising every branch of the counting serialiser.
    fn gnarly() -> Element {
        let mut e = Element::new(QName::new(ns::SOAP, "Envelope"))
            .with_attr(QName::new(ns::WSU, "Id"), "env \"1\"")
            .with_attr("plain", "x<y&z")
            .with_child(
                Element::new(QName::new("urn:two", "b"))
                    .with_text("text & <markup> with \r return"),
            )
            .with_child(Element::new("empty"));
        e.children.push(crate::Node::Comment(" note ".into()));
        e.children
            .push(crate::Node::Element(Element::text_element("t", "")));
        e
    }

    #[test]
    fn counting_serialiser_matches_output_exactly() {
        for e in [
            Element::new("a"),
            Element::new("a").with_child(Element::text_element("b", "x<y")),
            gnarly(),
        ] {
            assert_eq!(element_len(&e), write_element(&e).len());
            assert_eq!(document_len(&e), write_document(&e).len());
        }
    }

    #[test]
    fn into_buffer_appends() {
        let e = gnarly();
        let mut buf = String::from("prefix|");
        write_into(&e, &mut buf);
        assert_eq!(buf, format!("prefix|{}", write_element(&e)));
        let mut doc = String::new();
        write_document_into(&e, &mut doc);
        assert_eq!(doc, write_document(&e));
    }

    #[test]
    fn subtree_writer_shares_the_root_prefix_assignment() {
        let e = gnarly();
        let prefixes = Prefixes::for_tree(&e);
        let child = e.child_elements().next().unwrap();
        let mut out = String::new();
        write_subtree_into(child, &prefixes, &mut out);
        assert_eq!(
            out,
            "<ns0:b>text &amp; &lt;markup&gt; with &#13; return</ns0:b>"
        );
        assert_eq!(
            ByteCount::of(|n| write_subtree_into(child, &prefixes, n)),
            out.len()
        );
    }

    /// Remembered or computed, an assignment is the same: more URI sets
    /// than the memo holds, each built again after all the others, in two
    /// collection orders, interned and not.
    #[test]
    fn a_remembered_assignment_is_the_computed_one() {
        let declared = |uris: &[Arc<str>]| {
            let mut b = PrefixesBuilder::new();
            uris.iter().for_each(|uri| b.add_uri(uri));
            let mut out = String::new();
            b.build().write_declarations(&mut out);
            out
        };
        let computed = |uris: &[Arc<str>]| {
            let mut out = String::new();
            Prefixes::assign(uris).write_declarations(&mut out);
            out
        };
        let sets: Vec<Vec<Arc<str>>> = (0..3 * MEMO_SLOTS)
            .map(|i| {
                vec![
                    intern(ns::SOAP),
                    intern(&format!("urn:memo:{i}")),
                    intern(ns::WSA),
                    Arc::from(format!("urn:memo:loose:{}", i % 2)),
                ]
            })
            .collect();
        for _ in 0..2 {
            for set in &sets {
                let expected = computed(set);
                assert_eq!(declared(set), expected);
                assert_eq!(declared(set), expected, "the hit");
                let reversed: Vec<_> = set.iter().rev().cloned().collect();
                assert_eq!(declared(&reversed), expected);
            }
        }
        assert!(
            declared(&sets[5]).contains("xmlns:ns0=\"urn:memo:5\" xmlns:ns1=\"urn:memo:loose:1\"")
        );
        assert_eq!(declared(&[]), "");
    }

    #[test]
    fn builder_collects_synthetic_uris() {
        let mut b = PrefixesBuilder::new();
        let soap = intern(ns::SOAP);
        b.add_uri(&soap);
        b.add_uri(&soap); // deduplicated
        b.add_tree(&Element::new(QName::new("urn:two", "b")));
        let p = b.build();
        assert_eq!(p.prefix_for(&soap), "soap");
        assert_eq!(p.prefix_for(&intern("urn:two")), "ns0");
        let mut decls = String::new();
        p.write_declarations(&mut decls);
        assert_eq!(decls.len(), ByteCount::of(|n| p.write_declarations(n)));
        assert!(decls.contains("xmlns:soap="));
    }
}
