//! Deterministic canonical form used by WS-Security signing.
//!
//! This is a simplified exclusive-canonicalisation analogue: element and
//! attribute names are written in Clark notation (`{uri}local`), attributes
//! are sorted by expanded name, text is escaped, and comments are dropped.
//! Two trees that are infoset-equal always canonicalise to identical bytes
//! regardless of the prefixes the sender chose — which is exactly the
//! property a signature digest needs.
//!
//! Canonicalisation streams through a [`Sink`], so a digest consumer can
//! feed the bytes straight into an incremental hash state without ever
//! materialising the canonical `String` ([`canonicalize_into`]).

use crate::escape::{escape_runs, legal_name};
use crate::node::{Attribute, Element, Node};
use crate::writer::Sink;
use crate::QName;

/// Canonical byte representation of the subtree rooted at `e`.
pub fn canonicalize(e: &Element) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    canonicalize_into(e, &mut out);
    out
}

/// Stream the canonical form of `e` into `sink`, one pass over the tree,
/// with no intermediate canonical buffer. Clark names are pushed as their
/// four parts (`<` `{` uri `}` local) rather than formatted into a
/// temporary, and text reaches the sink as borrowed slices — clean run,
/// entity, clean run — so a text node holding one `&` costs no `String`.
pub fn canonicalize_into<S: Sink>(e: &Element, sink: &mut S) {
    let local = legal_name(&e.name.local);
    sink.push_str("<");
    clark_name(&e.name, &local, sink);
    if e.attrs.len() > 1 {
        let mut attrs: Vec<_> = e.attrs.iter().collect();
        attrs.sort_by(|a, b| a.name.cmp(&b.name));
        for a in attrs {
            push_attr(a, sink);
        }
    } else {
        for a in &e.attrs {
            push_attr(a, sink);
        }
    }
    sink.push_str(">");
    for c in &e.children {
        match c {
            Node::Element(child) => canonicalize_into(child, sink),
            Node::Shared(child) => canonicalize_into(child, sink),
            Node::Text(t) => escape_runs(t, false, sink),
            Node::Comment(_) => {} // comments never participate in digests
        }
    }
    sink.push_str("</");
    clark_name(&e.name, &local, sink);
    sink.push_str(">");
}

/// `name` in Clark notation, its local part written as `local` (its
/// [`legal_name`], found once per element).
fn clark_name<S: Sink>(name: &QName, local: &str, sink: &mut S) {
    if let Some(uri) = &name.ns {
        sink.push_str("{");
        sink.push_str(uri);
        sink.push_str("}");
    }
    sink.push_str(local);
}

fn push_attr<S: Sink>(a: &Attribute, sink: &mut S) {
    sink.push_str(" ");
    clark_name(&a.name, &legal_name(&a.name.local), sink);
    sink.push_str("=\"");
    escape_runs(&a.value, true, sink);
    sink.push_str("\"");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Element};

    #[test]
    fn prefix_choice_does_not_change_canonical_form() {
        let a = parse("<p:a xmlns:p=\"urn:x\"><p:b k=\"1\"/></p:a>").unwrap();
        let b = parse("<q:a xmlns:q=\"urn:x\"><q:b k=\"1\"/></q:a>").unwrap();
        let c = parse("<a xmlns=\"urn:x\"><b k=\"1\"/></a>").unwrap();
        assert_eq!(canonicalize(&a), canonicalize(&b));
        assert_eq!(canonicalize(&a), canonicalize(&c));
    }

    #[test]
    fn attribute_order_does_not_matter() {
        let a = parse("<a x=\"1\" y=\"2\"/>").unwrap();
        let b = parse("<a y=\"2\" x=\"1\"/>").unwrap();
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn comments_are_dropped() {
        let a = parse("<a>t<!-- c -->u</a>").unwrap();
        let b = parse("<a>tu</a>").unwrap();
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn content_changes_change_the_bytes() {
        let a = parse("<a>1</a>").unwrap();
        let b = parse("<a>2</a>").unwrap();
        assert_ne!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn empty_element_roundtrip_is_stable() {
        let e = Element::new("x");
        assert_eq!(canonicalize(&e), b"<x></x>");
    }

    #[test]
    fn string_sink_matches_byte_sink() {
        let e = parse("<p:a xmlns:p=\"urn:x\" z=\"2\" y=\"1\"><p:b>t &amp; u</p:b></p:a>").unwrap();
        let mut s = String::new();
        canonicalize_into(&e, &mut s);
        assert_eq!(s.as_bytes(), &canonicalize(&e)[..]);
    }

    /// A chunk-recording sink: proves streaming delivers the same bytes in
    /// the same order a buffering consumer would see.
    #[test]
    fn streaming_chunks_concatenate_to_the_buffered_form() {
        struct Chunks(Vec<String>);
        impl Sink for Chunks {
            fn push_str(&mut self, s: &str) {
                self.0.push(s.to_owned());
            }
        }
        let e = parse("<a x=\"1\"><b/>text</a>").unwrap();
        let mut chunks = Chunks(Vec::new());
        canonicalize_into(&e, &mut chunks);
        assert_eq!(chunks.0.concat().into_bytes(), canonicalize(&e));
    }
}
