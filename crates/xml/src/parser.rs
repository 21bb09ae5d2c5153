//! The tree builder: [`parse`] drives the pull [`Reader`] and assembles the
//! [`Element`] tree every layer above works on.
//!
//! Names are resolved through the global interner here (the reader itself
//! interns nothing), so the `QName`s a parsed tree carries compare by
//! pointer. The original two-pass implementation is preserved in
//! [`crate::reference`] for differential testing. Where a document breaks
//! in more than one way, the first break in document order is the one
//! reported.

use crate::error::{XmlError, XmlResult};
use crate::name::{intern, QName};
use crate::node::{Attribute, Element, Node};
use crate::reader::{Event, Reader};

/// Parse a complete document (or bare element) into its root [`Element`].
pub fn parse(input: &str) -> XmlResult<Element> {
    let mut reader = Reader::new(input);
    let root = match reader.next()? {
        Event::Start => build_subtree(&mut reader)?,
        _ => return Err(XmlError::parse(reader.offset(), "expected a root element")),
    };
    // Nothing but comments and whitespace may follow the root.
    reader.next()?;
    Ok(root)
}

/// Build the tree of the element whose [`Event::Start`] the reader has just
/// returned, consuming events through its matching end. The open elements
/// are kept on an explicit stack, the reader's pooled one, so nesting depth
/// costs heap, not call stack.
pub fn build_subtree(reader: &mut Reader<'_>) -> XmlResult<Element> {
    let mut ancestors = std::mem::take(&mut reader.ancestors);
    let mut current = started_element(reader);
    loop {
        match reader.next()? {
            Event::Start => {
                let parent = std::mem::replace(&mut current, started_element(reader));
                ancestors.push(parent);
            }
            Event::End => match ancestors.pop() {
                Some(mut parent) => {
                    parent.children.push(Node::Element(current));
                    current = parent;
                }
                None => {
                    reader.ancestors = ancestors;
                    return Ok(current);
                }
            },
            Event::Text(text) => current.children.push(Node::Text(text.into_owned())),
            Event::Comment(comment) => current.children.push(Node::Comment(comment.to_owned())),
            Event::Eof => {
                return Err(XmlError::parse(
                    reader.offset(),
                    "document ended inside an element",
                ))
            }
        }
    }
}

/// The childless element for the reader's current start tag. Local parts go
/// through the interner so repeated names share one allocation and compare
/// by pointer.
fn started_element(reader: &mut Reader<'_>) -> Element {
    let (uri, local) = reader.name();
    let name = QName {
        ns: uri.cloned(),
        local: intern(local),
    };
    let attrs = reader
        .drain_attrs()
        .map(|a| Attribute {
            name: QName {
                ns: a.ns,
                local: intern(a.local),
            },
            value: a.value.into_owned(),
        })
        .collect();
    Element {
        name,
        attrs,
        children: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ns;
    use crate::reader::MAX_DEPTH;
    use crate::writer::write_element;
    use std::sync::Arc;

    #[test]
    fn attribute_whitespace_normalises_to_spaces() {
        // Literal whitespace collapses (XML 1.0 §3.3.3), CRLF as one space…
        let e = parse("<a x=\"p\tq\nr\r\ns\"/>").unwrap();
        assert_eq!(e.attr_local("x"), Some("p q r s"));
        // …but character references survive verbatim.
        let e = parse("<a x=\"p&#9;q&#10;r&#13;s\"/>").unwrap();
        assert_eq!(e.attr_local("x"), Some("p\tq\nr\rs"));
    }

    #[test]
    fn text_end_of_line_normalisation() {
        let e = parse("<a>one\r\ntwo\rthree\nfour</a>").unwrap();
        assert_eq!(e.text(), "one\ntwo\nthree\nfour");
        // A carriage return written as a character reference is preserved.
        let e = parse("<a>one&#13;two</a>").unwrap();
        assert_eq!(e.text(), "one\rtwo");
    }

    #[test]
    fn parsed_names_are_interned() {
        let a = parse("<counter><value>1</value></counter>").unwrap();
        let b = parse("<counter><value>2</value></counter>").unwrap();
        assert!(Arc::ptr_eq(&a.name.local, &b.name.local));
        let av = a.child_elements().next().unwrap();
        let bv = b.child_elements().next().unwrap();
        assert!(Arc::ptr_eq(&av.name.local, &bv.name.local));
    }

    #[test]
    fn attr_with_newline_roundtrips_through_writer() {
        // Regression: serialised EPR reference properties containing
        // newlines must survive write → parse.
        let mut e = Element::new("epr");
        e.set_attr("ref", "line1\nline2\ttab\rcr");
        let doc = write_element(&e);
        let back = parse(&doc).unwrap();
        assert_eq!(back.attr_local("ref"), Some("line1\nline2\ttab\rcr"));
    }

    #[test]
    fn simple_roundtrip() {
        let src = "<a><b>hi</b><c x=\"1\"/></a>";
        let e = parse(src).unwrap();
        assert_eq!(write_element(&e), src);
    }

    #[test]
    fn declaration_and_whitespace_prolog() {
        let e = parse("<?xml version=\"1.0\"?>\n<!-- preamble -->\n<root/>").unwrap();
        assert_eq!(&*e.name.local, "root");
    }

    #[test]
    fn namespace_resolution_prefixed() {
        let src = format!(
            "<s:Envelope xmlns:s=\"{}\"><s:Body/></s:Envelope>",
            ns::SOAP
        );
        let e = parse(&src).unwrap();
        assert!(e.name.in_ns(ns::SOAP));
        assert!(e.child_elements().next().unwrap().name.in_ns(ns::SOAP));
    }

    #[test]
    fn default_namespace_applies_to_elements_not_attrs() {
        let e = parse("<a xmlns=\"urn:d\" k=\"v\"><b/></a>").unwrap();
        assert!(e.name.in_ns("urn:d"));
        assert!(e.attrs[0].name.ns.is_none());
        assert!(e.child_elements().next().unwrap().name.in_ns("urn:d"));
    }

    #[test]
    fn default_namespace_can_be_unbound() {
        let e = parse("<a xmlns=\"urn:d\"><b xmlns=\"\"/></a>").unwrap();
        let b = e.child_elements().next().unwrap();
        assert!(b.name.ns.is_none());
    }

    #[test]
    fn nested_scopes_shadow_and_restore() {
        let e = parse("<a xmlns:p=\"urn:one\"><p:x/><b xmlns:p=\"urn:two\"><p:x/></b><p:y/></a>")
            .unwrap();
        let kids: Vec<_> = e.child_elements().collect();
        assert!(kids[0].name.in_ns("urn:one"));
        assert!(kids[1]
            .child_elements()
            .next()
            .unwrap()
            .name
            .in_ns("urn:two"));
        assert!(kids[2].name.in_ns("urn:one"));
    }

    #[test]
    fn unbound_prefix_is_an_error() {
        let err = parse("<p:a/>").unwrap_err();
        assert!(matches!(err, XmlError::UnboundPrefix { .. }));
    }

    #[test]
    fn mismatched_tags_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::TagMismatch { .. }));
    }

    #[test]
    fn entities_and_char_refs_in_text_and_attrs() {
        let e = parse("<a k=\"x &amp; &#x79;\">&lt;tag&gt;</a>").unwrap();
        assert_eq!(e.attr_local("k"), Some("x & y"));
        assert_eq!(e.text(), "<tag>");
    }

    #[test]
    fn cdata_is_text() {
        let e = parse("<a><![CDATA[<not-xml> & friends]]></a>").unwrap();
        assert_eq!(e.text(), "<not-xml> & friends");
    }

    #[test]
    fn comments_inside_content() {
        let e = parse("<a>x<!-- note -->y</a>").unwrap();
        assert_eq!(e.text(), "xy");
        assert!(matches!(e.children[1], Node::Comment(_)));
    }

    #[test]
    fn doctype_rejected() {
        assert!(parse("<!DOCTYPE a []><a/>").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>text").is_err());
    }

    #[test]
    fn single_quoted_attributes() {
        let e = parse("<a k='v\"w'/>").unwrap();
        assert_eq!(e.attr_local("k"), Some("v\"w"));
    }

    #[test]
    fn deeply_nested_ok() {
        let mut src = String::new();
        for _ in 0..200 {
            src.push_str("<d>");
        }
        src.push('x');
        for _ in 0..200 {
            src.push_str("</d>");
        }
        let e = parse(&src).unwrap();
        assert_eq!(e.subtree_size(), 200);
    }

    /// Nesting is bounded at the reader: a million levels is a parse error,
    /// not a stack overflow once the tree is dropped, and a tree at the
    /// bound survives every recursive walk on a default-sized thread.
    #[test]
    fn nesting_is_bounded_at_the_reader() {
        let nest = |depth: usize| format!("{}x{}", "<d>".repeat(depth), "</d>".repeat(depth));
        std::thread::spawn(move || {
            let refused = parse(&nest(1_000_000));
            assert!(
                matches!(refused, Err(XmlError::Parse { offset, .. }) if offset == 3 * MAX_DEPTH),
                "{refused:?}"
            );
            assert!(parse(&nest(MAX_DEPTH + 1)).is_err());

            let deepest = parse(&nest(MAX_DEPTH)).unwrap();
            let copy = deepest.clone();
            assert_eq!(copy, deepest);
            assert_eq!(write_element(&deepest), nest(MAX_DEPTH));
            assert!(!crate::canonicalize(&deepest).is_empty());
            let all = crate::XPath::compile("//d").unwrap();
            let found = all.select(&deepest, &crate::XPathContext::new()).unwrap();
            assert_eq!(found.len(), MAX_DEPTH);
        })
        .join()
        .unwrap();
    }
}
