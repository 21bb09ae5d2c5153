//! Differential property tests: the fast-path parser must accept and
//! reject exactly the same inputs as the pre-optimisation reference parser
//! (`tests/reference/`, no part of the library), and produce identical trees on acceptance.
//!
//! Three input classes: well-formed documents generated as trees and
//! serialised, hand-picked corner cases (entities, character references,
//! EOL/whitespace normalisation), and raw near-XML soup that exercises the
//! error paths.

#[path = "reference/mod.rs"]
mod reference;

use ogsa_xml::{parse, Element, QName, XmlError, MAX_DEPTH, MAX_TAG_ATTRS};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9_.-]{0,10}").unwrap()
}

/// Text likely to trip escaping: printable ASCII plus the XML specials and
/// whitespace the normaliser cares about.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("([ -~]|[<>&\"'\t\r\n]){0,24}").unwrap()
}

fn arb_uri() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(proptest::string::string_regex("urn:[a-z]{1,8}(:[a-z]{1,8})?").unwrap())
}

fn arb_leaf() -> impl Strategy<Value = Element> {
    (
        arb_name(),
        arb_uri(),
        proptest::collection::vec((arb_name(), arb_text()), 0..3),
        arb_text(),
    )
        .prop_map(|(name, uri, attrs, text)| {
            let mut e = match uri {
                Some(u) => Element::new(QName::new(u.as_str(), name.as_str())),
                None => Element::new(name.as_str()),
            };
            let mut seen = std::collections::HashSet::new();
            for (k, v) in attrs {
                if seen.insert(k.clone()) {
                    e.set_attr(k.as_str(), v);
                }
            }
            if !text.is_empty() {
                e.add_text(text);
            }
            e
        })
}

fn arb_tree() -> impl Strategy<Value = Element> {
    arb_leaf().prop_recursive(3, 24, 4, |inner| {
        (arb_leaf(), proptest::collection::vec(inner, 0..4)).prop_map(|(mut e, kids)| {
            for kid in kids {
                e.add_child(kid);
            }
            e
        })
    })
}

/// Near-XML soup: heavy on markup characters so a useful fraction parses.
fn arb_soup() -> impl Strategy<Value = String> {
    proptest::string::string_regex(
        "(<[A-Za-z/]{0,4}|>|&[a-z#0-9]{0,5};?|[A-Za-z ]{0,6}|\"|=|\r\n?|\t|<!--|-->|xmlns){0,20}",
    )
    .unwrap()
}

/// Both parsers on one input: same accept/reject decision, same tree.
fn assert_equivalent(input: &str) {
    let fast = parse(input);
    let slow = reference::parse(input);
    match (fast, slow) {
        (Ok(f), Ok(s)) => assert_eq!(f, s, "trees differ for {input:?}"),
        (Err(_), Err(_)) => {}
        (f, s) => panic!(
            "accept/reject mismatch for {input:?}: fast={:?} reference={:?}",
            f.is_ok(),
            s.is_ok()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn serialised_trees_parse_identically(tree in arb_tree()) {
        let wire = ogsa_xml::write_document(&tree);
        let fast = parse(&wire).expect("fast parser rejects its own writer output");
        let slow = reference::parse(&wire).expect("reference parser rejects writer output");
        prop_assert_eq!(&fast, &slow);
    }

    #[test]
    fn soup_is_accepted_or_rejected_identically(input in arb_soup()) {
        assert_equivalent(&input);
    }

    #[test]
    fn text_decoding_matches_reference(text in arb_text()) {
        let mut escaped = String::new();
        ogsa_xml::escape_runs(&text, true, &mut escaped);
        let doc = format!("<a b=\"{escaped}\">{escaped}</a>");
        assert_equivalent(&doc);
    }
}

#[test]
fn corner_case_corpus_is_equivalent() {
    let cases = [
        // Entity and character references (decimal, hex, the normalised set).
        "<a>&lt;&gt;&amp;&quot;&apos;</a>",
        "<a>&#65;&#x41;&#13;&#10;&#9;</a>",
        "<a b=\"&#13;&#10;&#9;\"/>",
        "<a>&unknown;</a>",
        "<a>&#xZZ;</a>",
        "<a>&#;</a>",
        "<a>&</a>",
        "<a>trailing&",
        // Character references outside XML 1.0 `Char` are rejected…
        "<a>&#0;</a>",
        "<a>&#x1;</a>",
        "<a>&#xFFFE;</a>",
        "<a b=\"&#xFFFF;\"/>",
        // …its edges are not.
        "<a b=\"&#x20;&#xD7FF;\">&#xE000;&#xFFFD;&#x10000;&#x10FFFF;</a>",
        // The same code points written literally are rejected too, in text,
        // attribute values and comments…
        "<a>x\0y</a>",
        "<a>x\u{1}y</a>",
        "<a b='x\u{b}y'/>",
        "<a>x\u{FFFE}y</a>",
        "<a>x\u{FFFF}y</a>",
        "<a><!-- x\u{1f}y --></a>",
        "<!-- \u{0} --><a/>",
        "<a><![CDATA[x\u{8}y]]></a>",
        "<a>x&amp;\u{c}y</a>",
        "<a b='x&amp;\u{FFFF}y'/>",
        // …and the legal neighbours of each are not.
        "<a b='x\u{7f}y\u{FFFD}'>x\u{FEFF}y\u{EFFF}z\u{F000}\u{1FFFE}</a>",
        // EOL normalisation in text, whitespace normalisation in attributes.
        "<a>line1\r\nline2\rline3\nline4</a>",
        "<a b=\"v1\r\nv2\rv3\nv4\tv5\"/>",
        "<a b='single\rquoted'/>",
        // Namespaces: default, prefixed, rebinding, unbound prefix.
        "<a xmlns=\"urn:d\"><b/></a>",
        "<p:a xmlns:p=\"urn:p\"><p:b xmlns:p=\"urn:q\"/></p:a>",
        "<p:a/>",
        "<a xmlns:x=\"urn:x\" x:attr=\"v\"/>",
        // Comments, declarations, structure errors.
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><a/>",
        "<a><!-- comment --><b/></a>",
        "<a><!-- unterminated <b/></a>",
        "<a><b></a></b>",
        "<a>",
        "</a>",
        "",
        "   ",
        "<a/><b/>",
        // A second attribute with the same expanded name, however spelt.
        "<a b=\"1\" b=\"2\"/>",
        "<a x='1' x='2'/>",
        "<a xmlns:p='urn:x' xmlns:q='urn:x' p:k='1' q:k='2'/>",
        "<a xmlns:p='urn:x' xmlns:q='urn:y' p:k='1' q:k='2' k='3'/>",
        "<a b=1/>",
        "<a b/>",
        "< a/>",
        "<a ><b ></b ></a >",
        "<a\t\n b=\"v\"/>",
    ];
    for case in cases {
        assert_equivalent(case);
    }
}

/// Both parsers stop counting at the same attribute: a start tag carries at
/// most `MAX_TAG_ATTRS` attributes and namespace declarations together.
#[test]
fn the_attribute_cap_is_the_same_in_both_parsers() {
    let tag = |attrs: usize, declarations: usize| {
        let attrs: String = (0..attrs).map(|i| format!(" a{i}=\"v\"")).collect();
        let declarations: String = (0..declarations)
            .map(|i| format!(" xmlns:p{i}=\"urn:{i}\""))
            .collect();
        format!("<r{attrs}{declarations}><kept/></r>")
    };
    for (attrs, declarations) in [(MAX_TAG_ATTRS, 0), (0, MAX_TAG_ATTRS), (255, 1)] {
        let doc = tag(attrs, declarations);
        assert_equivalent(&doc);
        assert_eq!(parse(&doc).unwrap().attrs.len(), attrs);
    }
    for (attrs, declarations) in [(MAX_TAG_ATTRS + 1, 0), (0, MAX_TAG_ATTRS + 1), (255, 2)] {
        let doc = tag(attrs, declarations);
        assert_equivalent(&doc);
        for refused in [parse(&doc), reference::parse(&doc)] {
            assert!(matches!(refused, Err(XmlError::Parse { offset: 0, .. })));
        }
    }
}

/// Both parsers refuse the same nesting: `MAX_DEPTH` levels parse, one more
/// is an error at the start tag that crossed the bound, an empty one too.
/// The reference recurses once per level with a debug build's frames, so it
/// runs on a thread with room for them.
#[test]
fn the_depth_cap_is_the_same_in_both_parsers() {
    let nest =
        |depth: usize, leaf: &str| format!("{}{leaf}{}", "<d>".repeat(depth), "</d>".repeat(depth));
    let check = move || {
        for doc in [nest(MAX_DEPTH, "x"), nest(MAX_DEPTH - 1, "<e/>")] {
            assert_equivalent(&doc);
            assert!(parse(&doc).is_ok());
        }
        for doc in [nest(MAX_DEPTH + 1, "x"), nest(MAX_DEPTH, "<e/>")] {
            assert_equivalent(&doc);
            for refused in [parse(&doc), reference::parse(&doc)] {
                assert!(
                    matches!(refused, Err(XmlError::Parse { offset, .. }) if offset == 3 * MAX_DEPTH),
                    "{refused:?}"
                );
            }
        }
    };
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(check)
        .unwrap()
        .join()
        .unwrap();
}
