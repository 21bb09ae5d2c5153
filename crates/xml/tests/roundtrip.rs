//! Property tests: any tree we can build serialises to a document that
//! parses back to an infoset-equal tree, and canonicalisation is stable
//! under re-serialisation.

use ogsa_xml::{canonicalize, document_len, element_len, parse, Element, Node, Prefixes, QName};
use proptest::prelude::*;
use std::sync::Arc;

/// Text over printable ASCII, a couple of multibyte characters, and the
/// XML whitespace set (`\t`/`\n`/`\r`) — the whitespace characters are the
/// regression surface for attribute-value and end-of-line normalisation.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..100, 0..20).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                0 => '\t',
                1 => '\n',
                2 => '\r',
                3 => 'é',
                4 => '☃',
                n => char::from(b' ' + (n as u8 - 5)),
            })
            .collect()
    })
}

/// Any `char`, half the time one of the code points XML 1.0 forbids in a
/// document or a legal neighbour of one: every C0 control, U+FFFE, U+FFFF,
/// U+FFFD and U+FEFF (which share their first byte), `<` and `&`.
fn arb_any_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u32..76, any::<char>()), 0..40).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(pick, c)| match pick {
                0..=31 => char::from_u32(pick).unwrap(),
                32 => '\u{FFFE}',
                33 => '\u{FFFF}',
                34 => '\u{FFFD}',
                35 => '\u{FEFF}',
                36 => '<',
                37 => '&',
                38 => '-',
                39 => '>',
                _ => c,
            })
            .collect()
    })
}

/// `s` as the writers write it: U+FFFD for each code point outside XML 1.0
/// `Char`.
fn legal(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '\t' | '\n' | '\r' | ' '..='\u{D7FF}' | '\u{E000}'..='\u{FFFD}' | '\u{10000}'.. => c,
            _ => '\u{FFFD}',
        })
        .collect()
}

/// A comment as the writer spells it: no `--`, and no `-` at the end.
fn spaced(comment: &str) -> String {
    let chars: Vec<char> = comment.chars().collect();
    let mut out = String::new();
    for (i, &c) in chars.iter().enumerate() {
        out.push(c);
        if c == '-' && matches!(chars.get(i + 1), None | Some('-')) {
            out.push(' ');
        }
    }
    out
}

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9_.-]{0,8}").unwrap()
}

/// A name from [`arb_name`] with up to three code points XML 1.0 forbids
/// anywhere in a document spliced in: a C0 control other than TAB, LF and
/// CR, U+FFFE or U+FFFF. Nothing else about it breaks the `Name` production.
fn arb_name_with_non_chars() -> impl Strategy<Value = String> {
    let forbidden: Vec<char> = (0u32..32)
        .filter(|c| ![9, 10, 13].contains(c))
        .filter_map(char::from_u32)
        .chain(['\u{FFFE}', '\u{FFFF}'])
        .collect();
    let splices = proptest::collection::vec((0usize..10, 0usize..forbidden.len()), 0..4);
    (arb_name(), splices).prop_map(move |(name, splices)| {
        let mut chars: Vec<char> = name.chars().collect();
        for (at, pick) in splices {
            chars.insert(at.min(chars.len()), forbidden[pick]);
        }
        chars.into_iter().collect()
    })
}

fn arb_qname() -> impl Strategy<Value = QName> {
    (arb_name(), proptest::option::of(0usize..3)).prop_map(|(local, ns)| match ns {
        Some(i) => QName::new(["urn:a", "urn:b", "urn:c"][i], &local),
        None => QName::local(&local),
    })
}

fn arb_element() -> impl Strategy<Value = Element> {
    let leaf = (arb_qname(), arb_text()).prop_map(|(name, text)| {
        let mut e = Element::new(name);
        if !text.is_empty() {
            e.add_text(text);
        }
        e
    });
    leaf.prop_recursive(4, 32, 4, |inner| {
        (
            arb_qname(),
            proptest::collection::vec((arb_name(), arb_text()), 0..3),
            proptest::collection::vec(inner, 0..4),
            arb_text(),
        )
            .prop_map(|(name, attrs, children, text)| {
                let mut e = Element::new(name);
                for (k, v) in attrs {
                    // Duplicate attribute names collapse via set_attr, keeping
                    // the document well-formed.
                    e.set_attr(k.as_str(), v);
                }
                if !text.is_empty() {
                    e.add_text(text);
                }
                for c in children {
                    e.add_child(c);
                }
                e
            })
    })
}

/// Adjacent text nodes merge when reparsed; normalise before comparing.
fn normalise(e: &Element) -> Element {
    let mut out = Element::new(e.name.clone());
    out.attrs = e.attrs.clone();
    let mut pending = String::new();
    for n in &e.children {
        match n {
            Node::Text(t) => pending.push_str(t),
            Node::Element(c) => {
                if !pending.is_empty() {
                    out.add_text(std::mem::take(&mut pending));
                }
                out.children.push(Node::Element(normalise(c)));
            }
            Node::Shared(_) => unreachable!("the parser and `arb_element` own every node"),
            Node::Comment(c) => {
                if !pending.is_empty() {
                    out.add_text(std::mem::take(&mut pending));
                }
                out.children.push(Node::Comment(c.clone()));
            }
        }
    }
    if !pending.is_empty() {
        out.add_text(pending);
    }
    out
}

/// `e` with the child elements `picks` says swapped for `Node::Shared`, at
/// every depth (a shared subtree may hold shared subtrees). Returns the
/// twin and each `Arc` handed out.
fn share(e: &Element, picks: &mut u64, held: &mut Vec<Arc<Element>>) -> Element {
    let mut out = Element::new(e.name.clone());
    out.attrs = e.attrs.clone();
    for n in &e.children {
        out.children.push(match n {
            Node::Element(c) => {
                let c = share(c, picks, held);
                *picks = picks.rotate_right(1);
                if *picks & 1 == 1 {
                    held.push(Arc::new(c));
                    Node::Shared(held[held.len() - 1].clone())
                } else {
                    Node::Element(c)
                }
            }
            other => other.clone(),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The four rules of `Node::Shared`, on a random tree with random
    /// subtrees shared: it writes, prices, canonicalises, collects prefixes
    /// and answers reads as its all-owned twin and compares equal to it;
    /// and writing through it copies, leaving every other holder untouched.
    #[test]
    fn a_tree_with_shared_subtrees_is_its_owned_twin(e in arb_element(), picks in any::<u64>()) {
        let (mut picks, mut held) = (picks, Vec::new());
        let mut shared = share(&e, &mut picks, &mut held);
        prop_assert_eq!(&shared, &e);
        prop_assert_eq!(shared.into_document_string(), e.into_document_string());
        prop_assert_eq!(document_len(&shared), document_len(&e));
        prop_assert_eq!(element_len(&shared), e.to_xml_string().len());
        prop_assert_eq!(canonicalize(&shared), canonicalize(&e));
        let mut decls = (String::new(), String::new());
        Prefixes::for_tree(&shared).write_declarations(&mut decls.0);
        Prefixes::for_tree(&e).write_declarations(&mut decls.1);
        prop_assert_eq!(decls.0, decls.1);
        prop_assert_eq!(shared.subtree_size(), e.subtree_size());
        prop_assert_eq!(shared.child_elements().count(), e.child_elements().count());
        let everything = ogsa_xml::XPath::compile("//*").unwrap();
        let ctx = ogsa_xml::XPathContext::new();
        prop_assert_eq!(everything.select(&shared, &ctx).unwrap(), everything.select(&e, &ctx).unwrap());

        // Copy on write: mark every child through the mutable iterator.
        let before: Vec<Element> = held.iter().map(|a| (**a).clone()).collect();
        for c in shared.child_elements_mut() {
            c.set_attr("touched", "yes");
        }
        prop_assert!(shared.child_elements().all(|c| c.attr_local("touched") == Some("yes")));
        prop_assert_eq!(shared.child_elements().count(), e.child_elements().count());
        for (arc, was) in held.iter().zip(&before) {
            prop_assert_eq!(&**arc, was);
        }
        // And removal by name reaches shared children too.
        let first = e.child_elements().next().map(|c| c.name.clone());
        if let Some(name) = first {
            let mut pruned = share(&e, &mut picks, &mut Vec::new());
            let expected = e.children_named(&name).count();
            prop_assert_eq!(pruned.remove_children(&name), expected);
            prop_assert!(pruned.child(&name).is_none());
        }
    }

    #[test]
    fn serialise_parse_roundtrip(e in arb_element()) {
        let doc = e.into_document_string();
        let back = parse(&doc).expect("writer output must reparse");
        prop_assert_eq!(normalise(&e), normalise(&back));
    }

    #[test]
    fn canonical_form_is_reserialisation_stable(e in arb_element()) {
        let c1 = canonicalize(&e);
        let back = parse(&e.into_document_string()).unwrap();
        let c2 = canonicalize(&back);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn whitespace_attrs_and_text_roundtrip((attr, text) in (arb_text(), arb_text())) {
        // Dedicated regression property for the escape fix: newlines, tabs
        // and carriage returns in attribute values (serialised EPR reference
        // properties) and text must survive write → parse exactly.
        let mut e = Element::new("epr");
        e.set_attr("rp", attr.as_str());
        if !text.is_empty() {
            e.add_text(text.as_str());
        }
        let back = parse(&e.into_document_string()).expect("writer output must reparse");
        prop_assert_eq!(back.attr_local("rp"), Some(attr.as_str()));
        prop_assert_eq!(back.text(), text);
    }

    /// Whatever characters a tree's text, attribute values and comments
    /// hold, the writer writes a document the reader takes: they come back
    /// with each forbidden code point as U+FFFD, a comment's `-` followed
    /// by a space where a `-` or the comment's end came next, and the
    /// canonical form of the tree and of what was read back agree — a
    /// signature over one verifies over the other. Element and attribute
    /// names come back with each forbidden code point as U+FFFD too.
    #[test]
    fn every_written_string_reparses(
        (text, attr, comment) in (arb_any_text(), arb_any_text(), arb_any_text()),
        (name, key) in (arb_name_with_non_chars(), arb_name_with_non_chars()),
    ) {
        let mut e = Element::new(name.as_str());
        e.set_attr(key.as_str(), attr.as_str());
        e.children.push(Node::Comment(comment.clone()));
        if !text.is_empty() {
            e.add_text(text.as_str());
        }
        let doc = e.into_document_string();
        let back = parse(&doc).expect("writer output must reparse");
        prop_assert_eq!(&*back.name.local, legal(&name).as_str());
        prop_assert_eq!(back.attr_local(&legal(&key)), Some(legal(&attr).as_str()));
        prop_assert_eq!(back.text(), legal(&text));
        prop_assert_eq!(&back.children[0], &Node::Comment(spaced(&legal(&comment))));
        prop_assert_eq!(canonicalize(&back), canonicalize(&e));
        prop_assert_eq!(document_len(&e), doc.len());
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,200}") {
        let _ = parse(&s);
    }

    #[test]
    fn xpath_compile_never_panics(s in "[/a-z@\\[\\]='0-9 ]{0,40}") {
        let _ = ogsa_xml::XPath::compile(&s);
    }
}
