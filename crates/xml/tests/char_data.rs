//! Differential tests for every pass over character data that rides on the
//! block search (`src/scan.rs`): the one escaper through each kind of sink
//! (buffering, byte, counting, fragment-recording), and the reader's text
//! and attribute-value decoding. The oracles scan a
//! byte (or a `char`) at a time — the loops the search replaced live on
//! here, and the reference parser (`tests/reference/`) keeps its own —
//! because an oracle that shared the kernel would prove nothing.
//!
//! The existing suites draw text of at most 24 ASCII characters, which never
//! leaves the kernel's bytewise tail; these inputs are long enough to cross
//! several 32-byte blocks, put specials at offsets 31/32/33, and put
//! multi-byte UTF-8 right beside them (a slice taken off a `char` boundary
//! panics, so every comparison below is also a boundary check).

#[path = "reference/mod.rs"]
mod reference;

use ogsa_xml::{escape_runs, parse, ByteCount, Event, Reader, Sink};
use proptest::prelude::*;

/// Escaping as it was written before the block search: one `match` per
/// character, and U+FFFD for a character outside XML 1.0 `Char`.
fn oracle_escape(s: &str, attr: bool) -> String {
    let mut out = String::new();
    for c in s.chars() {
        out.push_str(match c {
            '\0'..='\u{8}' | '\u{b}' | '\u{c}' | '\u{e}'..='\u{1f}' | '\u{FFFE}' | '\u{FFFF}' => {
                "\u{FFFD}"
            }
            '<' => "&lt;",
            '>' => "&gt;",
            '&' => "&amp;",
            '\r' => "&#13;",
            '"' if attr => "&quot;",
            '\'' if attr => "&apos;",
            '\t' if attr => "&#9;",
            '\n' if attr => "&#10;",
            c => {
                out.push(c);
                continue;
            }
        });
    }
    out
}

/// Keeps every fragment as it arrived.
struct Fragments(Vec<String>);

impl Sink for Fragments {
    fn push_str(&mut self, s: &str) {
        self.0.push(s.to_owned());
    }
}

fn assert_escapes_like_the_oracle(s: &str) {
    for attr in [false, true] {
        let expected = oracle_escape(s, attr);
        let mut text = String::from("pre|");
        escape_runs(s, attr, &mut text);
        assert_eq!(text, format!("pre|{expected}"), "attr={attr} {s:?}");
        let mut bytes = Vec::new();
        escape_runs(s, attr, &mut bytes);
        assert_eq!(bytes, expected.as_bytes());
        assert_eq!(ByteCount::of(|n| escape_runs(s, attr, n)), expected.len());
        let mut fragments = Fragments(Vec::new());
        escape_runs(s, attr, &mut fragments);
        assert_eq!(fragments.0.concat(), expected);
        // Clean input is handed on whole, not cut up or copied.
        assert_eq!(fragments.0.len() == 1, expected == s);
    }
}

/// Runs of clean ASCII (long enough to fill blocks) between single pieces
/// drawn from `pieces`, after a lead-in that lands the first piece around
/// the first block boundary.
fn arb_runs(pieces: &'static [&'static str]) -> impl Strategy<Value = String> {
    (
        28usize..37,
        proptest::collection::vec((0usize..pieces.len(), 0usize..70), 0..10),
    )
        .prop_map(move |(lead, parts)| {
            let mut s = "x".repeat(lead);
            for (piece, run) in parts {
                s.push_str(pieces[piece]);
                s.push_str(&"y".repeat(run));
            }
            s
        })
}

/// What the escapers meet: every special, multi-byte characters of two,
/// three and four bytes, and the two glued together; code points outside
/// XML 1.0 `Char`, and legal ones that share their first byte.
#[rustfmt::skip]
const DATA_PIECES: &[&str] = &[
    "<", ">", "&", "\r", "\"", "'", "\t", "\n", "é", "☃", "𝄞",
    "é<", "<é", "☃&☃", "\r\n", "𝄞\"𝄞", "<>&", "",
    "\0", "\u{1}", "\u{b}", "\u{1f}", "\u{FFFE}", "\u{FFFF}", "\u{FFFD}", "\u{FEFF}", "\u{7f}",
];

/// What the reader meets on the wire, minus `<` and the double quote (the
/// test wraps these in `<a k="…">…</a>`): references good and bad, literal
/// whitespace in every combination, multi-byte characters beside them.
#[rustfmt::skip]
const WIRE_PIECES: &[&str] = &[
    "&amp;", "&lt;", "&#13;", "&#10;", "&#x2603;", "&#0;", "&bogus;", "&",
    "\r", "\r\n", "\n", "\t", "\r\r\n", ">", "'",
    "é", "☃", "𝄞", "é&amp;é", "☃\r☃", "𝄞\t𝄞", "",
    "\0", "\u{b}", "\u{1f}", "\u{FFFE}", "\u{FFFF}", "\u{FFFD}", "\u{FEFF}", "\u{7f}",
];

/// The reader's own view of `<a k="attr">text</a>`: the attribute value and
/// the concatenated text events.
fn read(doc: &str) -> ogsa_xml::XmlResult<(String, String)> {
    let mut reader = Reader::new(doc);
    let (mut attr, mut text) = (String::new(), String::new());
    loop {
        match reader.next()? {
            Event::Start => attr.push_str(&reader.attrs()[0].value),
            Event::Text(t) => text.push_str(&t),
            Event::Eof => return Ok((attr, text)),
            Event::End | Event::Comment(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escaping_equals_the_per_character_oracle(s in arb_runs(DATA_PIECES)) {
        assert_escapes_like_the_oracle(&s);
    }

    #[test]
    fn reader_text_and_attribute_events_equal_the_reference_parser(
        attr in arb_runs(WIRE_PIECES),
        text in arb_runs(WIRE_PIECES),
    ) {
        let doc = format!("<a k=\"{attr}\">{text}</a>");
        match (read(&doc), reference::parse(&doc)) {
            (Ok((attr, text)), Ok(tree)) => {
                prop_assert_eq!(Some(attr.as_str()), tree.attr_local("k"));
                prop_assert_eq!(text, tree.text());
                prop_assert_eq!(parse(&doc).unwrap(), tree);
            }
            (Err(_), Err(_)) => {}
            (fast, slow) => panic!(
                "accept/reject mismatch for {doc:?}: reader={:?} reference={:?}",
                fast.is_ok(),
                slow.is_ok()
            ),
        }
    }
}

/// Every special at every offset across the first two block boundaries,
/// alone and hard against a multi-byte neighbour on either side.
#[test]
fn specials_at_block_boundaries_beside_multibyte_characters() {
    for offset in 0..70 {
        for special in ["<", ">", "&", "\r", "\"", "'", "\t", "\n"] {
            for neighbour in ["", "é", "☃", "𝄞"] {
                let lead = "x".repeat(offset);
                assert_escapes_like_the_oracle(&format!(
                    "{lead}{neighbour}{special}{neighbour}tail"
                ));
                assert_escapes_like_the_oracle(&format!("{lead}{special}"));
            }
        }
    }
}

/// The worst case for a block search: every other byte special, so each
/// search ends in its first block and the blocks buy nothing. Measured once
/// against the per-byte loops this replaced, on this very string (64 KB,
/// release build, medians of three on the 2-vCPU box the change was written
/// on; new ÷ old): counting pays most — text 70 → 146 µs (2.1×),
/// attribute values 65 → 276 µs (4.2×) — writing little — text 223 →
/// 223 µs (1.0×), attribute values 387 → 472 µs (1.2×) — and canonicalising and parsing nothing (239 → 197 µs, 460 →
/// 390 µs for the escaped form: 0.8×). For scale, one special per hundred
/// bytes is already 2–6× *faster* than the old loops, and clean text 4–18×.
#[test]
fn dense_specials_complete_and_equal_the_oracle() {
    let dense: String = "<a&b>c\rd\"e'f\tg\nh"
        .chars()
        .cycle()
        .take(64 * 1024)
        .collect();
    assert_escapes_like_the_oracle(&dense);
    let doc = format!("<a k=\"{0}\">{0}</a>", oracle_escape(&dense, true));
    let tree = parse(&doc).unwrap();
    assert_eq!(tree, reference::parse(&doc).unwrap());
    assert_eq!(tree.text(), dense);
    assert_eq!(tree.attr_local("k"), Some(dense.as_str()));
}

/// Inputs whose verdict changed (duplicate attributes, non-characters in
/// character data, then in names and processing instructions), stated as
/// rejections: equivalence alone would also hold if both parsers still
/// accepted them.
#[test]
fn duplicate_attributes_and_non_character_references_are_rejected_by_both_parsers() {
    for case in [
        "<a x='1' x='2'/>",
        "<a xmlns:p='urn:x' xmlns:q='urn:x' p:k='1' q:k='2'/>",
        "<a>&#0;</a>",
        "<a>&#x1;</a>",
        "<a>&#xFFFE;</a>",
        "<a b=\"&#xFFFF;\"/>",
        "<a>x\0y</a>",
        "<a>x\u{1}y</a>",
        "<a b='x\u{b}y'/>",
        "<a>x\u{FFFE}y</a>",
        "<a\u{FFFE}/>",
        "<a b\u{FFFF}='1'/>",
        "<p:a\u{FFFF} xmlns:p='urn:x'/>",
        "<a><?pi \0?></a>",
        "<?pi \u{FFFE}?><a/>",
    ] {
        assert!(parse(case).is_err(), "{case:?}");
        assert!(reference::parse(case).is_err(), "{case:?}");
    }
    // The same local part under different namespaces, and the whitespace
    // references the round-trip tests rest on, still parse.
    for case in [
        "<a xmlns:p='urn:x' xmlns:q='urn:y' p:k='1' q:k='2' k='3'/>",
        "<a b=\"&#13;&#10;&#9;\">&#13;&#10;&#9;</a>",
        "<a\u{F900}\u{FFFD} b\u{EFFF}='1'/>",
    ] {
        assert_eq!(parse(case).unwrap(), reference::parse(case).unwrap());
    }
}
