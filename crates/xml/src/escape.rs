//! Text and attribute escaping/unescaping.
//!
//! Escaping is on the hot path of every message serialisation. There is one
//! escaper, [`escape_runs`], and every pass — writing, counting,
//! canonicalising — is that escaper over a different [`Sink`]: it finds the
//! next special byte with the block search in [`crate::scan`] and hands the
//! clean run before it over as one slice, so a clean 24 KB text node is one
//! vectorised scan and one `memcpy`, not 24 000 trips round a `match`, and
//! costs no intermediate `String` however dirty it is. Unescaping borrows
//! when the input needs no work (`Cow`).

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::pool::collect_pooled;
use crate::scan::find_any_or_non_char;
use crate::writer::Sink;

/// The bytes escaped in character data, and in attribute values: exactly
/// those [`entity_for`] has a replacement for.
const TEXT_SPECIALS: &[u8; 4] = b"<>&\r";
const ATTR_SPECIALS: &[u8; 8] = b"<>&\r\"'\t\n";

/// The replacement for one special byte.
fn entity_for(b: u8) -> &'static str {
    match b {
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'&' => "&amp;",
        b'\r' => "&#13;",
        b'"' => "&quot;",
        b'\'' => "&apos;",
        b'\t' => "&#9;",
        b'\n' => "&#10;",
        _ => unreachable!("{b:#x} is in neither set of specials"),
    }
}

/// What every writer emits for a code point XML 1.0 does not allow in a
/// document (a C0 control other than TAB, LF and CR, U+FFFE, U+FFFF): no
/// reference can carry one, and the reader refuses it literally.
const REPLACEMENT: &str = "\u{FFFD}";

/// Push the escaped form of `s` into `out` as a sequence of slices — clean
/// run, entity, clean run, … Character data (`attr` false) escapes `<`,
/// `&`, `>` for robustness, and `\r` as a character reference so it
/// survives the parser's end-of-line normalisation. An attribute value
/// additionally escapes `"`/`'`, and `\t`/`\n` as character references — a
/// conformant parser normalises literal whitespace in attribute values to
/// spaces, so EPR reference properties containing newlines would otherwise
/// fail to round-trip. A code point outside XML 1.0 `Char` becomes
/// U+FFFD, so every sink — wire, counter, canonical digest — writes a
/// document that parses, and all of them write the same one.
pub fn escape_runs<S: Sink>(s: &str, attr: bool, out: &mut S) {
    if attr {
        write_runs(s, ATTR_SPECIALS, out);
    } else {
        write_runs(s, TEXT_SPECIALS, out);
    }
}

/// `s` into `out` with each member of `specials` replaced by its entity and
/// each code point outside XML 1.0 `Char` by U+FFFD, clean runs passed on
/// whole. Comment text is written with no specials. Both kinds of byte
/// found begin a `char`, and the length skipped is that `char`'s, so every
/// slice lands on a char boundary.
pub(crate) fn write_runs<const N: usize, S: Sink>(s: &str, specials: &[u8; N], out: &mut S) {
    let mut rest = s;
    while let Some(i) = find_any_or_non_char(rest.as_bytes(), specials) {
        out.push_str(&rest[..i]);
        let b = rest.as_bytes()[i];
        let len = if specials.contains(&b) {
            out.push_str(entity_for(b));
            1
        } else {
            out.push_str(REPLACEMENT);
            // A C0 control is one byte; U+FFFE and U+FFFF are three.
            if b == 0xEF {
                3
            } else {
                1
            }
        };
        rest = &rest[i + len..];
    }
    out.push_str(rest);
}

/// `name` as every writer writes it: each code point outside XML 1.0
/// `Char` as U+FFFD, as in character data. Borrowed unless it holds one,
/// which a name almost never does.
#[inline]
pub(crate) fn legal_name(name: &str) -> Cow<'_, str> {
    if may_hold_non_char(name.as_bytes()) {
        Cow::Owned(replaced(name))
    } else {
        Cow::Borrowed(name)
    }
}

#[cold]
fn replaced(name: &str) -> String {
    collect_pooled(|legal| write_runs(name, &[], legal))
}

/// Whether `s` holds a byte below 0x20 or an 0xEF (the lead byte of U+FFFE
/// and U+FFFF), a word at a time from eight bytes on: a word holds a byte
/// below `n` iff `(w - n·ONES) & !w & HIGHS` is non-zero, and an 0xEF is a
/// zero byte of `w ^ 0xEF·ONES`. The last word overlaps the one before it.
#[inline]
fn may_hold_non_char(s: &[u8]) -> bool {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let below = |w: u64, n: u64| w.wrapping_sub(n * ONES) & !w & HIGHS != 0;
    let suspect = |w: &[u8; 8]| {
        let w = u64::from_ne_bytes(*w);
        below(w, 0x20) || below(w ^ (0xEF * ONES), 1)
    };
    match s.last_chunk::<8>() {
        Some(last) => s.as_chunks::<8>().0.iter().chain([last]).any(suspect),
        None => s.iter().any(|&b| b < 0x20 || b == 0xEF),
    }
}

/// Resolve the five predefined entities plus decimal/hex character
/// references. `offset` is used only for error reporting.
pub fn unescape(s: &str, offset: usize) -> XmlResult<Cow<'_, str>> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        let (c, after) = resolve_entity(&rest[pos..], offset)?;
        out.push(c);
        rest = &rest[pos + after..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Resolve one entity/character reference at the start of `s` (which begins
/// with `&`). Returns the decoded character and the byte length of the
/// reference including both delimiters. A character reference must name an
/// XML 1.0 `Char`: `&#0;` or `&#xFFFE;` would come back as text the writer
/// then emits raw. Shared by [`unescape`] and the reader's single-pass
/// decoder.
pub(crate) fn resolve_entity(s: &str, offset: usize) -> XmlResult<(char, usize)> {
    debug_assert!(s.starts_with('&'));
    let semi = s
        .find(';')
        .ok_or_else(|| XmlError::parse(offset, "entity reference missing terminating `;`"))?;
    let entity = &s[1..semi];
    let c = match entity {
        "lt" => '<',
        "gt" => '>',
        "amp" => '&',
        "quot" => '"',
        "apos" => '\'',
        _ => {
            let digits = entity
                .strip_prefix('#')
                .ok_or_else(|| XmlError::parse(offset, format!("unknown entity &{entity};")))?;
            let code = match digits.strip_prefix(['x', 'X']) {
                Some(hex) => u32::from_str_radix(hex, 16),
                None => digits.parse(),
            }
            .map_err(|_| XmlError::parse(offset, format!("bad character reference &{entity};")))?;
            char::from_u32(code)
                .filter(|c| {
                    matches!(c, '\t' | '\n' | '\r' | ' '..='\u{D7FF}' | '\u{E000}'..='\u{FFFD}' | '\u{10000}'..)
                })
                .ok_or_else(|| XmlError::parse(offset, format!("invalid codepoint &{entity};")))?
        }
    };
    Ok((c, semi + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ByteCount;

    fn escape_text(s: &str) -> String {
        let mut out = String::new();
        escape_runs(s, false, &mut out);
        out
    }

    fn escape_attr(s: &str) -> String {
        let mut out = String::new();
        escape_runs(s, true, &mut out);
        out
    }

    #[test]
    fn no_alloc_when_clean() {
        assert!(matches!(unescape("hello", 0).unwrap(), Cow::Borrowed(_)));
    }

    /// Clean input is handed on as it stands — one fragment, the input's
    /// own bytes — and tabs and newlines are clean in text, not in
    /// attribute values.
    #[test]
    fn clean_input_reaches_the_sink_as_one_borrowed_run() {
        struct Runs(Vec<(*const u8, usize)>);
        impl Sink for Runs {
            fn push_str(&mut self, s: &str) {
                self.0.push((s.as_ptr(), s.len()));
            }
        }
        let runs = |s: &str, attr| {
            let mut out = Runs(Vec::new());
            escape_runs(s, attr, &mut out);
            out.0
        };
        for (s, attr) in [
            ("hello world", false),
            ("plain value 123", true),
            ("a\tb\nc", false),
        ] {
            assert_eq!(runs(s, attr), [(s.as_ptr(), s.len())], "{s:?}");
        }
        assert_eq!(runs("a\tb\nc", true).len(), 5);
    }

    #[test]
    fn escapes_text_and_attrs() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(
            escape_attr(r#"say "hi" & 'bye'"#),
            "say &quot;hi&quot; &amp; &apos;bye&apos;"
        );
        // Quotes pass through unescaped in text content.
        assert_eq!(escape_text(r#"a"b"#), r#"a"b"#);
    }

    #[test]
    fn every_sink_sees_the_same_escaped_bytes() {
        for s in ["", "clean", "a<b&c>d", "x\r\ny", "q\"u'o\tt\ne", "☃<snow>"] {
            for attr in [false, true] {
                let mut text = String::from("pre|");
                escape_runs(s, attr, &mut text);
                let mut bytes = b"pre|".to_vec();
                escape_runs(s, attr, &mut bytes);
                assert_eq!(text.as_bytes(), bytes, "attr={attr} {s:?}");
                assert_eq!(
                    ByteCount::of(|n| escape_runs(s, attr, n)),
                    text.len() - 4,
                    "attr={attr} {s:?}"
                );
            }
        }
    }

    #[test]
    fn unescape_roundtrip() {
        let original = r#"<tag attr="v">&'x"#;
        let escaped = escape_attr(original);
        assert_eq!(unescape(&escaped, 0).unwrap(), original);
    }

    #[test]
    fn character_references() {
        assert_eq!(unescape("&#65;&#x42;&#x63;", 0).unwrap(), "ABc");
        assert_eq!(unescape("snowman &#x2603;", 0).unwrap(), "snowman ☃");
    }

    #[test]
    fn attr_whitespace_becomes_character_references() {
        assert_eq!(escape_attr("a\tb\nc\rd"), "a&#9;b&#10;c&#13;d");
        // Round-trips through unescape losslessly.
        assert_eq!(
            unescape(&escape_attr("a\tb\nc\rd"), 0).unwrap(),
            "a\tb\nc\rd"
        );
        // Text keeps tabs/newlines literal but protects carriage returns
        // from end-of-line normalisation.
        assert_eq!(escape_text("a\tb\nc"), "a\tb\nc");
        assert_eq!(escape_text("a\rb"), "a&#13;b");
    }

    /// The word test sees a C0 control, U+FFFE and U+FFFF at every place
    /// in names of every length it splits differently, and passes clean
    /// ones; `legal_name` borrows those and replaces the others.
    #[test]
    fn the_word_test_finds_a_non_char_at_every_place() {
        for len in 0..20 {
            let clean = "n".repeat(len);
            assert!(!may_hold_non_char(clean.as_bytes()));
            assert!(matches!(legal_name(&clean), Cow::Borrowed(_)));
            for at in 0..len {
                for c in ['\0', '\u{1F}', '\u{FFFE}', '\u{FFFF}'] {
                    let mut name = clean.clone();
                    name.replace_range(at..at + 1, c.encode_utf8(&mut [0; 4]));
                    assert!(may_hold_non_char(name.as_bytes()), "{name:?}");
                    assert_eq!(legal_name(&name), name.replace(c, "\u{FFFD}"));
                }
            }
        }
    }

    #[test]
    fn bad_entities_error() {
        assert!(unescape("&unknown;", 0).is_err());
        assert!(unescape("&#xZZ;", 0).is_err());
        assert!(unescape("&#1114112;", 0).is_err()); // beyond char::MAX
        assert!(unescape("&amp", 0).is_err()); // missing semicolon
    }

    #[test]
    fn references_to_non_characters_are_rejected() {
        for bad in [
            "&#0;", "&#x1;", "&#8;", "&#x1F;", "&#xD800;", "&#xFFFE;", "&#xFFFF;",
        ] {
            assert!(unescape(bad, 0).is_err(), "{bad}");
        }
        // The edges of XML 1.0 `Char` itself.
        assert_eq!(
            unescape(
                "&#9;&#10;&#13;&#32;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;",
                0
            )
            .unwrap(),
            "\t\n\r \u{D7FF}\u{E000}\u{FFFD}\u{10000}\u{10FFFF}"
        );
    }
}
