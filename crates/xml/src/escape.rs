//! Text and attribute escaping/unescaping.
//!
//! Escaping is on the hot path of every message serialisation, so both
//! directions avoid allocating when the input needs no work (`Cow`), and
//! every pass — writing, counting, canonicalising — finds the next special
//! byte with the block search in [`crate::scan`] and takes the clean run
//! before it as one slice: a clean 24 KB text node is one vectorised scan
//! and one `memcpy`, not 24 000 trips round a `match`.

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::scan::find_any;

/// Escape character data (`<`, `&`, and `>` for robustness; `\r` as a
/// character reference so it survives the parser's end-of-line
/// normalisation).
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape(s, false)
}

/// Escape an attribute value (additionally `"`/`'`, and `\t`/`\n`/`\r` as
/// character references — a conformant parser normalises literal whitespace
/// in attribute values to spaces, so EPR reference properties containing
/// newlines would otherwise fail to round-trip).
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape(s, true)
}

/// Append escaped character data to `out` without building an intermediate
/// `Cow` (serialisers already own a target buffer).
pub fn escape_text_into(s: &str, out: &mut String) {
    escape_runs(s, false, |run| out.push_str(run));
}

/// Append an escaped attribute value to `out`.
pub fn escape_attr_into(s: &str, out: &mut String) {
    escape_runs(s, true, |run| out.push_str(run));
}

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

/// Index of the first byte that needs escaping, if any.
fn first_special(s: &str, attr: bool) -> Option<usize> {
    if attr {
        find_any(s.as_bytes(), ATTR_SPECIALS)
    } else {
        find_any(s.as_bytes(), TEXT_SPECIALS)
    }
}

fn escape(s: &str, attr: bool) -> Cow<'_, str> {
    match first_special(s, attr) {
        None => Cow::Borrowed(s),
        Some(first) => {
            let mut out = String::with_capacity(s.len() + 8);
            out.push_str(&s[..first]);
            escape_runs(&s[first..], attr, |run| out.push_str(run));
            Cow::Owned(out)
        }
    }
}

/// The escaped form of `s` as a sequence of slices — clean run, entity,
/// clean run, … — handed to `push` in order. Every special byte is ASCII,
/// so slicing at those positions always lands on a char boundary.
pub(crate) fn escape_runs<'s>(s: &'s str, attr: bool, mut push: impl FnMut(&'s str)) {
    let mut rest = s;
    while let Some(i) = first_special(rest, attr) {
        push(&rest[..i]);
        push(entity_for(rest.as_bytes()[i]));
        rest = &rest[i + 1..];
    }
    push(rest);
}

/// Length of [`escape_text`]'s output, without producing it — used by the
/// counting serialiser that prices envelopes for the cost model.
pub fn escaped_text_len(s: &str) -> usize {
    escaped_len(s, false)
}

/// Length of [`escape_attr`]'s output, without producing it.
pub fn escaped_attr_len(s: &str) -> usize {
    escaped_len(s, true)
}

fn escaped_len(s: &str, attr: bool) -> usize {
    let mut len = 0;
    escape_runs(s, attr, |run| len += run.len());
    len
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

    #[test]
    fn no_alloc_when_clean() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
        assert!(matches!(unescape("hello", 0).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn clean_attr_input_borrows() {
        // Attribute escaping has more special characters, but clean input
        // must still avoid the allocation entirely.
        assert!(matches!(escape_attr("plain value 123"), Cow::Borrowed(_)));
        // Text-clean but attr-dirty input allocates only for attrs.
        assert!(matches!(escape_text("a\tb\nc"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr("a\tb\nc"), Cow::Owned(_)));
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
    fn into_variants_match_cow_variants() {
        for s in ["", "clean", "a<b&c>d", "x\r\ny", "q\"u'o\tt\ne", "☃<snow>"] {
            let mut t = String::from("pre|");
            escape_text_into(s, &mut t);
            assert_eq!(t, format!("pre|{}", escape_text(s)));
            let mut a = String::from("pre|");
            escape_attr_into(s, &mut a);
            assert_eq!(a, format!("pre|{}", escape_attr(s)));
        }
    }

    #[test]
    fn escaped_len_matches_output_len() {
        for s in ["", "clean", "a<b&c>d", "x\r\ny", "q\"u'o\tt\ne", "☃<snow>"] {
            assert_eq!(escaped_text_len(s), escape_text(s).len(), "text {s:?}");
            assert_eq!(escaped_attr_len(s), escape_attr(s).len(), "attr {s:?}");
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
