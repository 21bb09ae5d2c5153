//! The one byte-class search under every pass over character data:
//! escaping, length counting, canonicalisation and the reader's text and
//! attribute-value scans all ask "where is the first byte of this small
//! fixed set?" and copy or borrow the clean run before it whole.
//!
//! Plain Rust on purpose — one path on every target, nothing to detect at
//! run time, nothing `unsafe`. A whole block is tested with a branch-free
//! OR of `==` compares, which LLVM turns into vector compares on baseline
//! x86-64 and aarch64 alike (a `fold` over `bool`, or `position` over a
//! `matches!`, stays scalar at a tenth of the speed). Only a block that
//! holds a stop, and the tail too short for a whole block and the two
//! bytes after it, are walked bytewise.

const BLOCK: usize = 32;

/// Index of the first byte of `hay` that is a member of `set`, if any.
/// Inlined at every call so that `set` is a compile-time constant in the
/// bytewise tail too: most strings are shorter than a block.
#[inline(always)]
pub(crate) fn find_any<const N: usize>(hay: &[u8], set: &[u8; N]) -> Option<usize> {
    find::<N, false>(hay, set)
}

/// Index of the first byte of `hay` that is a member of `set` or begins a
/// code point XML 1.0 does not allow as a literal `Char`: a C0 control other
/// than TAB, LF and CR, or U+FFFE / U+FFFF. Which of the two it is, the
/// caller tells by `set.contains`: members are ASCII, never such a byte.
#[inline(always)]
pub(crate) fn find_any_or_non_char<const N: usize>(hay: &[u8], set: &[u8; N]) -> Option<usize> {
    find::<N, true>(hay, set)
}

/// The block search: the first member of `set`, or with `CHARS` also the
/// first byte that begins a code point outside `Char`. Only a block that
/// holds a stop is walked bytewise. With `CHARS`, a block that holds a byte
/// below `0x20` or a `0xEF` (the lead byte of U+FFFE and U+FFFF) is tested
/// exactly first, so TAB, LF, CR and the other code points led by `0xEF`
/// cost one more vector test, not a walk. Each block's window reaches two
/// bytes past it, far enough to see a U+FFFE or U+FFFF (`EF BF BE`,
/// `EF BF BF`) that begins in it whole.
#[inline(always)]
fn find<const N: usize, const CHARS: bool>(hay: &[u8], set: &[u8; N]) -> Option<usize> {
    let stops = |at: usize| set.contains(&hay[at]) || (CHARS && non_char_at(hay, at));
    let mut clean = 0;
    while let Some(w) = hay[clean..].first_chunk::<{ BLOCK + 2 }>() {
        let (mut member, mut suspect) = (0u8, 0u8);
        for &b in &w[..BLOCK] {
            for &m in set {
                member |= u8::from(b == m);
            }
            if CHARS {
                suspect |= u8::from(b < 0x20) | u8::from(b == 0xEF);
            }
        }
        if member != 0 || suspect != 0 && holds_non_char(w) {
            return (clean..clean + BLOCK).find(|&at| stops(at));
        }
        clean += BLOCK;
    }
    (clean..hay.len()).find(|&at| stops(at))
}

/// Whether a window's block (its first `BLOCK` bytes) holds the first byte
/// of a code point outside `Char`.
#[inline(always)]
fn holds_non_char(w: &[u8; BLOCK + 2]) -> bool {
    let mut hit = 0u8;
    for i in 0..BLOCK {
        let b = w[i];
        hit |=
            u8::from(b < 0x20) & u8::from(b != b'\t') & u8::from(b != b'\n') & u8::from(b != b'\r');
        hit |= u8::from(b == 0xEF) & u8::from(w[i + 1] == 0xBF) & u8::from(w[i + 2] | 1 == 0xBF);
    }
    hit != 0
}

fn non_char_at(hay: &[u8], at: usize) -> bool {
    match hay[at] {
        0xEF => matches!(hay.get(at + 1..at + 3), Some([0xBF, 0xBE | 0xBF])),
        b => b < 0x20 && !matches!(b, b'\t' | b'\n' | b'\r'),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-byte loop the kernel replaced, kept as the oracle.
    fn oracle(hay: &[u8], set: &[u8]) -> Option<usize> {
        hay.iter().position(|b| set.contains(b))
    }

    /// Every slice length 0..=96 (three blocks), one member of the set at
    /// every position or none at all, for each set a caller uses.
    #[test]
    fn exhaustive_sweep_agrees_with_the_per_byte_predicate() {
        fn sweep<const N: usize>(set: &[u8; N]) {
            for len in 0..=96 {
                let mut hay = vec![b'x'; len];
                assert_eq!(find_any(&hay, set), None, "len {len}");
                for at in 0..len {
                    for &member in set {
                        hay[at] = member;
                        assert_eq!(find_any(&hay, set), Some(at), "len {len} at {at}");
                        assert_eq!(find_any(&hay, set), oracle(&hay, set));
                        hay[at] = b'x';
                    }
                }
            }
        }
        sweep(b"<>&\r");
        sweep(b"<>&\r\"'\t\n");
        sweep(b"<&\r");
        sweep(b"<");
        sweep(b"&\r");
        sweep(b"&\r\t\n");
        sweep(b"\"&\t\n\r");
        sweep(b"'&\t\n\r");
    }

    /// The first member of `set` or character outside XML 1.0 `Char`, a
    /// `char` at a time.
    fn char_oracle(hay: &str, set: &[u8]) -> Option<usize> {
        let forbidden = |c| matches!(c, '\0'..='\u{8}' | '\u{b}' | '\u{c}' | '\u{e}'..='\u{1f}' | '\u{FFFE}' | '\u{FFFF}');
        hay.char_indices()
            .find(|&(_, c)| (c.is_ascii() && set.contains(&(c as u8))) || forbidden(c))
            .map(|(i, _)| i)
    }

    /// Each forbidden code point, each legal one the block test flags and
    /// a few it passes over (four-byte ones among them), at every offset
    /// across two block boundaries, alone and before another: the checked
    /// search finds exactly what the per-`char` oracle finds, and a
    /// forbidden `char` is one byte long or three.
    #[test]
    fn the_checked_search_agrees_with_the_per_char_oracle() {
        fn check<const N: usize>(hay: &str, set: &[u8; N]) {
            let found = find_any_or_non_char(hay.as_bytes(), set);
            assert_eq!(found, char_oracle(hay, set), "{hay:?} {set:?}");
            if let Some(at) = found.filter(|&at| !set.contains(&hay.as_bytes()[at])) {
                let c = hay[at..].chars().next().unwrap();
                assert_eq!(c.len_utf8(), if c.is_ascii() { 1 } else { 3 }, "{c:?}");
            }
        }
        let stops = [
            "\0",
            "\u{1}",
            "\u{8}",
            "\u{b}",
            "\u{c}",
            "\u{e}",
            "\u{1f}",
            "\u{FFFE}",
            "\u{FFFF}",
            "\t",
            "\n",
            "\r",
            "\u{FFFD}",
            "\u{FEFF}",
            "\u{F000}",
            "𝄞",
            "\u{10FFFF}",
            "<",
            "&",
        ];
        for len in 0..70 {
            for first in stops {
                for second in ["", "\u{FFFF}", "\n", "<"] {
                    let hay = format!("{}{first}{second}tail", "x".repeat(len));
                    check(&hay, b"<&\r");
                    check(&hay, b"<");
                    check(&hay, b"&\r\t\n");
                    check(&hay, b"");
                }
            }
        }
    }

    #[test]
    fn every_byte_value_is_classified_as_the_oracle_does() {
        let set = b"<>&\r\"'\t\n";
        for b in 0..=255u8 {
            for len in [1, 32, 33, 64] {
                let mut hay = vec![0x80u8; len];
                hay[len - 1] = b;
                assert_eq!(find_any(&hay, set), oracle(&hay, set), "byte {b:#x}");
            }
        }
    }

    /// Members are ASCII, so an index the search yields, and the one after
    /// it, is a `char` boundary whatever multi-byte text surrounds it.
    #[test]
    fn yielded_indices_are_char_boundaries() {
        for lead in 0..70 {
            for neighbour in ["é", "☃", "𝄞"] {
                let s = format!("{}{neighbour}&{neighbour}", "x".repeat(lead));
                let at = find_any(s.as_bytes(), b"<>&\r").expect("one member");
                assert!(s.is_char_boundary(at) && s.is_char_boundary(at + 1));
                assert_eq!(&s[at..=at], "&");
            }
        }
    }
}
