//! The one byte-class search under every pass over character data:
//! escaping, length counting, canonicalisation and the reader's text and
//! attribute-value scans all ask "where is the first byte of this small
//! fixed set?" and copy or borrow the clean run before it whole.
//!
//! Plain Rust on purpose — one path on every target, nothing to detect at
//! run time, nothing `unsafe`. A whole block is tested with a branch-free
//! OR of `==` compares, which LLVM turns into vector compares on baseline
//! x86-64 and aarch64 alike (a `fold` over `bool`, or `position` over a
//! `matches!`, stays scalar at a tenth of the speed). Only the block that
//! holds a member, and a tail shorter than a block, are walked bytewise.

const BLOCK: usize = 32;

/// Index of the first byte of `hay` that is a member of `set`, if any.
/// Inlined at every call so that `set` is a compile-time constant in the
/// bytewise tail too: most strings are shorter than a block.
#[inline(always)]
pub(crate) fn find_any<const N: usize>(hay: &[u8], set: &[u8; N]) -> Option<usize> {
    let mut clean = 0;
    for block in hay.chunks_exact(BLOCK) {
        let mut hit = 0u8;
        for &b in block {
            for &member in set {
                hit |= u8::from(b == member);
            }
        }
        if hit != 0 {
            break;
        }
        clean += BLOCK;
    }
    hay[clean..]
        .iter()
        .position(|b| set.contains(b))
        .map(|i| clean + i)
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
