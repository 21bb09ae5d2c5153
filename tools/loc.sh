#!/bin/sh
# Non-test lines of Rust: every .rs under crates/*/src and src, each cut at
# its first `#[cfg(test)]`, summed per crate and in total, with the
# non-test `.unwrap()` / `.expect(` calls beside each count (ROADMAP's
# no-panic census). One instrument for ROADMAP's "line count goes down"
# aim; informational, no threshold.
cd "$(dirname "$0")/.." || exit 1
find crates/*/src src -name '*.rs' | sort | xargs awk '
    FNR == 1 { cut = 0; split(FILENAME, p, "/"); crate = (p[1] == "crates") ? p[2] : "(root)" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
    !cut {
        lines[crate]++; total++
        line = $0
        n = gsub(/\.unwrap\(\)|\.expect\(/, "", line)
        panics[crate] += n; panics_total += n
    }
    END {
        printf "%-14s %6s %6s\n", "crate", "lines", "unwrap"
        for (c in lines) printf "%-14s %6d %6d\n", c, lines[c], panics[c] | "sort"
        close("sort")
        printf "%-14s %6d %6d\n", "total", total, panics_total
    }'
