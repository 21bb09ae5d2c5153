#!/bin/sh
# Non-test lines of Rust: every .rs under crates/*/src and src, each cut at
# its first `#[cfg(test)]`, summed per crate and in total. One instrument
# for ROADMAP's "line count goes down" aim; informational, no threshold.
cd "$(dirname "$0")/.." || exit 1
find crates/*/src src -name '*.rs' | sort | xargs awk '
    FNR == 1 { cut = 0; split(FILENAME, p, "/"); crate = (p[1] == "crates") ? p[2] : "(root)" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
    !cut { lines[crate]++; total++ }
    END {
        for (c in lines) printf "%-14s %6d\n", c, lines[c] | "sort"
        close("sort")
        printf "%-14s %6d\n", "total", total
    }'
