//! Differential property tests: on every generated (expression set, path)
//! pair, the precompiled [`TopicTrie`] must resolve exactly the set of
//! registrations whose naive matcher ([`CompiledTopic::matches`]) accepts
//! the path — across all three WS-Topics dialects, including the `*`
//! (one-segment) and `//` (any-depth) wildcards, and under removal churn.
//! And the reason the trie exists: at 100k subscriptions it resolves at
//! least 10× faster than the naive scan, on every topic shape.

use std::time::Instant;

use ogsa_fanout::{CompiledTopic, TopicTrie};
use proptest::prelude::*;

/// Topic names drawn from a small alphabet so generated expressions and
/// paths collide often — the interesting cases are shared prefixes and
/// wildcard overlap, not disjoint namespaces.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("jobs".to_owned()),
        Just("data".to_owned()),
        Just("vo".to_owned()),
        Just("exited".to_owned()),
        Just("status".to_owned()),
        Just("x".to_owned()),
    ]
}

/// A raw Full-dialect segment: a literal, `*`, or the empty string that
/// `CompiledTopic::full` reads as `//`.
fn arb_full_seg() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_name(),
        arb_name(),
        arb_name(),
        Just("*".to_owned()),
        Just(String::new()),
    ]
}

/// One compiled expression in any dialect.
fn arb_topic() -> impl Strategy<Value = CompiledTopic> {
    prop_oneof![
        // Simple: root + subtree.
        arb_name().prop_map(|n| CompiledTopic::simple(&n)),
        // Concrete: exact path.
        proptest::collection::vec(arb_name(), 1..4)
            .prop_map(|segs| CompiledTopic::concrete(&segs.join("/"))),
        // Full: wildcards allowed anywhere.
        proptest::collection::vec(arb_full_seg(), 1..5)
            .prop_map(|segs| CompiledTopic::full(&segs.join("/"))),
        // The topic-less stack's registration.
        Just(CompiledTopic::match_all()),
    ]
}

fn arb_path() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_name(), 1..5)
}

fn naive_set(exprs: &[CompiledTopic], path: &[&str]) -> Vec<u64> {
    exprs
        .iter()
        .enumerate()
        .filter(|(_, e)| e.matches(path))
        .map(|(i, _)| i as u64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trie_resolution_equals_naive_matcher(
        exprs in proptest::collection::vec(arb_topic(), 0..24),
        paths in proptest::collection::vec(arb_path(), 1..8),
    ) {
        let mut trie = TopicTrie::new();
        for (i, e) in exprs.iter().enumerate() {
            trie.insert(i as u64, e);
        }
        for path in &paths {
            let path: Vec<&str> = path.iter().map(String::as_str).collect();
            let mut got = Vec::new();
            trie.resolve(&path, &mut got);
            prop_assert_eq!(got, naive_set(&exprs, &path), "path {:?}", path);
        }
    }

    #[test]
    fn equivalence_survives_removal_churn(
        exprs in proptest::collection::vec(arb_topic(), 1..24),
        remove_mask in proptest::collection::vec(any::<bool>(), 1..24),
        path in arb_path(),
    ) {
        let mut trie = TopicTrie::new();
        for (i, e) in exprs.iter().enumerate() {
            trie.insert(i as u64, e);
        }
        // Remove a generated subset, then check the survivors resolve
        // identically to the naive matcher over the survivor set.
        let mut survivors = Vec::new();
        for (i, e) in exprs.iter().enumerate() {
            if remove_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(trie.remove(i as u64));
            } else {
                survivors.push((i as u64, e.clone()));
            }
        }
        let path: Vec<&str> = path.iter().map(String::as_str).collect();
        let mut got = Vec::new();
        trie.resolve(&path, &mut got);
        let want: Vec<u64> = survivors
            .iter()
            .filter(|(_, e)| e.matches(&path))
            .map(|(i, _)| *i)
            .collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(trie.len(), survivors.len());
    }

    #[test]
    fn reinsertion_after_removal_is_clean(
        expr in arb_topic(),
        path in arb_path(),
    ) {
        // Insert → remove → reinsert under the same id must behave like a
        // fresh insert (interior nodes are re-used, terminals must not
        // duplicate).
        let mut trie = TopicTrie::new();
        trie.insert(1, &expr);
        prop_assert!(trie.remove(1));
        trie.insert(1, &expr);
        let path: Vec<&str> = path.iter().map(String::as_str).collect();
        let mut got = Vec::new();
        trie.resolve(&path, &mut got);
        let want: Vec<u64> = if expr.matches(&path) { vec![1] } else { vec![] };
        prop_assert_eq!(got, want);
    }
}

/// The `i`-th subscription expression and probe path of one topic shape:
/// flat (Simple-dialect roots), deep (concrete four-segment paths) or
/// wildcard (Full-dialect `*` and `//`). Probes come from the expressions'
/// own name space, so they hit.
fn shape_topic(shape: &str, i: usize) -> CompiledTopic {
    let r = i % 256;
    match (shape, i % 4) {
        ("flat", _) => CompiledTopic::simple(&format!("root{r}")),
        ("deep", _) => {
            CompiledTopic::concrete(&format!("jobs{r}/vo{}/q{}/t{}", i % 7, i % 5, i % 11))
        }
        (_, 0) => CompiledTopic::full(&format!("jobs{r}/*/q{}/t{}", i % 5, i % 11)),
        (_, 1) => CompiledTopic::full(&format!("jobs{r}//t{}", i % 11)),
        (_, 2) => CompiledTopic::full(&format!("root{r}/*")),
        _ => CompiledTopic::full(&format!("//exited{}", i % 13)),
    }
}

fn shape_probe(shape: &str, j: usize) -> Vec<String> {
    let r = j % 256;
    match shape {
        "flat" => vec![format!("root{r}"), format!("x{}", j % 9)],
        _ => vec![
            format!("jobs{r}"),
            format!("vo{}", j % 7),
            format!("q{}", j % 5),
            format!("t{}", j % 11),
        ],
    }
}

#[test]
fn trie_is_10x_naive_at_100k_subscribers() {
    for shape in ["flat", "deep", "wildcard"] {
        let exprs: Vec<_> = (0..100_000).map(|i| shape_topic(shape, i)).collect();
        let mut trie = TopicTrie::new();
        for (i, e) in exprs.iter().enumerate() {
            trie.insert(i as u64, e);
        }
        let probes: Vec<_> = (0..20).map(|j| shape_probe(shape, j)).collect();
        let probes: Vec<Vec<&str>> = probes
            .iter()
            .map(|p| p.iter().map(String::as_str).collect())
            .collect();

        let start = Instant::now();
        let mut matches = 0;
        for path in &probes {
            let mut got = Vec::new();
            trie.resolve(path, &mut got);
            matches += got.len();
        }
        let trie_time = start.elapsed();

        let start = Instant::now();
        let naive: usize = probes
            .iter()
            .map(|p| exprs.iter().filter(|e| e.matches(p)).count())
            .sum();
        let naive_time = start.elapsed();

        assert!(
            matches > 0 && matches == naive,
            "{shape}: {matches} vs {naive}"
        );
        assert!(
            naive_time >= trie_time * 10,
            "{shape}: trie {trie_time:?}, naive {naive_time:?}"
        );
    }
}
