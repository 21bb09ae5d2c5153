//! The precompiled WS-Topics trie.
//!
//! A subscription's topic expression is compiled once, at subscribe time,
//! into a [`CompiledTopic`] — a sequence of interned path segments plus the
//! two WS-Topics wildcards (`*` = exactly one segment, `//` = any depth).
//! Compiled expressions are inserted into a [`TopicTrie`], which resolves a
//! concrete topic path to its full subscriber set in one walk over the
//! shared prefix structure, instead of testing every subscription's
//! expression against the path (the flat-table design the seed inherited
//! from the paper's 2005 testbed).
//!
//! [`CompiledTopic::matches`] is the *naive matcher*: a direct recursive
//! interpretation of one expression against one path. It is deliberately
//! retained — the trie must agree with it on every (expression set, path)
//! pair, and the property tests + the `fanout` bench enforce that
//! equivalence while measuring the speedup.

use std::collections::HashMap;
use std::sync::Arc;

use ogsa_xml::intern;

/// One compiled expression segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seg {
    /// A literal topic name, interned through the PR-4 FNV interner so the
    /// trie's child maps share storage for repeated names.
    Name(Arc<str>),
    /// `*` — exactly one segment.
    One,
    /// `//` — zero or more segments.
    Any,
}

/// A compiled topic expression: segments plus a subtree flag (the Simple
/// dialect's "root topic and everything beneath it" reading).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTopic {
    pub segs: Vec<Seg>,
    /// After the segments match, does any remaining path suffix also match?
    pub subtree: bool,
}

impl CompiledTopic {
    /// Simple dialect: a root name matching the root topic and its subtree.
    pub fn simple(root: &str) -> Self {
        CompiledTopic {
            segs: vec![Seg::Name(intern(root))],
            subtree: true,
        }
    }

    /// Concrete dialect: an exact path.
    pub fn concrete(path: &str) -> Self {
        CompiledTopic {
            segs: path.split('/').map(|s| Seg::Name(intern(s))).collect(),
            subtree: false,
        }
    }

    /// Full dialect: `*` and `//` wildcards, as in WS-Topics.
    pub fn full(pattern: &str) -> Self {
        let mut segs = Vec::new();
        for raw in pattern.split('/') {
            match raw {
                // An empty segment arises from `//`.
                "" => {
                    if segs.last() != Some(&Seg::Any) {
                        segs.push(Seg::Any);
                    }
                }
                "*" => segs.push(Seg::One),
                name => segs.push(Seg::Name(intern(name))),
            }
        }
        CompiledTopic {
            segs,
            subtree: false,
        }
    }

    /// Matches every path — what a topic-less stack (WS-Eventing) registers.
    pub fn match_all() -> Self {
        CompiledTopic {
            segs: Vec::new(),
            subtree: true,
        }
    }

    /// The literal first segment, if the expression has one. Expressions
    /// with a wildcard (or empty) head cannot be routed to a single shard
    /// and live in the wildcard overflow shard instead.
    pub fn root_name(&self) -> Option<&str> {
        match self.segs.first() {
            Some(Seg::Name(n)) => Some(n),
            _ => None,
        }
    }

    /// The naive matcher: does a concrete path match this expression? This
    /// is the differential oracle the trie is checked against.
    pub fn matches(&self, path: &[&str]) -> bool {
        fn rec(segs: &[Seg], path: &[&str], subtree: bool) -> bool {
            match (segs.first(), path.first()) {
                (None, None) => true,
                (None, Some(_)) => subtree,
                (Some(Seg::Any), _) => {
                    rec(&segs[1..], path, subtree)
                        || (!path.is_empty() && rec(segs, &path[1..], subtree))
                }
                (Some(_), None) => false,
                (Some(Seg::One), Some(_)) => rec(&segs[1..], &path[1..], subtree),
                (Some(Seg::Name(n)), Some(s)) => {
                    n.as_ref() == *s && rec(&segs[1..], &path[1..], subtree)
                }
            }
        }
        rec(&self.segs, path, self.subtree)
    }
}

#[derive(Debug, Default)]
struct Node {
    /// Literal children, keyed by interned segment name.
    children: HashMap<Arc<str>, u32>,
    /// The `*` child, if any.
    one: Option<u32>,
    /// The `//` child, if any.
    any: Option<u32>,
    /// Is this node itself a `//` node (it absorbs extra path segments)?
    is_any: bool,
    /// Registrations that match exactly at this node.
    exact: Vec<u64>,
    /// Registrations that match this node and every descendant (subtree).
    subtree: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Exact,
    Subtree,
}

/// Where a registration landed, for O(1) removal.
#[derive(Debug)]
struct Registered {
    node: u32,
    slot: Slot,
}

/// The trie over compiled expressions. Not internally locked — the sharded
/// table wraps one trie per shard behind its shard lock.
#[derive(Debug)]
pub struct TopicTrie {
    nodes: Vec<Node>,
    registrations: HashMap<u64, Registered>,
}

impl Default for TopicTrie {
    fn default() -> Self {
        TopicTrie {
            nodes: vec![Node::default()],
            registrations: HashMap::new(),
        }
    }
}

impl TopicTrie {
    pub fn new() -> Self {
        Self::default()
    }

    fn child(&mut self, node: u32, seg: &Seg) -> u32 {
        let next = self.nodes.len() as u32;
        let n = &mut self.nodes[node as usize];
        let slot = match seg {
            Seg::Name(name) => {
                if let Some(&c) = n.children.get(name.as_ref()) {
                    return c;
                }
                n.children.insert(name.clone(), next);
                next
            }
            Seg::One => match n.one {
                Some(c) => return c,
                None => {
                    n.one = Some(next);
                    next
                }
            },
            Seg::Any => match n.any {
                Some(c) => return c,
                None => {
                    n.any = Some(next);
                    next
                }
            },
        };
        self.nodes.push(Node {
            is_any: matches!(seg, Seg::Any),
            ..Node::default()
        });
        slot
    }

    /// Insert a compiled expression under a registration id.
    pub fn insert(&mut self, id: u64, topic: &CompiledTopic) {
        let mut node = 0u32;
        for seg in &topic.segs {
            node = self.child(node, seg);
        }
        let slot = if topic.subtree {
            self.nodes[node as usize].subtree.push(id);
            Slot::Subtree
        } else {
            self.nodes[node as usize].exact.push(id);
            Slot::Exact
        };
        self.registrations.insert(id, Registered { node, slot });
    }

    /// Remove a registration; false if unknown. Interior nodes are kept
    /// (subscription churn re-uses them), only the terminal entry goes.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(reg) = self.registrations.remove(&id) else {
            return false;
        };
        let n = &mut self.nodes[reg.node as usize];
        match reg.slot {
            Slot::Exact => n.exact.retain(|&r| r != id),
            Slot::Subtree => n.subtree.retain(|&r| r != id),
        }
        true
    }

    pub fn len(&self) -> usize {
        self.registrations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.registrations.is_empty()
    }

    /// Resolve a concrete path to every matching registration id, in one
    /// walk. Appends to `out` (sorted, deduplicated).
    pub fn resolve(&self, path: &[&str], out: &mut Vec<u64>) {
        // (node, consumed) states; `//` nodes branch, so dedupe visits.
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        let mut seen: std::collections::HashSet<(u32, usize)> = std::collections::HashSet::new();
        while let Some((ni, i)) = stack.pop() {
            if !seen.insert((ni, i)) {
                continue;
            }
            let n = &self.nodes[ni as usize];
            // Subtree registrations match regardless of what path remains.
            out.extend_from_slice(&n.subtree);
            if i == path.len() {
                out.extend_from_slice(&n.exact);
            } else {
                if let Some(&c) = n.children.get(path[i]) {
                    stack.push((c, i + 1));
                }
                if let Some(c) = n.one {
                    stack.push((c, i + 1));
                }
                if n.is_any {
                    // A `//` node absorbs one more segment and stays current.
                    stack.push((ni, i + 1));
                }
            }
            if let Some(c) = n.any {
                // `//` absorbs zero segments on entry.
                stack.push((c, i));
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(trie: &TopicTrie, path: &[&str]) -> Vec<u64> {
        let mut out = Vec::new();
        trie.resolve(path, &mut out);
        out
    }

    #[test]
    fn exact_and_subtree_terminal_sets() {
        let mut t = TopicTrie::new();
        t.insert(1, &CompiledTopic::concrete("jobs/status"));
        t.insert(2, &CompiledTopic::simple("jobs"));
        assert_eq!(ids(&t, &["jobs", "status"]), vec![1, 2]);
        assert_eq!(ids(&t, &["jobs"]), vec![2]);
        assert_eq!(ids(&t, &["jobs", "status", "exited"]), vec![2]);
        assert_eq!(ids(&t, &["data"]), Vec::<u64>::new());
    }

    #[test]
    fn star_matches_exactly_one_segment() {
        let mut t = TopicTrie::new();
        t.insert(7, &CompiledTopic::full("jobs/*/exited"));
        assert_eq!(ids(&t, &["jobs", "j1", "exited"]), vec![7]);
        assert!(ids(&t, &["jobs", "exited"]).is_empty());
        assert!(ids(&t, &["jobs", "a", "b", "exited"]).is_empty());
    }

    #[test]
    fn doubleslash_matches_any_depth() {
        let mut t = TopicTrie::new();
        t.insert(3, &CompiledTopic::full("jobs//exited"));
        t.insert(4, &CompiledTopic::full("//exited"));
        assert_eq!(ids(&t, &["jobs", "exited"]), vec![3, 4]);
        assert_eq!(ids(&t, &["jobs", "a", "b", "exited"]), vec![3, 4]);
        assert_eq!(ids(&t, &["exited"]), vec![4]);
        assert!(ids(&t, &["jobs", "a", "b"]).is_empty());
    }

    #[test]
    fn combined_wildcards() {
        let mut t = TopicTrie::new();
        t.insert(9, &CompiledTopic::full("vo/*/jobs//status"));
        assert_eq!(ids(&t, &["vo", "site1", "jobs", "status"]), vec![9]);
        assert_eq!(
            ids(&t, &["vo", "site1", "jobs", "x", "y", "status"]),
            vec![9]
        );
        assert!(ids(&t, &["vo", "jobs", "status"]).is_empty());
    }

    #[test]
    fn match_all_matches_everything() {
        let mut t = TopicTrie::new();
        t.insert(5, &CompiledTopic::match_all());
        assert_eq!(ids(&t, &["anything"]), vec![5]);
        assert_eq!(ids(&t, &["a", "b", "c"]), vec![5]);
    }

    #[test]
    fn removal_unregisters() {
        let mut t = TopicTrie::new();
        t.insert(1, &CompiledTopic::simple("jobs"));
        t.insert(2, &CompiledTopic::concrete("jobs/x"));
        assert!(t.remove(1));
        assert!(!t.remove(1));
        assert_eq!(ids(&t, &["jobs", "x"]), vec![2]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn interned_segments_share_storage() {
        let a = CompiledTopic::concrete("shared/leaf");
        let b = CompiledTopic::simple("shared");
        match (&a.segs[0], &b.segs[0]) {
            (Seg::Name(x), Seg::Name(y)) => assert!(Arc::ptr_eq(x, y)),
            other => panic!("expected interned names, got {other:?}"),
        }
    }

    #[test]
    fn naive_matcher_mirrors_trie_on_fixed_cases() {
        let exprs = [
            CompiledTopic::simple("jobs"),
            CompiledTopic::concrete("jobs/status"),
            CompiledTopic::full("jobs/*/exited"),
            CompiledTopic::full("//exited"),
            CompiledTopic::full("jobs//exited"),
            CompiledTopic::match_all(),
        ];
        let paths: &[&[&str]] = &[
            &["jobs"],
            &["jobs", "status"],
            &["jobs", "j1", "exited"],
            &["jobs", "a", "b", "exited"],
            &["exited"],
            &["data", "x"],
        ];
        let mut trie = TopicTrie::new();
        for (i, e) in exprs.iter().enumerate() {
            trie.insert(i as u64, e);
        }
        for path in paths {
            let got = ids(&trie, path);
            let want: Vec<u64> = exprs
                .iter()
                .enumerate()
                .filter(|(_, e)| e.matches(path))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(got, want, "path {path:?}");
        }
    }
}
