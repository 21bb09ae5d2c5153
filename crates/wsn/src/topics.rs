//! WS-Topics: topic paths and the three expression dialects.
//!
//! "The most common filter specifies a message topic using one of the topic
//! expression dialects defined in WS-Topics (e.g., topic names can be
//! specified with simple strings, hierarchical topic trees, or wildcard
//! expressions)" (§2.1).

use std::fmt;

/// A concrete topic: a path of names, e.g. `jobs/status/exited`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopicPath(Vec<String>);

impl TopicPath {
    /// Parse `a/b/c`.
    pub fn parse(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let segments: Vec<String> = s.split('/').map(str::to_owned).collect();
        if segments.iter().any(|seg| seg.is_empty() || seg == "*") {
            return None; // concrete paths have no wildcards or empty segments
        }
        Some(TopicPath(segments))
    }

    pub fn segments(&self) -> &[String] {
        &self.0
    }

    /// The root topic name.
    pub fn root(&self) -> &str {
        &self.0[0]
    }
}

impl fmt::Display for TopicPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.join("/"))
    }
}

/// The three WS-Topics expression dialects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopicDialect {
    /// A single root topic name.
    Simple,
    /// A full concrete path.
    Concrete,
    /// Path with `*` (one segment) and `//` (any depth) wildcards.
    Full,
}

impl TopicDialect {
    pub fn uri(self) -> &'static str {
        match self {
            TopicDialect::Simple => "http://docs.oasis-open.org/wsn/2004/06/TopicExpression/Simple",
            TopicDialect::Concrete => {
                "http://docs.oasis-open.org/wsn/2004/06/TopicExpression/Concrete"
            }
            TopicDialect::Full => "http://docs.oasis-open.org/wsn/2004/06/TopicExpression/Full",
        }
    }

    pub fn from_uri(uri: &str) -> Option<Self> {
        match uri.rsplit('/').next()? {
            "Simple" => Some(TopicDialect::Simple),
            "Concrete" => Some(TopicDialect::Concrete),
            "Full" => Some(TopicDialect::Full),
            _ => None,
        }
    }
}

/// A topic expression: dialect plus expression text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopicExpression {
    pub dialect: TopicDialect,
    pub expr: String,
}

impl TopicExpression {
    pub fn simple(root: &str) -> Self {
        TopicExpression {
            dialect: TopicDialect::Simple,
            expr: root.to_owned(),
        }
    }

    pub fn concrete(path: &str) -> Self {
        TopicExpression {
            dialect: TopicDialect::Concrete,
            expr: path.to_owned(),
        }
    }

    pub fn full(pattern: &str) -> Self {
        TopicExpression {
            dialect: TopicDialect::Full,
            expr: pattern.to_owned(),
        }
    }

    /// Compile into the fan-out core's precompiled form (interned segments,
    /// explicit wildcard nodes) for insertion into the sharded table's
    /// per-shard topic tries.
    pub fn compile(&self) -> ogsa_fanout::CompiledTopic {
        match self.dialect {
            TopicDialect::Simple => ogsa_fanout::CompiledTopic::simple(&self.expr),
            TopicDialect::Concrete => ogsa_fanout::CompiledTopic::concrete(&self.expr),
            TopicDialect::Full => ogsa_fanout::CompiledTopic::full(&self.expr),
        }
    }

    /// Does a concrete topic match this expression? Interpreted by the
    /// fan-out core's matcher, the one the trie is held to.
    pub fn matches(&self, topic: &TopicPath) -> bool {
        let segs: Vec<&str> = topic.segments().iter().map(String::as_str).collect();
        self.compile().matches(&segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> TopicPath {
        TopicPath::parse(s).unwrap()
    }

    #[test]
    fn concrete_paths_parse() {
        assert_eq!(p("a/b/c").segments().len(), 3);
        assert!(TopicPath::parse("").is_none());
        assert!(TopicPath::parse("a//b").is_none());
        assert!(TopicPath::parse("a/*/c").is_none());
    }

    #[test]
    fn simple_dialect_matches_root() {
        let e = TopicExpression::simple("jobs");
        assert!(e.matches(&p("jobs")));
        assert!(e.matches(&p("jobs/status")));
        assert!(!e.matches(&p("data")));
    }

    #[test]
    fn concrete_dialect_is_exact() {
        let e = TopicExpression::concrete("jobs/status");
        assert!(e.matches(&p("jobs/status")));
        assert!(!e.matches(&p("jobs")));
        assert!(!e.matches(&p("jobs/status/exited")));
    }

    #[test]
    fn full_dialect_star_matches_one_segment() {
        let e = TopicExpression::full("jobs/*/exited");
        assert!(e.matches(&p("jobs/j1/exited")));
        assert!(!e.matches(&p("jobs/exited")));
        assert!(!e.matches(&p("jobs/a/b/exited")));
    }

    #[test]
    fn full_dialect_doubleslash_matches_any_depth() {
        let e = TopicExpression::full("jobs//exited");
        assert!(e.matches(&p("jobs/exited")));
        assert!(e.matches(&p("jobs/a/exited")));
        assert!(e.matches(&p("jobs/a/b/c/exited")));
        assert!(!e.matches(&p("jobs/a/b")));
        let leading = TopicExpression::full("//exited");
        assert!(leading.matches(&p("a/b/exited")));
        assert!(leading.matches(&p("exited")));
    }

    #[test]
    fn full_dialect_combined_wildcards() {
        let e = TopicExpression::full("vo/*/jobs//status");
        assert!(e.matches(&p("vo/site1/jobs/status")));
        assert!(e.matches(&p("vo/site1/jobs/x/y/status")));
        assert!(!e.matches(&p("vo/jobs/status")));
    }

    #[test]
    fn dialect_uris_roundtrip() {
        for d in [
            TopicDialect::Simple,
            TopicDialect::Concrete,
            TopicDialect::Full,
        ] {
            assert_eq!(TopicDialect::from_uri(d.uri()), Some(d));
        }
        assert_eq!(TopicDialect::from_uri("urn:junk"), None);
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(p("a/b").to_string(), "a/b");
    }
}
