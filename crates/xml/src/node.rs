//! The element tree: [`Element`], [`Node`], [`Attribute`], and the accessor
//! and builder API used by every layer above.

use std::sync::Arc;

use crate::name::QName;
use crate::writer;

/// An attribute: qualified name plus string value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: QName,
    pub value: String,
}

/// A child node of an element.
#[derive(Debug, Clone)]
pub enum Node {
    Element(Element),
    Text(String),
    Comment(String),
    /// An element several trees hold at once (one event under every
    /// subscriber's `wsnt:Notify`). Read through, copied on write, equal by
    /// content, never parsed: match on `as_element()`, not `Node::Element`.
    Shared(Arc<Element>),
}

impl Node {
    /// The contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Shared(e) => Some(e),
            _ => None,
        }
    }

    /// Mutable variant of [`Node::as_element`]; a shared element is copied
    /// first, unless this is its only holder.
    pub fn as_element_mut(&mut self) -> Option<&mut Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Shared(e) => Some(Arc::make_mut(e)),
            _ => None,
        }
    }
}

/// By content: `Shared(x) == Element(x)`.
impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        match (self, other) {
            (Node::Text(a), Node::Text(b)) | (Node::Comment(a), Node::Comment(b)) => a == b,
            _ => matches!((self.as_element(), other.as_element()), (Some(a), Some(b)) if a == b),
        }
    }
}

impl Eq for Node {}

/// An XML element: name, attributes, ordered children.
///
/// This is a plain owned tree — no parent pointers — matching how the stacks
/// use it: build, serialise, parse, inspect. Methods come in builder
/// (`with_*`, consuming) and mutating (`add_*`/`set_*`) flavours.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    pub name: QName,
    pub attrs: Vec<Attribute>,
    pub children: Vec<Node>,
}

impl Default for QName {
    fn default() -> Self {
        QName::local("")
    }
}

impl Element {
    /// An empty element named `name`.
    pub fn new(name: impl Into<QName>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// An element wrapping a single text node — the most common shape in
    /// SOAP payloads.
    pub fn text_element(name: impl Into<QName>, text: impl Into<String>) -> Self {
        Element::new(name).with_text(text)
    }

    // ---- builder API -------------------------------------------------

    /// Append a child element (consuming builder).
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Append a text node (consuming builder).
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Set an attribute (consuming builder).
    pub fn with_attr(mut self, name: impl Into<QName>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Append several children (consuming builder).
    pub fn with_children(mut self, children: impl IntoIterator<Item = Element>) -> Self {
        self.children
            .extend(children.into_iter().map(Node::Element));
        self
    }

    // ---- mutation ----------------------------------------------------

    /// Append a child element, returning a mutable reference to it.
    pub fn add_child(&mut self, child: Element) -> &mut Element {
        self.children.push(Node::Element(child));
        match self.children.last_mut() {
            Some(Node::Element(e)) => e,
            _ => unreachable!(),
        }
    }

    /// Append a text node.
    pub fn add_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// Set (replace or insert) an attribute.
    pub fn set_attr(&mut self, name: impl Into<QName>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(a) = self.attrs.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            self.attrs.push(Attribute { name, value });
        }
    }

    /// Remove every child element with the given name; returns how many were
    /// removed.
    pub fn remove_children(&mut self, name: &QName) -> usize {
        let before = self.children.len();
        self.children
            .retain(|n| n.as_element().is_none_or(|e| e.name != *name));
        before - self.children.len()
    }

    /// Replace the children with a single text node.
    pub fn set_text(&mut self, text: impl Into<String>) {
        self.children.clear();
        self.children.push(Node::Text(text.into()));
    }

    // ---- accessors ----------------------------------------------------

    /// Attribute value by name.
    pub fn attr(&self, name: &QName) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name == *name)
            .map(|a| a.value.as_str())
    }

    /// Attribute value by unqualified local name (most WS-* attributes are
    /// unqualified).
    pub fn attr_local(&self, local: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name.ns.is_none() && &*a.name.local == local)
            .map(|a| a.value.as_str())
    }

    /// Iterator over child elements.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Mutable iterator over child elements.
    pub fn child_elements_mut(&mut self) -> impl Iterator<Item = &mut Element> {
        self.children.iter_mut().filter_map(Node::as_element_mut)
    }

    /// First child element with the given fully-qualified name.
    pub fn child(&self, name: &QName) -> Option<&Element> {
        self.child_elements().find(|e| e.name == *name)
    }

    /// Mutable variant of [`Element::child`].
    pub fn child_mut(&mut self, name: &QName) -> Option<&mut Element> {
        self.child_elements_mut().find(|e| e.name == *name)
    }

    /// First child element whose *local* name matches, ignoring namespace —
    /// the lenient matching the paper's implementations use when consuming
    /// `xsd:any` payloads (WS-Transfer has no schema, §2.3).
    pub fn child_local(&self, local: &str) -> Option<&Element> {
        self.child_elements().find(|e| &*e.name.local == local)
    }

    /// All child elements with the given qualified name.
    pub fn children_named<'a>(&'a self, name: &'a QName) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == *name)
    }

    /// Concatenated text of the direct text-node children.
    pub fn text(&self) -> String {
        self.text_cow().into_owned()
    }

    /// Concatenated text content without allocating when the element has at
    /// most one text child — the overwhelmingly common shape on the wire.
    pub fn text_cow(&self) -> std::borrow::Cow<'_, str> {
        let mut texts = self.children.iter().filter_map(|n| match n {
            Node::Text(t) => Some(t.as_str()),
            _ => None,
        });
        match (texts.next(), texts.next()) {
            (None, _) => std::borrow::Cow::Borrowed(""),
            (Some(t), None) => std::borrow::Cow::Borrowed(t),
            (Some(first), Some(second)) => {
                let mut out = String::with_capacity(first.len() + second.len());
                out.push_str(first);
                out.push_str(second);
                for t in texts {
                    out.push_str(t);
                }
                std::borrow::Cow::Owned(out)
            }
        }
    }

    /// Text of the first child element with matching local name.
    pub fn child_text(&self, local: &str) -> Option<&str> {
        let child = self.child_local(local)?;
        child.children.iter().find_map(|n| match n {
            Node::Text(t) => Some(t.as_str()),
            _ => None,
        })
    }

    /// Parse the text content of a child as `T` (integers, floats, bools...).
    pub fn child_parse<T: std::str::FromStr>(&self, local: &str) -> Option<T> {
        self.child_text(local)?.trim().parse().ok()
    }

    /// Depth-first search for the first descendant (or self) with the given
    /// qualified name.
    pub fn find(&self, name: &QName) -> Option<&Element> {
        if self.name == *name {
            return Some(self);
        }
        self.child_elements().find_map(|c| c.find(name))
    }

    /// Depth-first search by local name only.
    pub fn find_local(&self, local: &str) -> Option<&Element> {
        if &*self.name.local == local {
            return Some(self);
        }
        self.child_elements().find_map(|c| c.find_local(local))
    }

    /// Collect all descendants (including self) matching a predicate.
    pub fn descendants<'a>(&'a self, out: &mut Vec<&'a Element>) {
        out.push(self);
        for c in self.child_elements() {
            c.descendants(out);
        }
    }

    /// Number of element nodes in the subtree rooted here (including self).
    pub fn subtree_size(&self) -> usize {
        1 + self
            .child_elements()
            .map(Element::subtree_size)
            .sum::<usize>()
    }

    // ---- serialisation -----------------------------------------------

    /// Serialise this element as a standalone document string (with XML
    /// declaration).
    pub fn into_document_string(&self) -> String {
        writer::write_document(self)
    }

    /// Serialise without the XML declaration.
    pub fn to_xml_string(&self) -> String {
        writer::write_element(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::{ns, QName};

    fn sample() -> Element {
        Element::new(QName::new(ns::COUNTER, "counter"))
            .with_attr("id", "c1")
            .with_child(Element::text_element("value", "42"))
            .with_child(Element::text_element("owner", "alice"))
            .with_child(Element::text_element("value", "43"))
    }

    #[test]
    fn child_lookup_by_local_and_qualified_name() {
        let e = sample();
        assert_eq!(e.child_text("value"), Some("42"));
        assert_eq!(e.child_text("owner"), Some("alice"));
        assert!(e.child(&QName::local("value")).is_some());
        assert!(e.child(&QName::new(ns::COUNTER, "value")).is_none());
    }

    #[test]
    fn children_named_returns_all_matches() {
        let e = sample();
        let vals: Vec<_> = e
            .children_named(&QName::local("value"))
            .map(|v| v.text())
            .collect();
        assert_eq!(vals, ["42", "43"]);
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = sample();
        assert_eq!(e.attr_local("id"), Some("c1"));
        e.set_attr("id", "c2");
        assert_eq!(e.attr_local("id"), Some("c2"));
        assert_eq!(e.attrs.len(), 1);
    }

    #[test]
    fn remove_children_counts() {
        let mut e = sample();
        assert_eq!(e.remove_children(&QName::local("value")), 2);
        assert_eq!(e.remove_children(&QName::local("value")), 0);
        assert!(e.child_local("owner").is_some());
    }

    #[test]
    fn child_parse_typed() {
        let e = sample();
        assert_eq!(e.child_parse::<i64>("value"), Some(42));
        assert_eq!(e.child_parse::<i64>("owner"), None);
    }

    #[test]
    fn find_descends() {
        let root = Element::new("a").with_child(Element::new("b").with_child(sample()));
        assert!(root.find(&QName::new(ns::COUNTER, "counter")).is_some());
        assert_eq!(root.find_local("owner").unwrap().text(), "alice");
        assert!(root.find(&QName::local("missing")).is_none());
    }

    #[test]
    fn subtree_size_counts_elements() {
        assert_eq!(sample().subtree_size(), 4);
        assert_eq!(Element::new("x").subtree_size(), 1);
    }

    #[test]
    fn set_text_replaces_children() {
        let mut e = sample();
        e.set_text("gone");
        assert_eq!(e.text(), "gone");
        assert_eq!(e.child_elements().count(), 0);
    }

    #[test]
    fn add_child_returns_mut_ref() {
        let mut e = Element::new("root");
        e.add_child(Element::new("kid")).set_attr("k", "v");
        assert_eq!(e.child_local("kid").unwrap().attr_local("k"), Some("v"));
    }
}
