//! # ogsa-xml
//!
//! A self-contained XML infoset for the OGSA stack reproduction: qualified
//! names with interned namespaces, an element tree, a namespace-aware pull
//! reader and the tree-building parser over it, a prefix-managing writer, a deterministic canonical form (used by
//! WS-Security signing), and an XPath-subset engine (used by WSRF
//! `QueryResourceProperties`, WS-Notification/WS-Eventing message filters,
//! and the Xindice-analogue XML database).
//!
//! The paper's substrate (ASP.NET + .NET XML APIs) is replaced by this crate;
//! every SOAP message in the simulation is a real XML document that is
//! serialised and re-parsed on each hop, so message size and parse cost are
//! genuine, not modelled.
//!
//! ## Quick example
//!
//! ```
//! use ogsa_xml::{Element, QName, parse};
//!
//! let doc = Element::new(QName::local("counter"))
//!     .with_child(Element::new(QName::local("value")).with_text("41"))
//!     .into_document_string();
//! let tree = parse(&doc).unwrap();
//! assert_eq!(tree.child_text("value"), Some("41"));
//! ```

pub mod canonical;
pub mod error;
pub mod escape;
pub mod name;
pub mod node;
pub mod parser;
pub mod pool;
pub mod reader;
mod scan;
pub mod writer;
pub mod xpath;

pub use canonical::{canonicalize, canonicalize_into};
pub use error::{XmlError, XmlResult};
pub use escape::{escape_runs, unescape};
pub use name::{intern, interned_len, ns, Memo, QName, INTERN_CAPACITY};
pub use node::{Attribute, Element, Node};
pub use parser::{build_subtree, parse};
pub use pool::{collect_pooled, pooled_string, PooledString};
pub use reader::{Event, RawAttr, Reader, MAX_DEPTH, MAX_TAG_ATTRS};
/// The name the canonicaliser's consumers know [`Sink`] by.
pub use writer::Sink as CanonSink;
pub use writer::{
    document_len, element_len, write_document, write_document_into, write_element, write_into,
    ByteCount, Prefixes, PrefixesBuilder, Sink, XML_DECL,
};
pub use xpath::{XPath, XPathContext, XPathValue};
