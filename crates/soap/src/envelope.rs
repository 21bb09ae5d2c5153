//! The SOAP envelope: header blocks plus exactly one body element.

use ogsa_xml::writer::write_subtree_into;
use ogsa_xml::{
    build_subtree, collect_pooled, parse, ByteCount, Element, Event, Prefixes, PrefixesBuilder,
    QName, Reader, Sink, XmlError, XmlResult, XML_DECL,
};

use crate::addressing::{self, AddressingHeader};
use crate::fault::Fault;
use crate::security::{read_security, SecurityHeader};
use crate::vocab::vocab;

/// A SOAP message: zero or more header blocks and one body payload element.
///
/// The body holds a single element (doc/literal style); an empty-response
/// convention uses an empty element named by the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The WS-Addressing headers, typed ([`crate::addressing`]): not among
    /// `headers`, and first on the wire.
    pub addressing: Option<AddressingHeader>,
    /// Every other header block except `wsse:Security`.
    pub headers: Vec<Element>,
    pub body: Element,
    /// The `wsse:Security` header, carried typed instead of as a tree: it
    /// is not among `headers`, [`Envelope::header`] does not find it, and
    /// on the wire it follows them.
    pub security: Option<SecurityHeader>,
}

impl Envelope {
    /// An envelope wrapping `body` with no headers.
    pub fn new(body: Element) -> Self {
        Envelope {
            addressing: None,
            headers: Vec::new(),
            body,
            security: None,
        }
    }

    /// Add the addressing headers after any already present (builder style):
    /// typed when they come first, else as trees, to keep their wire place.
    pub fn with_addressing(mut self, block: AddressingHeader) -> Self {
        if self.addressing.is_none() && self.headers.is_empty() {
            self.addressing = Some(block);
        } else {
            self.headers.extend(block.into_trees());
        }
        self
    }

    /// Add a header block (builder style).
    pub fn with_header(mut self, header: Element) -> Self {
        self.headers.push(header);
        self
    }

    /// First header among `headers` with the given qualified name.
    pub fn header(&self, name: &QName) -> Option<&Element> {
        self.headers.iter().find(|h| h.name == *name)
    }

    /// Remove the first header with the given name, returning it. Asked for
    /// `wsse:Security`, it strips the typed block and returns the tree that
    /// block reads as.
    pub fn take_header(&mut self, name: &QName) -> Option<Element> {
        if *name == vocab().security {
            return self.security.take().and_then(|s| security_tree(&s));
        }
        let idx = self.headers.iter().position(|h| h.name == *name)?;
        Some(self.headers.remove(idx))
    }

    /// True if the body is a SOAP fault.
    pub fn is_fault(&self) -> bool {
        self.body.name == vocab().fault
    }

    /// Decode the body as a [`Fault`], if it is one.
    pub fn fault(&self) -> Option<Fault> {
        if self.is_fault() {
            Fault::from_element(&self.body).ok()
        } else {
            None
        }
    }

    /// Serialise to the wire (document string).
    pub fn to_wire(&self) -> String {
        collect_pooled(|out| self.write_wire(out))
    }

    /// Serialise to the wire into an existing buffer: [`Envelope::write_wire`]
    /// under the signature a `PooledString` dereferences to.
    pub fn to_wire_into(&self, out: &mut String) {
        self.write_wire(out);
    }

    /// Wire size in bytes — the quantity the transport's bandwidth and
    /// signing cost models consume: the wire form written into a counter,
    /// so it is `to_wire().len()` by construction and nothing is
    /// serialised.
    pub fn wire_size(&self) -> usize {
        ByteCount::of(|n| self.write_wire(n))
    }

    /// The wire form, into any sink: the `<soap:Envelope>`/`<soap:Header>`/
    /// `<soap:Body>` wrappers written by hand around the *borrowed* header
    /// and body subtrees and the security block's template. These are the
    /// bytes the generic writer gives for the same message built as one
    /// tree (same URI set, so the same deterministic prefix assignment).
    pub fn write_wire<S: Sink>(&self, out: &mut S) {
        let p = self.wire_prefixes();
        let sp = p.prefix_for(&vocab().soap);
        let tag = |out: &mut S, open: &str, name: &str| {
            out.push_str(open);
            out.push_str(sp);
            out.push_str(name);
        };
        out.push_str(XML_DECL);
        tag(out, "<", ":Envelope");
        p.write_declarations(out);
        out.push_str(">");
        if self.has_header_element() {
            tag(out, "<", ":Header>");
            if let Some(addressing) = &self.addressing {
                addressing.write_into(&p, out);
            }
            for h in &self.headers {
                write_subtree_into(h, &p, out);
            }
            if let Some(security) = &self.security {
                security.write_into(out);
            }
            tag(out, "</", ":Header>");
        }
        tag(out, "<", ":Body>");
        write_subtree_into(&self.body, &p, out);
        tag(out, "</", ":Body>");
        tag(out, "</", ":Envelope>");
    }

    fn has_header_element(&self) -> bool {
        self.addressing.is_some() || !self.headers.is_empty() || self.security.is_some()
    }

    /// The deterministic prefix assignment for this envelope's wire form:
    /// the SOAP namespace (for the wrappers), the addressing block's, every
    /// URI in the headers and body, and the security block's three — the set
    /// the whole message has as one tree.
    fn wire_prefixes(&self) -> Prefixes {
        let v = vocab();
        let mut b = PrefixesBuilder::new();
        b.add_uri(&v.soap);
        if let Some(addressing) = &self.addressing {
            b.add_uri(&v.wsa);
            addressing.reply_to.iter().for_each(|r| b.add_tree(r));
        }
        for h in &self.headers {
            b.add_tree(h);
        }
        match &self.security {
            Some(SecurityHeader::Signed(_)) => {
                b.add_uri(&v.wsse);
                b.add_uri(&v.wsu);
                b.add_uri(&v.ds);
            }
            Some(SecurityHeader::Malformed(_)) => b.add_uri(&v.wsse),
            None => {}
        }
        b.add_tree(&self.body);
        let p = b.build();
        // The blocks' templates spell their prefixes out.
        debug_assert!(
            (self.security.is_none() || p.prefix_for(&v.wsse) == "wsse")
                && (self.addressing.is_none() || p.prefix_for(&v.wsa) == "wsa"),
            "a preferred prefix was displaced"
        );
        p
    }

    /// Parse an envelope off the wire, straight from the reader's events:
    /// trees are built for the ordinary header blocks and the Body payload
    /// only; the addressing and `wsse:Security` blocks are read typed.
    ///
    /// `soap:Header`, `soap:Body` and the element inside the Body must each
    /// appear at most once — a second one would ride along outside the
    /// signature — and are an [`XmlError::Schema`] otherwise. A second
    /// `wsse:Security` makes the security header malformed.
    pub fn from_wire(wire: &str) -> XmlResult<Self> {
        let soap = &vocab().soap;
        let mut reader = Reader::new(wire);
        let root_is_envelope =
            matches!(reader.next()?, Event::Start) && reader.is_named(Some(soap), "Envelope");
        if !root_is_envelope {
            let (uri, local) = reader.name();
            let uri = uri.map(|u| format!("{{{u}}}")).unwrap_or_default();
            return Err(XmlError::Schema(format!(
                "expected soap:Envelope, found {uri}{local}"
            )));
        }
        let mut headers = Vec::new();
        let mut addressing = None;
        let mut security = None;
        let mut saw_header = false;
        let mut body = None;
        loop {
            match reader.next()? {
                Event::Start if reader.is_named(Some(soap), "Header") => {
                    if std::mem::replace(&mut saw_header, true) {
                        return Err(XmlError::Schema("more than one soap:Header".into()));
                    }
                    read_header_blocks(&mut reader, &mut headers, &mut addressing, &mut security)?;
                }
                Event::Start if reader.is_named(Some(soap), "Body") => {
                    if body.is_some() {
                        return Err(XmlError::Schema("more than one soap:Body".into()));
                    }
                    body = Some(read_body_payload(&mut reader)?);
                }
                Event::Start => reader.skip_to_depth(1)?,
                Event::End => break,
                _ => {}
            }
        }
        // Nothing but comments and whitespace may follow the envelope.
        reader.next()?;
        let body = body.ok_or_else(|| XmlError::Schema("envelope has no soap:Body".into()))?;
        Ok(Envelope {
            addressing,
            headers,
            body,
            security,
        })
    }
}

/// The children of a `soap:Header` whose start tag was just read.
fn read_header_blocks(
    reader: &mut Reader<'_>,
    headers: &mut Vec<Element>,
    addressing: &mut Option<AddressingHeader>,
    security: &mut Option<SecurityHeader>,
) -> XmlResult<()> {
    let wsse = &vocab().wsse;
    loop {
        match reader.next()? {
            Event::Start if reader.is_named(Some(wsse), "Security") => {
                let block = read_security(reader)?;
                *security = Some(match security {
                    None => block,
                    Some(_) => {
                        SecurityHeader::Malformed("more than one wsse:Security header".into())
                    }
                });
            }
            Event::Start if headers.is_empty() && addressing::read_template(reader, addressing) => {
            }
            Event::Start => headers.push(build_subtree(reader)?),
            Event::End => {
                addressing::fold(headers, addressing);
                return Ok(());
            }
            _ => {}
        }
    }
}

/// The one element inside a `soap:Body` whose start tag was just read.
fn read_body_payload(reader: &mut Reader<'_>) -> XmlResult<Element> {
    let mut payload = None;
    loop {
        match reader.next()? {
            Event::Start => {
                if payload.is_some() {
                    return Err(XmlError::Schema(
                        "soap:Body holds more than one element".into(),
                    ));
                }
                payload = Some(build_subtree(reader)?);
            }
            Event::End => {
                return payload.ok_or_else(|| XmlError::Schema("soap:Body is empty".into()))
            }
            _ => {}
        }
    }
}

/// The tree a security block reads as: its own wire form, parsed. Only
/// [`Envelope::take_header`] wants one. Always `Some`, as the differential
/// suite checks: the template is well-formed under the three declarations.
fn security_tree(security: &SecurityHeader) -> Option<Element> {
    let v = vocab();
    let mut doc = format!(
        "<x xmlns:wsse=\"{}\" xmlns:wsu=\"{}\" xmlns:ds=\"{}\">",
        v.wsse, v.wsu, v.ds
    );
    security.write_into(&mut doc);
    doc.push_str("</x>");
    let mut wrapper = parse(&doc).ok()?;
    let block = wrapper.child_elements_mut().next();
    block.map(std::mem::take)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_xml::{ns, Element};

    fn sample() -> Envelope {
        Envelope::new(Element::text_element("Ping", "hello"))
            .with_header(Element::new(QName::new(ns::WSA, "Action")).with_text("urn:ping"))
            .with_header(Element::new(QName::new(ns::WSA, "To")).with_text("http://host/svc"))
    }

    #[test]
    fn wire_roundtrip() {
        let env = sample();
        let back = Envelope::from_wire(&env.to_wire()).unwrap();
        assert_eq!(env, back);
    }

    /// Equality is structural: the typed block and its tree spelling write
    /// the same bytes but are different values. Off the wire both read as
    /// the block; stamped behind another header, the block is trees.
    #[test]
    fn a_block_and_its_tree_spelling_write_alike_but_are_not_equal() {
        let block = AddressingHeader {
            to: "http://host/svc".into(),
            action: "urn:ping".into(),
            message_id: "m-1".into(),
            reply_to: None,
            relates_to: Some("m-0".into()),
        };
        let typed = Envelope::new(Element::new("Ping")).with_addressing(block.clone());
        let mut trees = Envelope::new(Element::new("Ping"));
        trees.headers = block.clone().into_trees();
        assert_eq!(typed.to_wire(), trees.to_wire());
        assert_ne!(typed, trees);
        assert_eq!(Envelope::from_wire(&trees.to_wire()).unwrap(), typed);

        let behind = Envelope::new(Element::new("Ping"))
            .with_header(Element::new("Other"))
            .with_addressing(block.clone());
        assert_eq!(behind.addressing, None);
        assert_eq!(behind.headers[1..], block.into_trees()[..]);
    }

    #[test]
    fn header_lookup() {
        let env = sample();
        let action = QName::new(ns::WSA, "Action");
        assert_eq!(env.header(&action).unwrap().text(), "urn:ping");
        assert!(env.header(&QName::new(ns::WSA, "ReplyTo")).is_none());
    }

    #[test]
    fn take_header_removes() {
        let mut env = sample();
        let action = QName::new(ns::WSA, "Action");
        assert!(env.take_header(&action).is_some());
        assert!(env.header(&action).is_none());
        assert_eq!(env.headers.len(), 1);
    }

    #[test]
    fn headerless_envelope_omits_header_element() {
        let env = Envelope::new(Element::new("X"));
        let wire = env.to_wire();
        assert!(!wire.contains("Header"));
        assert_eq!(Envelope::from_wire(&wire).unwrap(), env);
    }

    #[test]
    fn from_wire_rejects_non_envelopes() {
        assert!(Envelope::from_wire("<NotSoap/>").is_err());
        let no_body = format!("<s:Envelope xmlns:s=\"{}\"/>", ns::SOAP);
        assert!(Envelope::from_wire(&no_body).is_err());
        let empty_body = format!(
            "<s:Envelope xmlns:s=\"{0}\"><s:Body/></s:Envelope>",
            ns::SOAP
        );
        assert!(Envelope::from_wire(&empty_body).is_err());
    }

    #[test]
    fn duplicated_envelope_parts_are_schema_errors() {
        let wire = |inner: &str| {
            format!(
                "<s:Envelope xmlns:s=\"{}\" xmlns:a=\"{}\">{inner}</s:Envelope>",
                ns::SOAP,
                ns::WSA
            )
        };
        let header = "<s:Header><a:To>t</a:To></s:Header>";
        let body = "<s:Body><Ping/></s:Body>";
        assert!(Envelope::from_wire(&wire(&format!("{header}{body}"))).is_ok());
        for smuggled in [
            format!("{header}{header}{body}"),
            format!("{header}{body}{body}"),
            format!("{body}{header}{header}"),
            format!("{header}<s:Body><Ping/><Pong/></s:Body>"),
        ] {
            assert!(
                matches!(
                    Envelope::from_wire(&wire(&smuggled)),
                    Err(XmlError::Schema(_))
                ),
                "{smuggled}"
            );
        }
    }

    /// One start tag of 100 000 attributes — under a server's body limit —
    /// is refused at its 257th, not compared pairwise.
    #[test]
    fn an_attribute_flood_is_a_parse_error() {
        let flood: String = (0..100_000).map(|i| format!(" a{i}=\"\"")).collect();
        for wire in [
            format!(
                "<s:Envelope xmlns:s=\"{}\"><s:Body><Ping{flood}/></s:Body></s:Envelope>",
                ns::SOAP
            ),
            format!(
                "<s:Envelope xmlns:s=\"{}\"{flood}><s:Body><Ping/></s:Body></s:Envelope>",
                ns::SOAP
            ),
        ] {
            assert!(matches!(
                Envelope::from_wire(&wire),
                Err(XmlError::Parse { .. })
            ));
        }
    }

    #[test]
    fn unknown_envelope_children_are_dropped_and_still_checked() {
        let wire = |extra: &str| {
            format!(
                "<s:Envelope xmlns:s=\"{}\">{extra}<s:Body><Ping/></s:Body></s:Envelope>",
                ns::SOAP
            )
        };
        let env = Envelope::from_wire(&wire("<Other><Deep>x</Deep></Other>")).unwrap();
        assert_eq!(env, Envelope::new(Element::new("Ping")));
        assert!(Envelope::from_wire(&wire("<Other><Deep></Other>")).is_err());
        assert!(Envelope::from_wire(&format!("{}trailing", wire(""))).is_err());
    }

    #[test]
    fn to_wire_into_appends() {
        let env = sample();
        let mut buf = String::from("xx");
        env.to_wire_into(&mut buf);
        assert_eq!(buf, format!("xx{}", env.to_wire()));
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = Envelope::new(Element::text_element("A", "x"));
        let big = Envelope::new(Element::text_element("A", "x".repeat(1000)));
        assert!(big.wire_size() > small.wire_size() + 900);
    }

    #[test]
    fn fault_detection() {
        let f = Fault::client("bad request");
        let env = Envelope::new(f.to_element());
        assert!(env.is_fault());
        assert_eq!(env.fault().unwrap().reason, "bad request");
        assert!(sample().fault().is_none());
    }
}
