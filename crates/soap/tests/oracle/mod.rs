//! The tree oracle: the message path as it was before the security and
//! addressing blocks became typed — one `Element` tree per envelope, both
//! blocks built node by node, serialised by the generic writer, parsed by
//! the generic parser and read back by walking the tree. Test code only;
//! the differential suites (here and in `crates/security/tests`) hold the
//! template writers and the event reader to it, byte for byte.

#![allow(dead_code)] // each test binary uses its own part

pub mod corpus;

use std::sync::Arc;

use ogsa_soap::{AddressingHeader, Certificate, Envelope, SecurityHeader, SignedBlock};
use ogsa_xml::{ns, parse, Element, Node, QName, XmlError, XmlResult};

fn q(uri: &str, local: &str) -> QName {
    QName::new(uri, local)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The `wsse:Security` block as `sign_envelope` used to build it.
pub fn security_element(security: &SecurityHeader) -> Element {
    let b = match security {
        SecurityHeader::Signed(b) => b,
        SecurityHeader::Malformed(_) => return Element::new(q(ns::WSSE, "Security")),
    };
    let reference = |uri: &str, digest: &[u8; 32]| {
        Element::new(q(ns::DS, "Reference"))
            .with_attr("URI", uri)
            .with_child(Element::text_element(q(ns::DS, "DigestValue"), hex(digest)))
    };
    let signed_info = Element::new(q(ns::DS, "SignedInfo"))
        .with_child(reference("#Body", &b.body_digest))
        .with_child(reference("#Headers", &b.headers_digest));
    let signature = Element::new(q(ns::DS, "Signature"))
        .with_child(signed_info)
        .with_child(Element::text_element(
            q(ns::DS, "SignatureValue"),
            hex(&b.signature_value),
        ))
        .with_child(
            Element::new(q(ns::DS, "KeyInfo"))
                .with_child(Element::text_element(q(ns::DS, "KeyName"), &*b.key_name)),
        );
    let timestamp = Element::new(q(ns::WSU, "Timestamp")).with_child(Element::text_element(
        q(ns::WSU, "Created"),
        b.created.to_string(),
    ));
    let c = &b.certificate;
    let certificate = Element::new("X509Certificate")
        .with_child(Element::text_element("Subject", c.subject_dn.clone()))
        .with_child(Element::text_element("Issuer", c.issuer_dn.clone()))
        .with_child(Element::text_element("Serial", c.serial.to_string()))
        .with_child(Element::text_element("KeyId", &*c.key_id));
    Element::new(q(ns::WSSE, "Security"))
        .with_child(timestamp)
        .with_child(Element::new(q(ns::WSSE, "BinarySecurityToken")).with_child(certificate))
        .with_child(signature)
}

/// The addressing block as `MessageHeaders::apply` used to build it.
pub fn addressing_elements(block: &AddressingHeader) -> Vec<Element> {
    let leaf = |local: &str, text: &str| Element::text_element(q(ns::WSA, local), text);
    let mut trees = vec![
        leaf("To", &block.to),
        leaf("Action", &block.action),
        leaf("MessageID", &block.message_id),
    ];
    trees.extend(block.reply_to.clone());
    trees.extend(block.relates_to.as_deref().map(|r| leaf("RelatesTo", r)));
    trees
}

/// The block's filling rule, on the trees read: the leading `To`, `Action`
/// and `MessageID`, then a `ReplyTo`, then a `RelatesTo`, each in its place
/// and each leaf bare and holding one non-empty text — taken out of
/// `headers` into the block. Nothing is taken unless the three lead.
pub fn addressing_from_headers(headers: &mut Vec<Element>) -> Option<AddressingHeader> {
    let text = |at: usize, local: &str| -> Option<std::sync::Arc<str>> {
        let e = headers.get(at)?;
        if e.name != q(ns::WSA, local) || !e.attrs.is_empty() {
            return None;
        }
        match e.children.as_slice() {
            [Node::Text(t)] if !t.is_empty() => Some(t.as_str().into()),
            _ => None,
        }
    };
    let mut block = AddressingHeader {
        to: text(0, "To")?,
        action: text(1, "Action")?,
        message_id: text(2, "MessageID")?,
        reply_to: None,
        relates_to: None,
    };
    let mut taken = 3;
    if headers
        .get(taken)
        .is_some_and(|h| h.name == q(ns::WSA, "ReplyTo"))
    {
        block.reply_to = Some(headers[taken].clone());
        taken += 1;
    }
    if let Some(r) = text(taken, "RelatesTo") {
        block.relates_to = Some(r);
        taken += 1;
    }
    headers.drain(..taken);
    Some(block)
}

/// `e` as it was before a subtree could be shared: every `Node::Shared`
/// copied out into an owned element, all the way down.
pub fn owned(e: &Element) -> Element {
    let children = e.children.iter().map(|n| match n.as_element() {
        Some(child) => Node::Element(owned(child)),
        None => n.clone(),
    });
    Element {
        name: e.name.clone(),
        attrs: e.attrs.clone(),
        children: children.collect(),
    }
}

/// The full `<soap:Envelope>` tree, the addressing block first among the
/// headers (where stamping pushed it), the security block last (where
/// signing pushed it), nothing in it shared.
pub fn envelope_element(env: &Envelope) -> Element {
    let mut root = Element::new(q(ns::SOAP, "Envelope"));
    if env.addressing.is_some() || !env.headers.is_empty() || env.security.is_some() {
        let mut header = Element::new(q(ns::SOAP, "Header"));
        for h in env.addressing.iter().flat_map(addressing_elements) {
            header.add_child(h);
        }
        for h in &env.headers {
            header.add_child(owned(h));
        }
        if let Some(security) = &env.security {
            header.add_child(security_element(security));
        }
        root.add_child(header);
    }
    root.add_child(Element::new(q(ns::SOAP, "Body")).with_child(owned(&env.body)));
    root
}

/// The wire form by way of the tree and the generic writer.
pub fn to_wire(env: &Envelope) -> String {
    envelope_element(env).into_document_string()
}

/// Parse-then-extract: the generic parser's tree, taken apart, the
/// addressing block filled from the headers it can hold.
pub fn from_wire(wire: &str) -> XmlResult<Envelope> {
    let mut env = trees_from_wire(wire)?;
    env.addressing = addressing_from_headers(&mut env.headers);
    Ok(env)
}

/// Every header but `wsse:Security` a tree, as the parent read them.
pub fn trees_from_wire(wire: &str) -> XmlResult<Envelope> {
    envelope_from_document(parse(wire)?)
}

fn schema<T>(message: &str) -> XmlResult<T> {
    Err(XmlError::Schema(message.to_owned()))
}

pub fn envelope_from_document(root: Element) -> XmlResult<Envelope> {
    if root.name != q(ns::SOAP, "Envelope") {
        return schema("not an envelope");
    }
    let (header_name, body_name) = (q(ns::SOAP, "Header"), q(ns::SOAP, "Body"));
    let security_name = q(ns::WSSE, "Security");
    let mut headers = Vec::new();
    let mut security = None;
    let mut saw_header = false;
    let mut body = None;
    for child in root.children.into_iter().filter_map(into_element) {
        if child.name == header_name {
            if std::mem::replace(&mut saw_header, true) {
                return schema("second Header");
            }
            for block in child.children.into_iter().filter_map(into_element) {
                if block.name != security_name {
                    headers.push(block);
                } else if security.is_some() {
                    security = Some(SecurityHeader::Malformed("second Security".into()));
                } else {
                    security = Some(security_from_element(&block));
                }
            }
        } else if child.name == body_name {
            if body.is_some() {
                return schema("second Body");
            }
            let mut payloads = child.children.into_iter().filter_map(into_element);
            let payload = payloads.next();
            if payloads.next().is_some() {
                return schema("second Body payload");
            }
            body = Some(payload);
        }
    }
    match body {
        None => schema("no Body"),
        Some(None) => schema("empty Body"),
        Some(Some(body)) => Ok(Envelope {
            addressing: None,
            headers,
            body,
            security,
        }),
    }
}

fn into_element(node: Node) -> Option<Element> {
    match node {
        Node::Element(e) => Some(e),
        Node::Shared(e) => Some(Arc::unwrap_or_clone(e)),
        _ => None,
    }
}

/// The security block's grammar, checked on the tree.
pub fn security_from_element(e: &Element) -> SecurityHeader {
    match signed_from_element(e) {
        Ok(block) => SecurityHeader::Signed(block),
        Err(reason) => SecurityHeader::Malformed(reason),
    }
}

/// `e`'s child elements, if it is named `name`, has exactly the attributes
/// `attrs` (unqualified) and holds elements and comments only.
fn branch<'e>(
    e: &'e Element,
    name: QName,
    attrs: &[(&str, &str)],
    arity: usize,
) -> Result<Vec<&'e Element>, String> {
    if e.name != name {
        return Err(format!("expected {name:?}, found {:?}", e.name));
    }
    let found: Vec<_> = e
        .attrs
        .iter()
        .map(|a| (a.name.ns.is_none(), &*a.name.local, a.value.as_str()))
        .collect();
    let wanted: Vec<_> = attrs.iter().map(|&(k, v)| (true, k, v)).collect();
    if found != wanted {
        return Err(format!("attributes of {name:?}"));
    }
    let mut kids = Vec::new();
    for child in &e.children {
        match child {
            Node::Element(k) => kids.push(k),
            Node::Shared(k) => kids.push(k),
            Node::Comment(_) => {}
            Node::Text(_) => return Err(format!("text in {name:?}")),
        }
    }
    if kids.len() != arity {
        return Err(format!("{name:?} has {} children", kids.len()));
    }
    Ok(kids)
}

/// The text of an attribute-less, element-less `e` named `name`.
fn leaf(e: &Element, name: QName) -> Result<String, String> {
    if e.name != name || !e.attrs.is_empty() {
        return Err(format!("expected bare {name:?}, found {:?}", e.name));
    }
    let mut text = String::new();
    for child in &e.children {
        match child {
            Node::Text(t) => text.push_str(t),
            Node::Comment(_) => {}
            Node::Element(k) => return Err(format!("{:?} inside {name:?}", k.name)),
            Node::Shared(k) => return Err(format!("{:?} inside {name:?}", k.name)),
        }
    }
    Ok(text)
}

fn decimal(s: &str) -> Result<u64, String> {
    match s.parse::<u64>() {
        Ok(n) if n.to_string() == s => Ok(n),
        _ => Err("not a canonical decimal".into()),
    }
}

fn digest(s: &str) -> Result<[u8; 32], String> {
    let lower_hex = s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if s.len() != 64 || !lower_hex {
        return Err("not a digest".into());
    }
    let mut out = [0u8; 32];
    for (i, b) in out.iter_mut().enumerate() {
        *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

fn signed_from_element(e: &Element) -> Result<SignedBlock, String> {
    let top = branch(e, q(ns::WSSE, "Security"), &[], 3)?;

    let timestamp = branch(top[0], q(ns::WSU, "Timestamp"), &[], 1)?;
    let created = decimal(&leaf(timestamp[0], q(ns::WSU, "Created"))?)?;

    let token = branch(top[1], q(ns::WSSE, "BinarySecurityToken"), &[], 1)?;
    let cert = branch(token[0], QName::local("X509Certificate"), &[], 4)?;
    let certificate = Arc::new(Certificate {
        subject_dn: leaf(cert[0], QName::local("Subject"))?,
        issuer_dn: leaf(cert[1], QName::local("Issuer"))?,
        serial: decimal(&leaf(cert[2], QName::local("Serial"))?)?,
        key_id: leaf(cert[3], QName::local("KeyId"))?.into(),
    });

    let signature = branch(top[2], q(ns::DS, "Signature"), &[], 3)?;
    let signed_info = branch(signature[0], q(ns::DS, "SignedInfo"), &[], 2)?;
    let reference = |e: &Element, uri: &str| {
        let kids = branch(e, q(ns::DS, "Reference"), &[("URI", uri)], 1)?;
        digest(&leaf(kids[0], q(ns::DS, "DigestValue"))?)
    };
    let body_digest = reference(signed_info[0], "#Body")?;
    let headers_digest = reference(signed_info[1], "#Headers")?;
    let signature_value = digest(&leaf(signature[1], q(ns::DS, "SignatureValue"))?)?;
    let key_info = branch(signature[2], q(ns::DS, "KeyInfo"), &[], 1)?;
    let key_name = leaf(key_info[0], q(ns::DS, "KeyName"))?;

    Ok(SignedBlock {
        created,
        certificate,
        body_digest,
        headers_digest,
        signature_value,
        key_name: key_name.into(),
    })
}
