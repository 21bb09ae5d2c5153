//! The `wsse:Security` header block, carried typed.
//!
//! Two thirds of a signed message is this one header, and its shape never
//! varies: a timestamp, the signer's certificate as a
//! `BinarySecurityToken`, and a `ds:Signature` over two digests. So it is
//! not an [`Element`](ogsa_xml::Element) tree. An [`Envelope`](crate::Envelope)
//! holds its nine variable values in a [`SignedBlock`]; the wire form is
//! written — into a buffer, or into a counter to price it — from a fixed
//! template ([`SecurityHeader::write_into`]) and read back straight off the
//! pull reader ([`read_security`]) without building a node.
//!
//! The accepted grammar is exactly what the template writes — same elements,
//! same order, no attributes but the two `URI`s, no character data between
//! elements, lower-case hex digests, canonical decimals. Any departure is
//! kept as [`SecurityHeader::Malformed`] with the reason, which verification
//! reports; only a document that is not well-formed XML is an error here.

use std::borrow::Cow;
use std::sync::Arc;

use ogsa_xml::{escape_runs, Event, Reader, Sink, XmlError, XmlResult};

use crate::vocab::vocab;

/// The fields of the signer's X.509 certificate that travel in the
/// `wsse:BinarySecurityToken`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Subject distinguished name, e.g. `CN=alice,O=UVA-VO`.
    pub subject_dn: String,
    /// Issuer DN.
    pub issuer_dn: String,
    /// Serial number, unique per issuer.
    pub serial: u64,
    /// Key identifier (hash of the simulated key material).
    pub key_id: String,
}

/// Everything a well-formed `wsse:Security` block says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedBlock {
    /// `wsu:Created`: the signer's clock, in microseconds.
    pub created: u64,
    pub certificate: Certificate,
    /// SHA-256 of the canonical Body payload (`ds:Reference URI="#Body"`).
    pub body_digest: [u8; 32],
    /// SHA-256 over the canonical non-security headers
    /// (`ds:Reference URI="#Headers"`).
    pub headers_digest: [u8; 32],
    /// The signature over the canonical `ds:SignedInfo`.
    pub signature_value: [u8; 32],
    /// `ds:KeyName`: which key signed.
    pub key_name: String,
}

/// An envelope's `wsse:Security` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityHeader {
    Signed(SignedBlock),
    /// A block arrived that departs from the grammar; the reason is for the
    /// fault message. Its content is not kept: written back out, it is an
    /// empty `<wsse:Security/>` (which reads as malformed again).
    Malformed(String),
}

/// The constant text of the block, split at its nine values: created,
/// subject, issuer, serial, key id, body digest, headers digest, signature
/// value, key name. The prefixes are the ones `ns::preferred_prefix` gives
/// these namespaces in every envelope, so these are the bytes the generic
/// writer produced for the tree form.
const SEAMS: [&str; 10] = [
    "<wsse:Security><wsu:Timestamp><wsu:Created>",
    "</wsu:Created></wsu:Timestamp><wsse:BinarySecurityToken><X509Certificate><Subject>",
    "</Subject><Issuer>",
    "</Issuer><Serial>",
    "</Serial><KeyId>",
    "</KeyId></X509Certificate></wsse:BinarySecurityToken><ds:Signature><ds:SignedInfo>\
     <ds:Reference URI=\"#Body\"><ds:DigestValue>",
    "</ds:DigestValue></ds:Reference><ds:Reference URI=\"#Headers\"><ds:DigestValue>",
    "</ds:DigestValue></ds:Reference></ds:SignedInfo><ds:SignatureValue>",
    "</ds:SignatureValue><ds:KeyInfo><ds:KeyName>",
    "</ds:KeyName></ds:KeyInfo></ds:Signature></wsse:Security>",
];

const MALFORMED_WIRE: &str = "<wsse:Security/>";

impl SecurityHeader {
    /// Write the block's wire form. The enclosing envelope must declare the
    /// `wsse`, `wsu` and `ds` prefixes (`wsse` alone when malformed).
    pub fn write_into<S: Sink>(&self, out: &mut S) {
        let b = match self {
            SecurityHeader::Signed(b) => b,
            SecurityHeader::Malformed(_) => return out.push_str(MALFORMED_WIRE),
        };
        out.push_str(SEAMS[0]);
        push_decimal(b.created, out);
        out.push_str(SEAMS[1]);
        escape_runs(&b.certificate.subject_dn, false, out);
        out.push_str(SEAMS[2]);
        escape_runs(&b.certificate.issuer_dn, false, out);
        out.push_str(SEAMS[3]);
        push_decimal(b.certificate.serial, out);
        out.push_str(SEAMS[4]);
        escape_runs(&b.certificate.key_id, false, out);
        out.push_str(SEAMS[5]);
        push_hex(&b.body_digest, out);
        out.push_str(SEAMS[6]);
        push_hex(&b.headers_digest, out);
        out.push_str(SEAMS[7]);
        push_hex(&b.signature_value, out);
        out.push_str(SEAMS[8]);
        escape_runs(&b.key_name, false, out);
        out.push_str(SEAMS[9]);
    }
}

/// Lower-case hex of a 32-byte digest, as it appears on the wire and in the
/// canonical `ds:SignedInfo`.
pub fn hex32(bytes: &[u8; 32]) -> [u8; 64] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0u8; 64];
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair[0] = DIGITS[(b >> 4) as usize];
        pair[1] = DIGITS[(b & 0x0f) as usize];
    }
    out
}

fn push_hex<S: Sink>(bytes: &[u8; 32], out: &mut S) {
    out.push_str(std::str::from_utf8(&hex32(bytes)).expect("hex digits are ASCII"));
}

/// Exactly 64 lower-case hex digits, or nothing: one digest has one
/// spelling, so a block that verifies cannot be re-spelled in flight.
fn unhex32(s: &str) -> Option<[u8; 32]> {
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    }
    let s = s.as_bytes();
    if s.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (b, pair) in out.iter_mut().zip(s.chunks_exact(2)) {
        *b = nibble(pair[0])? << 4 | nibble(pair[1])?;
    }
    Some(out)
}

fn push_decimal<S: Sink>(mut n: u64, out: &mut S) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// A `u64` in the one spelling [`push_decimal`] writes: digits only, no
/// sign, no leading zero.
fn undecimal(s: &str) -> Option<u64> {
    let canonical = s.len() <= 20
        && (s == "0" || (!s.starts_with('0') && s.bytes().all(|b| b.is_ascii_digit())));
    if canonical {
        s.parse().ok()
    } else {
        None
    }
}

/// Why reading a block stopped short: the document is broken, or it is
/// well-formed XML that is not a security block.
enum Stop {
    Xml(XmlError),
    Departure(String),
}

impl From<XmlError> for Stop {
    fn from(e: XmlError) -> Self {
        Stop::Xml(e)
    }
}

fn departure<T>(reason: impl Into<String>) -> Result<T, Stop> {
    Err(Stop::Departure(reason.into()))
}

/// Read a `wsse:Security` block whose start tag `reader` has just returned,
/// through its end tag, building no tree.
pub(crate) fn read_security(reader: &mut Reader<'_>) -> XmlResult<SecurityHeader> {
    let enclosing = reader.depth() - 1;
    match read_signed(&mut Block(&mut *reader)) {
        Ok(block) => Ok(SecurityHeader::Signed(block)),
        Err(Stop::Xml(e)) => Err(e),
        Err(Stop::Departure(reason)) => {
            reader.skip_to_depth(enclosing)?;
            Ok(SecurityHeader::Malformed(reason))
        }
    }
}

fn read_signed(b: &mut Block<'_, '_>) -> Result<SignedBlock, Stop> {
    let v = vocab();
    b.no_attrs("wsse:Security")?;

    b.open(Some(&v.wsu), "Timestamp")?;
    let created = b.leaf(Some(&v.wsu), "Created")?;
    let created = undecimal(&created).ok_or_else(|| bad_value("wsu:Created", &created))?;
    b.close("wsu:Timestamp")?;

    b.open(Some(&v.wsse), "BinarySecurityToken")?;
    b.open(None, "X509Certificate")?;
    let subject_dn = b.leaf(None, "Subject")?.into_owned();
    let issuer_dn = b.leaf(None, "Issuer")?.into_owned();
    let serial = b.leaf(None, "Serial")?;
    let serial = undecimal(&serial).ok_or_else(|| bad_value("Serial", &serial))?;
    let key_id = b.leaf(None, "KeyId")?.into_owned();
    b.close("X509Certificate")?;
    b.close("wsse:BinarySecurityToken")?;

    b.open(Some(&v.ds), "Signature")?;
    b.open(Some(&v.ds), "SignedInfo")?;
    let body_digest = b.reference("#Body")?;
    let headers_digest = b.reference("#Headers")?;
    b.close("ds:SignedInfo")?;
    let signature_value = b.digest_leaf("SignatureValue")?;
    b.open(Some(&v.ds), "KeyInfo")?;
    let key_name = b.leaf(Some(&v.ds), "KeyName")?.into_owned();
    b.close("ds:KeyInfo")?;
    b.close("ds:Signature")?;
    b.close("wsse:Security")?;

    Ok(SignedBlock {
        created,
        certificate: Certificate {
            subject_dn,
            issuer_dn,
            serial,
            key_id,
        },
        body_digest,
        headers_digest,
        signature_value,
        key_name,
    })
}

/// A value that is not in its one accepted spelling.
fn bad_value(what: &str, value: &str) -> Stop {
    Stop::Departure(format!(
        "{what} `{}` ({} bytes) is not in canonical form",
        shown(value),
        value.len()
    ))
}

/// A bounded piece of a name or value that arrived off the wire — it may be
/// a megabyte of hostile text, and the reason travels on in a fault.
fn shown(value: &str) -> String {
    value.chars().take(32).collect()
}

/// The grammar's primitives over the reader.
struct Block<'r, 'a>(&'r mut Reader<'a>);

impl<'a> Block<'_, 'a> {
    /// The next event that is not a comment (comments never reach a
    /// canonical form, so they cannot change what was signed).
    fn next(&mut self) -> Result<Event<'a>, Stop> {
        loop {
            match self.0.next()? {
                Event::Comment(_) => {}
                event => return Ok(event),
            }
        }
    }

    fn found(&self) -> String {
        let (uri, local) = self.0.name();
        match uri {
            Some(uri) => format!("<{{{}}}{}>", shown(uri), shown(local)),
            None => format!("<{}>", shown(local)),
        }
    }

    fn no_attrs(&self, what: &str) -> Result<(), Stop> {
        match self.0.attrs().first() {
            None => Ok(()),
            Some(a) => departure(format!(
                "unexpected attribute `{}` on {what}",
                shown(a.local)
            )),
        }
    }

    /// Expect the start tag of `{uri}local`; its attributes are the
    /// caller's to check.
    fn start(&mut self, uri: Option<&Arc<str>>, local: &str) -> Result<(), Stop> {
        match self.next()? {
            Event::Start if self.0.is_named(uri, local) => Ok(()),
            Event::Start => departure(format!("expected <{local}>, found {}", self.found())),
            Event::Text(_) => departure(format!("character data where <{local}> belongs")),
            _ => departure(format!("missing <{local}>")),
        }
    }

    /// Expect an attribute-less start tag.
    fn open(&mut self, uri: Option<&Arc<str>>, local: &str) -> Result<(), Stop> {
        self.start(uri, local)?;
        self.no_attrs(local)
    }

    /// Expect the end tag of `what`.
    fn close(&mut self, what: &str) -> Result<(), Stop> {
        match self.next()? {
            Event::End => Ok(()),
            Event::Start => departure(format!("unexpected {} in {what}", self.found())),
            _ => departure(format!("unexpected character data in {what}")),
        }
    }

    /// The character data up to the current element's end tag.
    fn text(&mut self, what: &str) -> Result<Cow<'a, str>, Stop> {
        let mut text = Cow::Borrowed("");
        loop {
            match self.next()? {
                Event::Text(t) if text.is_empty() => text = t,
                Event::Text(t) => text.to_mut().push_str(&t),
                Event::End => return Ok(text),
                _ => return departure(format!("unexpected {} in {what}", self.found())),
            }
        }
    }

    /// An attribute-less element holding only character data.
    fn leaf(&mut self, uri: Option<&Arc<str>>, local: &str) -> Result<Cow<'a, str>, Stop> {
        self.open(uri, local)?;
        self.text(local)
    }

    /// A `ds:` leaf holding one digest.
    fn digest_leaf(&mut self, local: &str) -> Result<[u8; 32], Stop> {
        let text = self.leaf(Some(&vocab().ds), local)?;
        unhex32(&text).ok_or_else(|| bad_value(local, &text))
    }

    /// `<ds:Reference URI="{uri}"><ds:DigestValue>…</ds:DigestValue></ds:Reference>`.
    fn reference(&mut self, uri: &str) -> Result<[u8; 32], Stop> {
        self.start(Some(&vocab().ds), "Reference")?;
        match self.0.attrs() {
            [a] if a.ns.is_none() && a.local == "URI" && a.value == uri => {}
            [a] if a.ns.is_none() && a.local == "URI" => {
                return departure(format!(
                    "expected reference URI {uri}, found `{}`",
                    shown(&a.value)
                ));
            }
            _ => return departure("ds:Reference takes exactly one attribute, URI"),
        }
        let digest = self.digest_leaf("DigestValue")?;
        self.close("ds:Reference")?;
        Ok(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_xml::ByteCount;

    #[test]
    fn decimals_have_one_spelling() {
        for n in [0, 7, 10, 99, 100, 1_234_567, u64::MAX] {
            let mut s = String::new();
            push_decimal(n, &mut s);
            assert_eq!(s, n.to_string());
            assert_eq!(ByteCount::of(|c| push_decimal(n, c)), s.len());
            assert_eq!(undecimal(&s), Some(n));
        }
        for bad in [
            "",
            "007",
            "+7",
            "-1",
            " 7",
            "7 ",
            "1e3",
            "18446744073709551616",
        ] {
            assert_eq!(undecimal(bad), None, "{bad:?}");
        }
        assert_eq!(undecimal(&"9".repeat(1 << 20)), None);
    }

    #[test]
    fn digests_have_one_spelling() {
        let bytes: [u8; 32] = std::array::from_fn(|i| (i * 9 + 3) as u8);
        let hex = hex32(&bytes);
        let hex = std::str::from_utf8(&hex).unwrap();
        assert_eq!(unhex32(hex), Some(bytes));
        assert_eq!(unhex32(&hex.to_uppercase()), None);
        assert_eq!(unhex32(&hex[1..]), None);
        assert_eq!(unhex32(&format!("{hex}0")), None);
        assert_eq!(unhex32(&hex.replacen('0', "g", 1)), None);
    }
}
