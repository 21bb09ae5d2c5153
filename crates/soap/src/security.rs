//! The `wsse:Security` header block, carried typed.
//!
//! Two thirds of a signed message is this one header, and its shape never
//! varies: a timestamp, the signer's certificate as a
//! `BinarySecurityToken`, and a `ds:Signature` over two digests. So it is
//! not an [`Element`](ogsa_xml::Element) tree. An [`Envelope`](crate::Envelope)
//! holds its nine variable values in a [`SignedBlock`]; the wire form is
//! written — into a buffer, or into a counter to price it — from a fixed
//! template ([`SecurityHeader::write_into`]) and read back straight off the
//! pull reader ([`read_security`]) without building a node: against that
//! same template when the bytes are the template's, event by event when
//! they are not.
//!
//! The accepted grammar is exactly what the template writes — same elements,
//! same order, no attributes but the two `URI`s, no character data between
//! elements, lower-case hex digests, canonical decimals — under whatever
//! prefixes, comments and entity spellings XML allows it. Any departure is
//! kept as [`SecurityHeader::Malformed`] with the reason, which verification
//! reports; only a document that is not well-formed XML is an error here.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;

use ogsa_xml::{escape_runs, Event, Memo, Reader, Sink, XmlError, XmlResult};

use crate::addressing::MEMO_MAX_LEN;
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
    /// Key identifier (hash of the simulated key material), shared by every
    /// block's `ds:KeyName` that names it.
    pub key_id: Arc<str>,
}

/// Everything a well-formed `wsse:Security` block says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedBlock {
    /// `wsu:Created`: the signer's clock, in microseconds.
    pub created: u64,
    /// Shared with the identity that signed: every message a sender signs
    /// carries the same certificate.
    pub certificate: Arc<Certificate>,
    /// SHA-256 of the canonical Body payload (`ds:Reference URI="#Body"`).
    pub body_digest: [u8; 32],
    /// SHA-256 over the canonical non-security headers
    /// (`ds:Reference URI="#Headers"`).
    pub headers_digest: [u8; 32],
    /// The signature over the canonical `ds:SignedInfo`.
    pub signature_value: [u8; 32],
    /// `ds:KeyName`: which key signed.
    pub key_name: Arc<str>,
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
    out.push_str(ascii(&hex32(bytes)));
}

/// Digits as the `str` they are. Callers pass ASCII only, so nothing is
/// ever dropped: every digest and number the wire tests write reads back.
fn ascii(digits: &[u8]) -> &str {
    std::str::from_utf8(digits).unwrap_or_default()
}

/// Exactly 64 lower-case hex digits, or nothing: one digest has one
/// spelling, so a block that verifies cannot be re-spelled in flight.
fn unhex32(digits: &[u8]) -> Option<[u8; 32]> {
    /// A digit's value; every other byte has a bit above the low four set.
    const NIBBLE: [u8; 256] = {
        let mut table = [0xff; 256];
        let mut value = 0;
        while value < 16 {
            table[b"0123456789abcdef"[value] as usize] = value as u8;
            value += 1;
        }
        table
    };
    let digits: &[u8; 64] = digits.try_into().ok()?;
    let mut out = [0u8; 32];
    let mut seen = 0;
    for (b, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
        let (high, low) = (NIBBLE[pair[0] as usize], NIBBLE[pair[1] as usize]);
        seen |= high | low;
        *b = high << 4 | low;
    }
    (seen < 16).then_some(out)
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
    out.push_str(ascii(&buf[at..]));
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
///
/// Nearly every block that arrives was written by [`SecurityHeader::write_into`],
/// so it is first held against [`SEAMS`] itself; a block that differs from
/// the template in any byte is read by the grammar, which alone decides what
/// is accepted and words every refusal.
pub(crate) fn read_security(reader: &mut Reader<'_>) -> XmlResult<SecurityHeader> {
    match read_by_template(reader) {
        Some(block) => Ok(SecurityHeader::Signed(block)),
        None => read_by_grammar(reader),
    }
}

/// The block as the template wrote it, or nothing read at all.
fn read_by_template(reader: &mut Reader<'_>) -> Option<SignedBlock> {
    let v = vocab();
    let prefixes = [("wsse", &v.wsse), ("wsu", &v.wsu), ("ds", &v.ds)];
    reader.read_template(&SEAMS, &prefixes, |values: [&str; 9]| {
        let [created, subject_dn, issuer_dn, serial, key_id, body, headers, value, key_name] =
            values;
        let (created, serial) = (undecimal(created)?, undecimal(serial)?);
        let (body_digest, headers_digest) =
            (unhex32(body.as_bytes())?, unhex32(headers.as_bytes())?);
        let (certificate, key_name) = signer([subject_dn, issuer_dn, key_id], serial, key_name);
        Some(SignedBlock {
            created,
            certificate,
            body_digest,
            headers_digest,
            signature_value: unhex32(value.as_bytes())?,
            key_name,
        })
    })
}

/// Senders a thread tells apart without allocating.
const CERTIFICATE_MEMO_SLOTS: usize = 64;

thread_local! {
    static CERTIFICATES: RefCell<Memo<Arc<Certificate>, CERTIFICATE_MEMO_SLOTS>> =
        const { RefCell::new(Memo::EMPTY) };
}

/// The certificate and key name a block names, shared with the last block
/// this thread read from the same sender: a sender's blocks all carry them.
fn signer(texts: [&str; 3], serial: u64, key_name: &str) -> (Arc<Certificate>, Arc<str>) {
    let [subject_dn, issuer_dn, key_id] = texts;
    let same = |c: &Arc<Certificate>| {
        c.serial == serial && [&*c.subject_dn, &c.issuer_dn, &c.key_id] == texts
    };
    let build = || {
        let (subject_dn, issuer_dn) = (subject_dn.into(), issuer_dn.into());
        Arc::new(Certificate {
            subject_dn,
            issuer_dn,
            serial,
            key_id: key_id.into(),
        })
    };
    let short = |_: &_| texts.iter().map(|t| t.len()).sum::<usize>() <= MEMO_MAX_LEN;
    let cert = CERTIFICATES.with_borrow_mut(|m| m.get_or(key_id, same, build, short));
    let key_name = if *cert.key_id == *key_name {
        cert.key_id.clone()
    } else {
        key_name.into()
    };
    (cert, key_name)
}

fn read_by_grammar(reader: &mut Reader<'_>) -> XmlResult<SecurityHeader> {
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
    let subject_dn = b.leaf(None, "Subject")?;
    let issuer_dn = b.leaf(None, "Issuer")?;
    let serial = b.leaf(None, "Serial")?;
    let serial = undecimal(&serial).ok_or_else(|| bad_value("Serial", &serial))?;
    let key_id = b.leaf(None, "KeyId")?;
    b.close("X509Certificate")?;
    b.close("wsse:BinarySecurityToken")?;

    b.open(Some(&v.ds), "Signature")?;
    b.open(Some(&v.ds), "SignedInfo")?;
    let body_digest = b.reference("#Body")?;
    let headers_digest = b.reference("#Headers")?;
    b.close("ds:SignedInfo")?;
    let signature_value = b.digest_leaf("SignatureValue")?;
    b.open(Some(&v.ds), "KeyInfo")?;
    let key_name = b.leaf(Some(&v.ds), "KeyName")?;
    b.close("ds:KeyInfo")?;
    b.close("ds:Signature")?;
    b.close("wsse:Security")?;

    let (certificate, key_name) = signer([&subject_dn, &issuer_dn, &key_id], serial, &key_name);
    Ok(SignedBlock {
        created,
        certificate,
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
        unhex32(text.as_bytes()).ok_or_else(|| bad_value(local, &text))
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
#[allow(dead_code)] // the suites under tests/ use the rest
#[path = "../tests/oracle/corpus.rs"]
mod corpus;

#[cfg(test)]
mod tests {
    use super::corpus::{self, arb_parts, arb_text, between, edit};
    use super::*;
    use crate::Envelope;
    use ogsa_xml::{ns, ByteCount, Element};
    use proptest::prelude::*;

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
        let unhex32 = |s: &str| unhex32(s.as_bytes());
        assert_eq!(unhex32(hex), Some(bytes));
        assert_eq!(unhex32(&hex.to_uppercase()), None);
        assert_eq!(unhex32(&hex[1..]), None);
        assert_eq!(unhex32(&format!("{hex}0")), None);
        assert_eq!(unhex32(&hex.replacen('0', "g", 1)), None);
    }

    /// The decoder the table replaced: a branch and an `Option` per digit.
    fn unhex32_by_digit(s: &[u8]) -> Option<[u8; 32]> {
        fn nibble(c: u8) -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                _ => None,
            }
        }
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (b, pair) in out.iter_mut().zip(s.chunks_exact(2)) {
            *b = nibble(pair[0])? << 4 | nibble(pair[1])?;
        }
        Some(out)
    }

    #[test]
    fn the_digest_table_decodes_as_the_per_digit_decoder_did() {
        let clean = hex32(&std::array::from_fn(|i| (i * 37 + 11) as u8));
        assert!(unhex32(&clean).is_some());
        for at in 0..clean.len() {
            for byte in 0..=u8::MAX {
                let mut digits = clean;
                digits[at] = byte;
                assert_eq!(
                    unhex32(&digits),
                    unhex32_by_digit(&digits),
                    "{byte:#x} at {at}"
                );
            }
        }
        for len in [0, 1, 63, 65, 128] {
            assert_eq!(unhex32(&vec![b'0'; len]), None, "{len} digits");
        }
    }

    // ---- the template read against the grammar read --------------------------

    fn block(subject: &str, issuer: &str, key: &str, digests: [u8; 3]) -> SignedBlock {
        SignedBlock {
            created: 1_131_789_600_000_000,
            certificate: Arc::new(Certificate {
                subject_dn: subject.to_owned(),
                issuer_dn: issuer.to_owned(),
                serial: 1,
                key_id: key.into(),
            }),
            body_digest: [digests[0]; 32],
            headers_digest: [digests[1]; 32],
            signature_value: [digests[2]; 32],
            key_name: key.into(),
        }
    }

    fn wire_of((body, headers): (Element, Vec<Element>), block: SignedBlock) -> String {
        let mut env = Envelope::new(body);
        env.headers = headers;
        env.security = Some(SecurityHeader::Signed(block));
        env.to_wire()
    }

    /// The message `crates/security/tests/differential.rs` signs, under a
    /// block of the same shape.
    fn sample_wire(value: &str, subject: &str, digests: [u8; 3]) -> String {
        let block = block(subject, "CN=UVA-CA", "00c0ffee00c0ffee", digests);
        wire_of(corpus::sample_parts(value), block)
    }

    fn signed_sample() -> String {
        sample_wire("41", "CN=alice,O=UVA-VO", [0x5a, 0xc3, 0x7e])
    }

    /// A reader that has just returned the start tag of `wire`'s first
    /// `wsse:Security` block, if the document gets that far.
    fn at_block(wire: &str) -> Option<Reader<'_>> {
        let mut reader = Reader::new(wire);
        loop {
            match reader.next() {
                Ok(Event::Start) if reader.is_named(Some(&vocab().wsse), "Security") => {
                    return Some(reader)
                }
                Ok(Event::Eof) | Err(_) => return None,
                Ok(_) => {}
            }
        }
    }

    /// How `wire`'s block reads, and whether the template matched it —
    /// having held the template attempt to the grammar alone: one answer
    /// (a refusal's wording included), the reader left at one place, and
    /// nothing consumed by an attempt that declined.
    fn read_both_ways(wire: &str) -> Option<(XmlResult<SecurityHeader>, bool)> {
        let mut attempt = at_block(wire)?;
        let start = (attempt.offset(), attempt.depth());
        let matched = read_by_template(&mut attempt).is_some();
        if !matched {
            assert_eq!((attempt.offset(), attempt.depth()), start, "{wire}");
        }

        let (mut first, mut alone) = (at_block(wire)?, at_block(wire)?);
        let templated = read_security(&mut first);
        assert_eq!(templated, read_by_grammar(&mut alone), "{wire}");
        assert_eq!(
            (first.offset(), first.depth()),
            (alone.offset(), alone.depth()),
            "{wire}"
        );
        if templated.is_ok() {
            assert_eq!(first.depth(), start.1 - 1, "{wire}");
            assert_eq!(first.next(), alone.next(), "{wire}");
        }
        Some((templated, matched))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever the writer wrote, the template reads — and reads as the
        /// grammar does.
        #[test]
        fn a_written_block_matches_its_template_and_reads_as_the_grammar_reads_it(
            parts in arb_parts(),
            (subject, issuer, key) in (arb_text(), arb_text(), arb_text()),
            (created, serial) in (any::<u64>(), any::<u64>()),
            digests in (any::<u8>(), any::<u8>(), any::<u8>()),
        ) {
            let mut written = block(&subject, &issuer, &key, [digests.0, digests.1, digests.2]);
            written.created = created;
            Arc::make_mut(&mut written.certificate).serial = serial;
            let wire = wire_of(parts, written.clone());
            let (read, matched) = read_both_ways(&wire).expect("the block is there");
            // `\r` is written `&#13;` and `&`, `<`, `>` as entities: a value
            // holding one is the grammar's to decode.
            let clean = |s: &String| !s.contains(['&', '<', '>', '\r']);
            prop_assert_eq!(matched, [&subject, &issuer, &key].into_iter().all(clean));
            prop_assert_eq!(read, Ok(SecurityHeader::Signed(written)));
        }
    }

    /// The signed block `wire` carries.
    fn signed_block(wire: &str) -> SignedBlock {
        match Envelope::from_wire(wire).unwrap().security {
            Some(SecurityHeader::Signed(b)) => b,
            other => panic!("{other:?}"),
        }
    }

    /// One sender's messages share one certificate and key name once read;
    /// another sender's are its own, and so are those too long to keep. Past
    /// ten thousand senders, a sender read twice is shared again.
    #[test]
    fn a_senders_certificate_is_built_once_per_thread() {
        let sender = |subject: &str, key: &str| {
            let block = block(subject, "CN=UVA-CA", key, [1, 2, 3]);
            signed_block(&wire_of(corpus::sample_parts("41"), block))
        };
        let alice = signed_block(&signed_sample());
        let again = signed_block(&sample_wire("42", "CN=alice,O=UVA-VO", [4, 5, 6]));
        assert!(Arc::ptr_eq(&alice.certificate, &again.certificate));
        assert!(Arc::ptr_eq(&alice.key_name, &again.key_name));
        let bob = sender("CN=bob,O=UVA-VO", "00b0b00000b0b000");
        assert!(!Arc::ptr_eq(&alice.certificate, &bob.certificate));
        assert_eq!(*bob.key_name, *"00b0b00000b0b000");

        let long = "CN=".to_owned() + &"x".repeat(MEMO_MAX_LEN);
        let (one, two) = (sender(&long, "00aa"), sender(&long, "00aa"));
        assert!(!Arc::ptr_eq(&one.certificate, &two.certificate));
        for key in 0..10_000u32 {
            sender("CN=mallory", &format!("{key:08x}"));
        }
        let (one, two) = (
            signed_block(&signed_sample()),
            signed_block(&signed_sample()),
        );
        assert!(Arc::ptr_eq(&one.certificate, &two.certificate));
    }

    #[test]
    fn every_corpus_entry_reads_one_way() {
        let wire = signed_sample();
        let theirs = sample_wire("41", "CN=mallory", [0x5a, 0xc3, 0x99]);
        let other = sample_wire("9999", "CN=alice,O=UVA-VO", [0x42, 0xc3, 0x66]);
        assert!(read_both_ways(&wire).unwrap().1);

        for (_, what, tampered) in corpus::tampered(&wire, &theirs, &other) {
            let (read, matched) = read_both_ways(&tampered).expect(what);
            assert!(matches!(read, Ok(SecurityHeader::Signed(_))), "{what}");
            assert!(matched, "{what}: still the template's bytes");
        }
        for (what, hostile) in corpus::departures(&wire) {
            let (read, matched) = read_both_ways(&hostile).expect(what);
            if what == "two blocks" {
                // Each is intact; it is the header that holds one too many.
                assert!(matched);
                let env = Envelope::from_wire(&hostile).unwrap();
                assert!(matches!(env.security, Some(SecurityHeader::Malformed(_))));
                continue;
            }
            assert!(matches!(read, Ok(SecurityHeader::Malformed(_))), "{what}");
            assert!(!matched, "{what}");
        }
        for broken in corpus::broken_xml(&wire) {
            // One breaks before the block is reached.
            if let Some((read, matched)) = read_both_ways(&broken) {
                assert!(read.is_err() && !matched, "{broken}");
            }
            assert!(Envelope::from_wire(&broken).is_err(), "{broken}");
        }
        let (read, matched) = read_both_ways(&corpus::commented(&wire)).unwrap();
        assert_eq!(read, read_both_ways(&wire).unwrap().0);
        assert!(!matched);
    }

    /// Bytes that look like the template but do not mean what it means, and
    /// bytes that mean it but are not the template's: the match declines
    /// both, and the grammar's answer stands.
    #[test]
    fn the_template_declines_what_only_the_grammar_can_judge() {
        let wire = signed_sample();
        let intact = read_both_ways(&wire).unwrap().0;
        let subject = "<Subject>CN=alice,O=UVA-VO</Subject>";
        let with_subject = |text: &str| {
            let block = block(text, "CN=UVA-CA", "00c0ffee00c0ffee", [0x5a, 0xc3, 0x7e]);
            Ok(SecurityHeader::Signed(block))
        };
        let malformed =
            |read: &XmlResult<SecurityHeader>| matches!(read, Ok(SecurityHeader::Malformed(_)));

        // A prefix the seams spell, bound to something else.
        for prefix in ["wsu", "ds"] {
            let declaration = format!(" xmlns:{prefix}=\"urn:not-it\">");
            for tag in ["<soap:Header>", "<wsse:Security>"] {
                let rebound = edit(&wire, tag, &tag.replace('>', &declaration));
                let (read, matched) = read_both_ways(&rebound).unwrap();
                assert!(malformed(&read) && !matched, "{rebound}");
            }
        }
        // `wsse` itself re-bound: not a security block at all.
        for tag in ["<soap:Header>", "<wsse:Security>"] {
            let rebound = edit(&wire, tag, &tag.replace('>', " xmlns:wsse=\"urn:not-it\">"));
            assert!(read_both_ways(&rebound).is_none());
            let env = Envelope::from_wire(&rebound).unwrap();
            assert!(env.addressing.is_some());
            assert_eq!((env.security, env.headers.len()), (None, 1));
        }
        // Re-bound to the URI it had: the same names, so `Signed` either way.
        for (prefix, uri) in [("wsse", ns::WSSE), ("wsu", ns::WSU), ("ds", ns::DS)] {
            let declaration = format!(" xmlns:{prefix}=\"{uri}\">");
            for tag in ["<soap:Header>", "<wsse:Security>"] {
                let rebound = edit(&wire, tag, &tag.replace('>', &declaration));
                assert_eq!(read_both_ways(&rebound).unwrap().0, intact, "{rebound}");
            }
        }
        // The block under another prefix.
        let renamed = edit(
            &wire,
            "<wsse:Security>",
            &format!("<sec:Security xmlns:sec=\"{}\">", ns::WSSE),
        );
        let renamed = edit(&renamed, "</wsse:Security>", "</sec:Security>");
        assert_eq!(read_both_ways(&renamed).unwrap(), (intact.clone(), false));

        // A default namespace puts `X509Certificate` and its fields in it.
        for tag in ["<soap:Header>", "<wsse:Security>"] {
            let defaulted = edit(&wire, tag, &tag.replace('>', " xmlns=\"urn:d\">"));
            let (read, matched) = read_both_ways(&defaulted).unwrap();
            assert!(malformed(&read) && !matched, "{defaulted}");
        }
        // …unless it is undeclared again before the block.
        let undeclared = edit(&wire, "<soap:Header>", "<soap:Header xmlns=\"\">");
        let undeclared = edit(
            &undeclared,
            "<soap:Envelope ",
            "<soap:Envelope xmlns=\"urn:d\" ",
        );
        assert_eq!(read_both_ways(&undeclared).unwrap(), (intact.clone(), true));

        // The tag is not the template's, though it says the same.
        let spaced = edit(&wire, "<wsse:Security>", "<wsse:Security >");
        assert_eq!(read_both_ways(&spaced).unwrap(), (intact.clone(), false));
        let attributed = edit(&wire, "<wsse:Security>", "<wsse:Security Id=\"s\">");
        let (read, matched) = read_both_ways(&attributed).unwrap();
        assert!(malformed(&read) && !matched);

        // Values only the events decode.
        for (raw, decoded) in [
            ("CN=a&amp;b", "CN=a&b"),
            ("CN=a&#13;b", "CN=a\rb"),
            ("CN=a\rb", "CN=a\nb"),
            ("CN=a\r\nb", "CN=a\nb"),
            ("CN=<![CDATA[<a>]]>", "CN=<a>"),
            ("CN=a<!-- c -->b", "CN=ab"),
            ("CN=a<?pi?>b", "CN=ab"),
        ] {
            let dirty = edit(&wire, subject, &format!("<Subject>{raw}</Subject>"));
            assert_eq!(
                read_both_ways(&dirty).unwrap(),
                (with_subject(decoded), false),
                "{raw}"
            );
        }
        // Values the template reads itself.
        for clean in [
            "",
            "CN=a>b",
            "CN=a]]>b",
            "CN=a\nb\t",
            "CN=\u{e9}\u{2603}\u{1d11e}",
        ] {
            let edited = edit(&wire, subject, &format!("<Subject>{clean}</Subject>"));
            assert_eq!(
                read_both_ways(&edited).unwrap(),
                (with_subject(clean), true),
                "{clean}"
            );
        }
        let empty_tag = edit(&wire, subject, "<Subject/>");
        assert_eq!(
            read_both_ways(&empty_tag).unwrap(),
            (with_subject(""), false)
        );
        // An empty value where a number belongs is the grammar's to refuse.
        let created = between(&wire, "<wsu:Created>", "</wsu:Created>");
        let blank = edit(&wire, &format!("<wsu:Created>{created}<"), "<wsu:Created><");
        let (read, matched) = read_both_ways(&blank).unwrap();
        assert!(malformed(&read) && !matched);

        // A comment or a CDATA section between elements.
        for at in ["<wsu:Timestamp>", "<ds:Signature>", "</wsse:Security>"] {
            let commented = edit(&wire, at, &format!("<!-- c -->{at}"));
            assert_eq!(
                read_both_ways(&commented).unwrap(),
                (intact.clone(), false),
                "{at}"
            );
            let cdata = edit(&wire, at, &format!("<![CDATA[]]>{at}"));
            let (read, matched) = read_both_ways(&cdata).unwrap();
            assert!(malformed(&read) && !matched, "{at}");
        }

        // Input that ends anywhere inside the block: mid-seam, mid-value.
        let from = wire.find("<wsse:Security>").unwrap() + "<wsse:Security>".len();
        let to = wire.find("</wsse:Security>").unwrap() + "</wsse:Security>".len();
        for cut in from..to {
            let (read, matched) = read_both_ways(&wire[..cut]).unwrap();
            assert!(read.is_err() && !matched, "cut at {cut}");
        }
        assert_eq!(read_both_ways(&wire[..to]).unwrap(), (intact, true));
    }
}
