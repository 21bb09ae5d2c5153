//! What the differential suites read: the strategy for arbitrary message
//! parts, and the hand-made corpora — every entry an edit of one signed
//! wire's *string*, as an attacker or an intermediary would make it.
//!
//! Names nothing of `ogsa-soap`, so the crate's own unit tests (which hold
//! the block's template read to its grammar read) include this file beside
//! the suites in `crates/soap/tests` and `crates/security/tests`.

use ogsa_xml::{ns, Element, QName, MAX_DEPTH};
use proptest::prelude::*;

// ---- arbitrary message parts ------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9_]{0,8}").unwrap()
}

/// Text that exercises escaping on every field it lands in.
pub fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("([ -~]|[<>&\"'\t\r\n]){1,24}").unwrap()
}

/// No namespace, a well-known one (preferred prefix), or an unknown one
/// (generated `nsN` prefix).
fn arb_uri() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some(ns::WSA.to_owned())),
        Just(Some(ns::COUNTER.to_owned())),
        Just(Some(ns::DS.to_owned())),
        proptest::string::string_regex("urn:[a-z]{1,6}")
            .unwrap()
            .prop_map(Some),
    ]
}

fn arb_element() -> impl Strategy<Value = Element> {
    let leaf = (
        arb_name(),
        arb_uri(),
        proptest::option::of((arb_name(), arb_text())),
        proptest::option::of(arb_text()),
    )
        .prop_map(|(name, uri, attr, text)| {
            let mut e = match uri {
                Some(u) => Element::new(QName::new(&u, &name)),
                None => Element::new(name.as_str()),
            };
            if let Some((k, v)) = attr {
                e.set_attr(k.as_str(), v);
            }
            if let Some(text) = text {
                e.add_text(text);
            }
            e
        });
    leaf.prop_recursive(2, 8, 3, |inner| {
        (
            arb_name(),
            arb_uri(),
            proptest::collection::vec(inner, 0..3),
        )
            .prop_map(|(name, uri, kids)| {
                let e = match uri {
                    Some(u) => Element::new(QName::new(&u, &name)),
                    None => Element::new(name.as_str()),
                };
                e.with_children(kids)
            })
    })
}

/// A complete run of addressing headers as trees, as `MessageHeaders::apply`
/// used to stamp them: `To`, `Action`, `MessageID`, then maybe a `ReplyTo`
/// and a `RelatesTo`.
fn arb_addressing_run() -> impl Strategy<Value = Vec<Element>> {
    (
        (arb_text(), arb_text(), arb_text()),
        proptest::option::of(arb_element()),
        proptest::option::of(arb_text()),
    )
        .prop_map(|((to, action, id), reply_to, relates_to)| {
            let mut run = vec![
                wsa("To", &to),
                wsa("Action", &action),
                wsa("MessageID", &id),
            ];
            run.extend(reply_to.map(|r| Element {
                name: QName::new(ns::WSA, "ReplyTo"),
                ..r
            }));
            run.extend(relates_to.map(|r| wsa("RelatesTo", &r)));
            run
        })
}

fn wsa(local: &str, text: &str) -> Element {
    Element::text_element(QName::new(ns::WSA, local), text)
}

/// An arbitrary envelope's Body payload and header blocks, led by an
/// addressing run or not (`wsse:`/`wsu:` names are the security layer's
/// own, so none is generated).
pub fn arb_parts() -> impl Strategy<Value = (Element, Vec<Element>)> {
    (
        arb_element(),
        proptest::option::of(arb_addressing_run()),
        proptest::collection::vec(arb_element(), 0..4),
    )
        .prop_map(|(body, run, rest)| (body, run.into_iter().flatten().chain(rest).collect()))
}

// ---- the sample message and edits of its wire ---------------------------------

/// Body payload and header blocks of the message every corpus edits.
pub fn sample_parts(value: &str) -> (Element, Vec<Element>) {
    let body = Element::new(QName::new(ns::COUNTER, "SetCounter"))
        .with_child(Element::text_element("value", value));
    let headers = vec![
        wsa("To", "http://h/s"),
        wsa("Action", "urn:set"),
        wsa("MessageID", "uuid:m-2"),
        wsa("RelatesTo", "uuid:m-1"),
    ];
    (body, headers)
}

/// Replace the one occurrence of `from`.
pub fn edit(wire: &str, from: &str, to: &str) -> String {
    assert_eq!(wire.matches(from).count(), 1, "`{from}` in {wire}");
    wire.replacen(from, to, 1)
}

/// The text between the first `open` and the following `close`.
pub fn between<'w>(wire: &'w str, open: &str, close: &str) -> &'w str {
    let start = wire.find(open).expect(open) + open.len();
    &wire[start..start + wire[start..].find(close).expect(close)]
}

/// The `n`th `<ds:DigestValue>` (0 = body, 1 = headers).
pub fn digest_value(wire: &str, n: usize) -> &str {
    let open = "<ds:DigestValue>";
    let at = wire.match_indices(open).nth(n).expect("digest").0;
    between(&wire[at..], open, "</ds:DigestValue>")
}

/// Another valid digest: its first hex digit moved on by one.
fn flipped(hex: &str) -> String {
    let first = if hex.starts_with('0') { '1' } else { '0' };
    format!("{first}{}", &hex[1..])
}

/// What verification must make of a tampered wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caught {
    BodyDigest,
    HeadersDigest,
    BadSignature,
    /// `KeyName` no longer names the certificate's key.
    Malformed,
    UnknownSigner,
    /// The issuer is now `CN=Rogue`.
    UntrustedIssuer,
    /// Not under the signature: the message still verifies.
    Nothing,
}

/// Tampering that leaves the block in its grammar: what must catch it, what
/// was done, the wire. `wire` is the signed sample; `theirs` the same
/// message under another signer's signature; `other` the sample set to
/// `9999`, signed as `wire`.
pub fn tampered(wire: &str, theirs: &str, other: &str) -> Vec<(Caught, &'static str, String)> {
    let body_text = edit(wire, "<value>41</value>", "<value>9999</value>");
    let body_digest = digest_value(wire, 0);
    let headers_digest = digest_value(wire, 1);
    let value = between(wire, "<ds:SignatureValue>", "</ds:SignatureValue>");
    let key = between(wire, "<KeyId>", "</KeyId>");
    let created = between(wire, "<wsu:Created>", "</wsu:Created>");
    vec![
        (Caught::BodyDigest, "body text", body_text.clone()),
        (
            Caught::HeadersDigest,
            "header text",
            edit(wire, "http://h/s", "http://evil/s"),
        ),
        (
            Caught::HeadersDigest,
            "injected header",
            edit(wire, "<soap:Header>", "<soap:Header><Forged>x</Forged>"),
        ),
        (
            Caught::BodyDigest,
            "claimed body digest",
            edit(wire, body_digest, &flipped(body_digest)),
        ),
        (
            Caught::HeadersDigest,
            "claimed headers digest",
            edit(wire, headers_digest, &flipped(headers_digest)),
        ),
        (
            Caught::BadSignature,
            "forged signature value",
            edit(wire, value, &flipped(value)),
        ),
        // The right digests under somebody else's signature, the
        // certificate kept.
        (
            Caught::BadSignature,
            "spliced signature value",
            edit(
                wire,
                value,
                between(theirs, "<ds:SignatureValue>", "</ds:SignatureValue>"),
            ),
        ),
        // A body changed *and* its digest recomputed: the signature no
        // longer covers the SignedInfo.
        (
            Caught::BadSignature,
            "redigested body",
            edit(&body_text, body_digest, digest_value(other, 0)),
        ),
        (
            Caught::Malformed,
            "another key name",
            edit(
                wire,
                &format!("<ds:KeyName>{key}</ds:KeyName>"),
                "<ds:KeyName>0000000000000000</ds:KeyName>",
            ),
        ),
        (
            Caught::UnknownSigner,
            "unknown key",
            wire.replace(key, "0000000000000000"),
        ),
        (
            Caught::UntrustedIssuer,
            "another issuer",
            edit(
                wire,
                "<Issuer>CN=UVA-CA</Issuer>",
                "<Issuer>CN=Rogue</Issuer>",
            ),
        ),
        // The timestamp is informational.
        (
            Caught::Nothing,
            "another timestamp",
            edit(wire, &format!("<wsu:Created>{created}<"), "<wsu:Created>7<"),
        ),
    ]
}

/// Well-formed XML whose security block departs from the grammar.
pub fn departures(wire: &str) -> Vec<(&'static str, String)> {
    // The whole of the first element `<name>…</name>`.
    let whole = |name: &str| {
        let (open, close) = (format!("<{name}>"), format!("</{name}>"));
        format!("{open}{}{close}", between(wire, &open, &close))
    };
    let block = whole("wsse:Security");
    let timestamp = whole("wsu:Timestamp");
    let token = whole("wsse:BinarySecurityToken");
    let signature = whole("ds:Signature");
    let signed_info = whole("ds:SignedInfo");
    let signature_value = whole("ds:SignatureValue");
    let key_info = whole("ds:KeyInfo");
    let created = whole("wsu:Created");
    let reference = |open: &str| {
        format!(
            "{open}{}</ds:Reference>",
            between(wire, open, "</ds:Reference>")
        )
    };
    let body_ref = reference("<ds:Reference URI=\"#Body\">");
    let headers_ref = reference("<ds:Reference URI=\"#Headers\">");
    let digest = digest_value(wire, 0).to_owned();
    let nest = |depth: usize| format!("{}x{}", "<d>".repeat(depth), "</d>".repeat(depth));

    vec![
        // Missing children.
        ("no timestamp", edit(wire, &timestamp, "")),
        ("no token", edit(wire, &token, "")),
        ("no signature", edit(wire, &signature, "")),
        ("no signed info", edit(wire, &signed_info, "")),
        ("no signature value", edit(wire, &signature_value, "")),
        ("no key info", edit(wire, &key_info, "")),
        ("no body reference", edit(wire, &body_ref, "")),
        ("no headers reference", edit(wire, &headers_ref, "")),
        (
            "no certificate",
            edit(wire, "<X509Certificate>", "<X509Certificate/><Other>").replacen(
                "</X509Certificate>",
                "</Other>",
                1,
            ),
        ),
        ("empty block", edit(wire, &block, "<wsse:Security/>")),
        (
            "empty token",
            edit(wire, &token, "<wsse:BinarySecurityToken/>"),
        ),
        // Duplicated children.
        ("two blocks", edit(wire, &block, &format!("{block}{block}"))),
        (
            "two timestamps",
            edit(wire, &timestamp, &format!("{timestamp}{timestamp}")),
        ),
        ("two tokens", edit(wire, &token, &format!("{token}{token}"))),
        (
            "two signatures",
            edit(wire, &signature, &format!("{signature}{signature}")),
        ),
        (
            "two signed infos",
            edit(wire, &signed_info, &format!("{signed_info}{signed_info}")),
        ),
        (
            "two body references",
            edit(wire, &body_ref, &format!("{body_ref}{body_ref}")),
        ),
        (
            "a third reference",
            edit(wire, &headers_ref, &format!("{headers_ref}{body_ref}")),
        ),
        (
            "two signature values",
            edit(
                wire,
                &signature_value,
                &format!("{signature_value}{signature_value}"),
            ),
        ),
        (
            "two digest values",
            edit(
                wire,
                &body_ref,
                &body_ref.replace(
                    "</ds:Reference>",
                    &format!("<ds:DigestValue>{digest}</ds:DigestValue></ds:Reference>"),
                ),
            ),
        ),
        // Reordered children.
        (
            "token before timestamp",
            edit(
                wire,
                &format!("{timestamp}{token}"),
                &format!("{token}{timestamp}"),
            ),
        ),
        (
            "signature first",
            edit(
                wire,
                &format!("{timestamp}{token}{signature}"),
                &format!("{signature}{timestamp}{token}"),
            ),
        ),
        (
            "references swapped",
            edit(
                wire,
                &format!("{body_ref}{headers_ref}"),
                &format!("{headers_ref}{body_ref}"),
            ),
        ),
        (
            "value before signed info",
            edit(
                wire,
                &format!("{signed_info}{signature_value}"),
                &format!("{signature_value}{signed_info}"),
            ),
        ),
        ("issuer before subject", {
            let subject = "<Subject>CN=alice,O=UVA-VO</Subject>";
            let issuer = "<Issuer>CN=UVA-CA</Issuer>";
            edit(
                wire,
                &format!("{subject}{issuer}"),
                &format!("{issuer}{subject}"),
            )
        }),
        // Extra attributes and children.
        (
            "attribute on the block",
            edit(
                wire,
                "<wsse:Security>",
                "<wsse:Security soap:mustUnderstand=\"1\">",
            ),
        ),
        (
            "attribute on signed info",
            edit(wire, "<ds:SignedInfo>", "<ds:SignedInfo Id=\"si\">"),
        ),
        (
            "second attribute on a reference",
            edit(
                wire,
                "<ds:Reference URI=\"#Body\">",
                "<ds:Reference URI=\"#Body\" Type=\"t\">",
            ),
        ),
        (
            "qualified URI attribute",
            edit(
                wire,
                "<ds:Reference URI=\"#Body\">",
                "<ds:Reference ds:URI=\"#Body\">",
            ),
        ),
        (
            "no URI attribute",
            edit(wire, "<ds:Reference URI=\"#Body\">", "<ds:Reference>"),
        ),
        (
            "attribute on a digest",
            edit(
                wire,
                &format!("<ds:DigestValue>{digest}"),
                &format!("<ds:DigestValue Id=\"d\">{digest}"),
            ),
        ),
        (
            "child in signed info",
            edit(
                wire,
                "<ds:SignedInfo>",
                "<ds:SignedInfo><ds:CanonicalizationMethod/>",
            ),
        ),
        (
            "trailing child in signed info",
            edit(wire, "</ds:SignedInfo>", "<ds:Extra/></ds:SignedInfo>"),
        ),
        (
            "trailing child in the block",
            edit(wire, "</wsse:Security>", "<Extra/></wsse:Security>"),
        ),
        (
            "child in a digest",
            edit(
                wire,
                &format!("<ds:DigestValue>{digest}"),
                &format!("<ds:DigestValue><b/>{digest}"),
            ),
        ),
        (
            "text in the block",
            edit(wire, "<wsse:Security>", "<wsse:Security>\n  "),
        ),
        (
            "text in signed info",
            edit(wire, "</ds:SignedInfo>", " </ds:SignedInfo>"),
        ),
        (
            "empty CDATA between elements",
            edit(wire, "<ds:Signature>", "<ds:Signature><![CDATA[]]>"),
        ),
        // Names from the wrong namespace.
        (
            "unqualified signature",
            edit(
                wire,
                &signature,
                &signature.replace("ds:Signature>", "Signature>"),
            ),
        ),
        (
            "certificate under a default namespace",
            edit(
                wire,
                "<wsse:BinarySecurityToken>",
                "<wsse:BinarySecurityToken xmlns=\"urn:x\">",
            ),
        ),
        (
            "rebound ds prefix",
            edit(
                wire,
                "<ds:Signature>",
                "<ds:Signature xmlns:ds=\"urn:not-dsig\">",
            ),
        ),
        // Values out of their one spelling.
        (
            "non-hex digest",
            edit(wire, &digest, &format!("g{}", &digest[1..])),
        ),
        (
            "upper-case digest",
            edit(
                wire,
                &digest,
                &digest.to_uppercase().replace(char::is_numeric, "A"),
            ),
        ),
        ("short digest", edit(wire, &digest, &digest[1..])),
        ("long digest", edit(wire, &digest, &format!("{digest}0"))),
        ("empty digest", edit(wire, &digest, "")),
        ("padded digest", edit(wire, &digest, &format!(" {digest}"))),
        (
            "short signature value",
            edit(
                wire,
                &signature_value,
                "<ds:SignatureValue>abc</ds:SignatureValue>",
            ),
        ),
        (
            "unknown reference URI",
            edit(wire, "URI=\"#Body\"", "URI=\"#Other\""),
        ),
        (
            "empty reference URI",
            edit(wire, "URI=\"#Body\"", "URI=\"\""),
        ),
        (
            "a megabyte of Created",
            edit(
                wire,
                &created,
                &format!("<wsu:Created>{}</wsu:Created>", "9".repeat(1 << 20)),
            ),
        ),
        (
            "Created that is no number",
            edit(
                wire,
                &created,
                "<wsu:Created>2005-11-12T10:00:00Z</wsu:Created>",
            ),
        ),
        (
            "Created with a leading zero",
            edit(wire, &created, "<wsu:Created>007</wsu:Created>"),
        ),
        (
            "Created past u64",
            edit(
                wire,
                &created,
                "<wsu:Created>18446744073709551616</wsu:Created>",
            ),
        ),
        (
            "negative serial",
            edit(wire, "<Serial>1</Serial>", "<Serial>-1</Serial>"),
        ),
        (
            "padded serial",
            edit(wire, "<Serial>1</Serial>", "<Serial> 1 </Serial>"),
        ),
        (
            "empty serial",
            edit(wire, "<Serial>1</Serial>", "<Serial/>"),
        ),
        // Nesting where a leaf belongs.
        (
            "deep nesting in the token",
            edit(
                wire,
                &token,
                &format!(
                    "<wsse:BinarySecurityToken>{}</wsse:BinarySecurityToken>",
                    nest(MAX_DEPTH / 2)
                ),
            ),
        ),
        (
            "deep nesting in a leaf",
            edit(
                wire,
                "<Subject>",
                &format!("<Subject>{}", nest(MAX_DEPTH / 2)),
            ),
        ),
    ]
}

/// A block that is not even well-formed XML.
pub fn broken_xml(wire: &str) -> Vec<String> {
    vec![
        edit(wire, "</ds:SignedInfo>", "</ds:SignedInf>"),
        edit(wire, "<ds:Signature>", "<Extra><ds:Signature>"),
        edit(wire, "<wsu:Created>", "<wsu:Created>&bogus;"),
        edit(wire, "<ds:Signature>", "<ds:Signature><unbound:x/>"),
        // After a departure the rest of the block is skipped, not trusted.
        edit(wire, "<wsu:Timestamp>", "<Odd/><wsu:Timestamp>")
            .replace("</ds:KeyInfo>", "</ds:KeyInf>"),
    ]
}

/// Comments between the block's elements and inside one of its values.
pub fn commented(wire: &str) -> String {
    let commented = edit(
        wire,
        "<ds:SignedInfo>",
        "<!-- a --><ds:SignedInfo><!-- b -->",
    );
    let digest = digest_value(wire, 0);
    edit(
        &commented,
        digest,
        &format!("{}<!-- c -->{}", &digest[..9], &digest[9..]),
    )
}
