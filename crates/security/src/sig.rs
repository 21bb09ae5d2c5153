//! WS-Security envelope signing and verification.
//!
//! [`sign_envelope`] canonicalises the body and the WS-Addressing headers,
//! digests them with SHA-256, "signs" the canonical `ds:SignedInfo` over
//! those two digests with the simulated private key, and sets the
//! envelope's `wsse:Security` header: a timestamp, the signer's certificate
//! as a `BinarySecurityToken`, and the `ds:Signature`. [`verify_envelope`]
//! undoes all of that, failing on any tampering, unknown signer, or
//! untrusted issuer. Both charge the 2005-era WSE processing cost to the
//! virtual clock.
//!
//! The header is the typed [`SecurityHeader`] the SOAP layer carries, not a
//! tree, and `ds:SignedInfo` has one canonical text with two digest-sized
//! holes — so neither side builds or walks a single node for it.

use std::cell::Cell;
use std::sync::Arc;

use ogsa_sim::{CostModel, VirtualClock};
use ogsa_soap::security::hex32;
use ogsa_soap::{Envelope, SecurityHeader, SignedBlock};
use ogsa_xml::{canonicalize_into, ns, Sink};

use crate::cert::{CertStore, Certificate, Identity};
use crate::sha256::Sha256;

thread_local! {
    /// Envelope canonicalisation passes performed by this thread — one per
    /// sign, one per verify. Thread-local so concurrent tests and harness
    /// threads never race; the container surfaces per-operation deltas as
    /// the `sec.c14n_passes` telemetry counter.
    static C14N_PASSES: Cell<u64> = const { Cell::new(0) };
}

/// Total envelope canonicalisation passes performed by this thread. The
/// wall-clock fast path guarantees sign and verify each take exactly one
/// (assert with a before/after delta).
pub fn c14n_passes() -> u64 {
    C14N_PASSES.with(|c| c.get())
}

fn note_c14n_pass() {
    C14N_PASSES.with(|c| c.set(c.get() + 1));
}

/// Streams canonical bytes into the incremental SHA-256 state — no
/// intermediate canonical `String` or `Vec` is ever built. Canonical output
/// arrives as many short fragments (name parts, quotes, text runs), so the
/// sink batches them through a small fixed buffer: the hash state advances
/// in whole-block strides instead of paying per-fragment `update` overhead.
struct ShaSink {
    hasher: Sha256,
    buf: [u8; 256],
    len: usize,
}

impl ShaSink {
    fn new() -> Self {
        ShaSink {
            hasher: Sha256::new(),
            buf: [0; 256],
            len: 0,
        }
    }

    fn flush(&mut self) {
        self.hasher.update(&self.buf[..self.len]);
        self.len = 0;
    }

    fn finalize(mut self) -> [u8; 32] {
        self.flush();
        self.hasher.finalize()
    }
}

impl Sink for ShaSink {
    fn push_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        if self.len + bytes.len() > self.buf.len() {
            self.flush();
            if bytes.len() >= self.buf.len() {
                self.hasher.update(bytes);
                return;
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

/// Signature/verification failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityError {
    /// No `wsse:Security` header present.
    NotSigned,
    /// Header present but structurally malformed.
    Malformed(String),
    /// A digest does not match the referenced content — tampering.
    DigestMismatch { reference: String },
    /// The signature value is wrong for the signed info.
    BadSignature,
    /// The signer's key is not known to the store.
    UnknownSigner,
    /// The certificate chains to an untrusted issuer.
    UntrustedIssuer { issuer: String },
}

impl std::fmt::Display for SecurityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecurityError::NotSigned => write!(f, "envelope is not signed"),
            SecurityError::Malformed(m) => write!(f, "malformed security header: {m}"),
            SecurityError::DigestMismatch { reference } => {
                write!(f, "digest mismatch for {reference} (message tampered)")
            }
            SecurityError::BadSignature => write!(f, "signature verification failed"),
            SecurityError::UnknownSigner => write!(f, "signer key not registered"),
            SecurityError::UntrustedIssuer { issuer } => {
                write!(f, "certificate issuer `{issuer}` is not trusted")
            }
        }
    }
}

impl std::error::Error for SecurityError {}

/// Who signed a verified envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignerInfo {
    pub certificate: Arc<Certificate>,
}

impl SignerInfo {
    /// The signer's distinguished name — the identity Grid-in-a-Box services
    /// authorise against.
    pub fn dn(&self) -> &str {
        &self.certificate.subject_dn
    }
}

/// One canonicalisation pass over the envelope's signed content, streamed
/// directly into the digest states: `(body, headers)`.
fn digest_body_and_headers(env: &Envelope) -> ([u8; 32], [u8; 32]) {
    note_c14n_pass();
    let mut body = ShaSink::new();
    canonicalize_into(&env.body, &mut body);
    // Every non-security header participates in the headers digest, in
    // order (addressing headers, echoed reference properties, ...).
    let mut h = ShaSink::new();
    for header in &env.headers {
        if header.name.in_ns(ns::WSSE) || header.name.in_ns(ns::WSU) {
            continue;
        }
        canonicalize_into(header, &mut h);
    }
    (body.finalize(), h.finalize())
}

/// The canonical form of `ds:SignedInfo`, split at its two digests. The
/// block's grammar admits no other `SignedInfo`, so this text *is* its
/// canonicalisation (the unit tests hold it to `canonicalize` on the tree).
const SIGNED_INFO: [&str; 3] = [
    "<{http://www.w3.org/2000/09/xmldsig#}SignedInfo>\
     <{http://www.w3.org/2000/09/xmldsig#}Reference URI=\"#Body\">\
     <{http://www.w3.org/2000/09/xmldsig#}DigestValue>",
    "</{http://www.w3.org/2000/09/xmldsig#}DigestValue>\
     </{http://www.w3.org/2000/09/xmldsig#}Reference>\
     <{http://www.w3.org/2000/09/xmldsig#}Reference URI=\"#Headers\">\
     <{http://www.w3.org/2000/09/xmldsig#}DigestValue>",
    "</{http://www.w3.org/2000/09/xmldsig#}DigestValue>\
     </{http://www.w3.org/2000/09/xmldsig#}Reference>\
     </{http://www.w3.org/2000/09/xmldsig#}SignedInfo>",
];

/// Bytes of `SIGNED_INFO[0]` that, behind the 32-byte secret, fill the keyed
/// MAC's first two blocks: the part of every MAC input a key fixes.
const KEYED_HEAD: usize = 2 * 64 - 32;
const _: () = assert!(SIGNED_INFO[0].len() >= KEYED_HEAD);

/// The MAC key: the midstate of `secret ‖ SIGNED_INFO[0][..KEYED_HEAD]`,
/// compressed once per identity, at the secret's own 32 bytes.
pub(crate) fn mac_key(secret: &[u8; 32]) -> [u32; 8] {
    let head = SIGNED_INFO[0].as_bytes();
    let mut blocks = [[0u8; 64]; 2];
    blocks[0][..32].copy_from_slice(secret);
    blocks[0][32..].copy_from_slice(&head[..32]);
    blocks[1].copy_from_slice(&head[32..KEYED_HEAD]);
    Sha256::midstate(&blocks)
}

/// Simulated RSA signature over the canonical `ds:SignedInfo` holding these
/// two digests: a keyed hash (see crate docs), resumed from [`mac_key`].
/// Simple prefix-MAC is fine here — the key is fixed-length, so no length
/// extension concern for this simulation.
fn mac_signed_info(key: &[u32; 8], body_digest: &[u8; 32], headers_digest: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::resume(*key, 2);
    h.update(&SIGNED_INFO[0].as_bytes()[KEYED_HEAD..]);
    h.update(&hex32(body_digest));
    h.update(SIGNED_INFO[1].as_bytes());
    h.update(&hex32(headers_digest));
    h.update(SIGNED_INFO[2].as_bytes());
    h.finalize()
}

/// Sign `env` as `identity`, charging `model` costs to `clock`. A security
/// header already present is replaced: size, digests and the charge are
/// those of the unsigned message.
pub fn sign_envelope(
    env: &mut Envelope,
    identity: &Identity,
    clock: &VirtualClock,
    model: &CostModel,
) {
    env.security = None;
    clock.advance(model.sign_time(|| env.wire_size()));

    let (body_digest, headers_digest) = digest_body_and_headers(env);
    env.security = Some(SecurityHeader::Signed(SignedBlock {
        created: clock.now().0,
        certificate: identity.cert.clone(),
        body_digest,
        headers_digest,
        signature_value: mac_signed_info(identity.secret(), &body_digest, &headers_digest),
        key_name: identity.cert.key_id.clone(),
    }));
}

/// Verify the signature on `env` against `store`, charging verification
/// cost. On success returns the signer. The security header is left in
/// place (responses re-verify at the client, as in WSE).
pub fn verify_envelope(
    env: &Envelope,
    store: &CertStore,
    clock: &VirtualClock,
    model: &CostModel,
) -> Result<SignerInfo, SecurityError> {
    clock.advance(model.verify_time(|| env.wire_size()));

    let block = match &env.security {
        None => return Err(SecurityError::NotSigned),
        Some(SecurityHeader::Malformed(reason)) => {
            return Err(SecurityError::Malformed(reason.clone()))
        }
        Some(SecurityHeader::Signed(block)) => block,
    };
    let cert = &block.certificate;

    if !store.trusts(cert) {
        return Err(SecurityError::UntrustedIssuer {
            issuer: cert.issuer_dn.clone(),
        });
    }
    if block.key_name != cert.key_id {
        return Err(SecurityError::Malformed(
            "KeyName does not match certificate key id".into(),
        ));
    }

    // Recompute digests over the current envelope content.
    let (body_digest, headers_digest) = digest_body_and_headers(env);
    for (reference, claimed, actual) in [
        ("#Body", &block.body_digest, &body_digest),
        ("#Headers", &block.headers_digest, &headers_digest),
    ] {
        if claimed != actual {
            return Err(SecurityError::DigestMismatch {
                reference: reference.to_owned(),
            });
        }
    }

    // Verify the signature over SignedInfo with the oracle's key material.
    let key = store
        .verification_secret(&cert.key_id)
        .ok_or(SecurityError::UnknownSigner)?;
    if mac_signed_info(&key, &block.body_digest, &block.headers_digest) != block.signature_value {
        return Err(SecurityError::BadSignature);
    }

    Ok(SignerInfo {
        certificate: cert.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;
    use ogsa_sim::SimDuration;
    use ogsa_xml::{canonicalize, Element, QName};

    fn setup() -> (CertStore, Identity, VirtualClock, CostModel) {
        let store = CertStore::new();
        let ca = store.authority("CN=UVA-CA");
        let alice = ca.issue("CN=alice,O=UVA-VO");
        (
            store,
            alice,
            VirtualClock::new(),
            CostModel::calibrated_2005(),
        )
    }

    fn sample_env() -> Envelope {
        Envelope::new(Element::text_element("SetCounter", "41"))
            .with_header(Element::text_element(
                QName::new(ns::WSA, "Action"),
                "urn:set",
            ))
            .with_header(Element::text_element(
                QName::new(ns::WSA, "To"),
                "http://h/s",
            ))
    }

    #[test]
    fn sign_then_verify_succeeds() {
        let (store, alice, clock, model) = setup();
        let mut env = sample_env();
        sign_envelope(&mut env, &alice, &clock, &model);
        let signer = verify_envelope(&env, &store, &clock, &model).unwrap();
        assert_eq!(signer.dn(), "CN=alice,O=UVA-VO");
    }

    #[test]
    fn signing_charges_the_clock() {
        let (store, alice, clock, model) = setup();
        let mut env = sample_env();
        let t0 = clock.now();
        sign_envelope(&mut env, &alice, &clock, &model);
        let after_sign = clock.now();
        assert!(after_sign.since(t0) >= SimDuration::from_micros(model.x509_sign_us));
        verify_envelope(&env, &store, &clock, &model).unwrap();
        assert!(clock.now().since(after_sign) >= SimDuration::from_micros(model.x509_verify_us));
    }

    #[test]
    fn body_tampering_detected() {
        let (store, alice, clock, model) = setup();
        let mut env = sample_env();
        sign_envelope(&mut env, &alice, &clock, &model);
        env.body.set_text("9999");
        let err = verify_envelope(&env, &store, &clock, &model).unwrap_err();
        assert_eq!(
            err,
            SecurityError::DigestMismatch {
                reference: "#Body".into()
            }
        );
    }

    #[test]
    fn header_tampering_detected() {
        let (store, alice, clock, model) = setup();
        let mut env = sample_env();
        sign_envelope(&mut env, &alice, &clock, &model);
        env.header_mut(&QName::new(ns::WSA, "To"))
            .unwrap()
            .set_text("http://evil/s");
        let err = verify_envelope(&env, &store, &clock, &model).unwrap_err();
        assert!(matches!(err, SecurityError::DigestMismatch { .. }));
    }

    #[test]
    fn signing_again_replaces_the_first_signature() {
        let (store, alice, clock, model) = setup();
        let bob = store.authority("CN=UVA-CA").issue("CN=bob,O=UVA-VO");
        let mut twice = sample_env();
        sign_envelope(&mut twice, &alice, &clock, &model);
        let before = clock.now();
        sign_envelope(&mut twice, &bob, &clock, &model);
        // Charged for the unsigned message, not for alice's block on top.
        assert_eq!(
            clock.now().since(before),
            model.sign_time(|| sample_env().wire_size())
        );
        let signer = verify_envelope(&twice, &store, &clock, &model).unwrap();
        assert_eq!(signer.dn(), "CN=bob,O=UVA-VO");
        // One block on the wire.
        let wire = twice.to_wire();
        assert_eq!(wire.matches("<wsse:Security>").count(), 1);
        let back = Envelope::from_wire(&wire).unwrap();
        assert_eq!(
            verify_envelope(&back, &store, &clock, &model).unwrap().dn(),
            "CN=bob,O=UVA-VO"
        );
    }

    #[test]
    fn untrusted_issuer_rejected() {
        let (store, _alice, clock, model) = setup();
        let rogue_store = CertStore::new();
        let rogue = rogue_store.authority("CN=Rogue").issue("CN=mallory");
        let mut env = sample_env();
        sign_envelope(&mut env, &rogue, &clock, &model);
        let err = verify_envelope(&env, &store, &clock, &model).unwrap_err();
        assert_eq!(
            err,
            SecurityError::UntrustedIssuer {
                issuer: "CN=Rogue".into()
            }
        );
    }

    #[test]
    fn unsigned_envelope_is_not_signed() {
        let (store, _, clock, model) = setup();
        let env = sample_env();
        assert_eq!(
            verify_envelope(&env, &store, &clock, &model).unwrap_err(),
            SecurityError::NotSigned
        );
    }

    #[test]
    fn wire_roundtrip_preserves_signature_validity() {
        let (store, alice, clock, model) = setup();
        let mut env = sample_env();
        sign_envelope(&mut env, &alice, &clock, &model);
        let back = Envelope::from_wire(&env.to_wire()).unwrap();
        verify_envelope(&back, &store, &clock, &model).unwrap();
    }

    #[test]
    fn exactly_one_c14n_pass_per_sign_and_per_verify() {
        let (store, alice, clock, model) = setup();
        let mut env = sample_env();
        let before = c14n_passes();
        sign_envelope(&mut env, &alice, &clock, &model);
        assert_eq!(c14n_passes() - before, 1, "sign must canonicalise once");
        let before = c14n_passes();
        verify_envelope(&env, &store, &clock, &model).unwrap();
        assert_eq!(c14n_passes() - before, 1, "verify must canonicalise once");
    }

    #[test]
    fn signed_info_template_is_the_canonical_form_of_the_tree() {
        let (body_digest, headers_digest) = ([0x5a; 32], [0xc3; 32]);
        let reference = |uri: &str, digest: &[u8; 32]| {
            Element::new(QName::new(ns::DS, "Reference"))
                .with_attr("URI", uri)
                .with_child(Element::text_element(
                    QName::new(ns::DS, "DigestValue"),
                    hex(digest),
                ))
        };
        let tree = Element::new(QName::new(ns::DS, "SignedInfo"))
            .with_child(reference("#Body", &body_digest))
            .with_child(reference("#Headers", &headers_digest));
        let secret = [7u8; 32];
        let mut buffered = Sha256::new();
        buffered.update(&secret);
        buffered.update(&canonicalize(&tree));
        assert_eq!(
            mac_signed_info(&mac_key(&secret), &body_digest, &headers_digest),
            buffered.finalize()
        );
    }

    /// `sample_env` with its body text padded so its unsigned wire is
    /// `bytes` long.
    fn env_of_wire_size(bytes: usize) -> Envelope {
        let mut env = sample_env();
        let text_len = bytes - env.wire_size() + "41".len();
        env.body.set_text("4".repeat(text_len));
        assert_eq!(env.wire_size(), bytes);
        env
    }

    /// Sign charges the unsigned message, verify the signed one, each at
    /// exactly the model's price for that size — on both sides of a KB
    /// boundary and at a Grid-in-a-Box upload's size — and nothing under
    /// the free model.
    #[test]
    fn sign_and_verify_charge_the_priced_wire_sizes() {
        let (store, alice, clock, calibrated) = setup();
        for bytes in [1023, 1024, 1025, 26 * 1024] {
            let mut env = env_of_wire_size(bytes);
            let t0 = clock.now();
            sign_envelope(&mut env, &alice, &clock, &calibrated);
            let signed = clock.now();
            assert_eq!(signed.since(t0), calibrated.sign_time(|| bytes));
            verify_envelope(&env, &store, &clock, &calibrated).unwrap();
            let charged = calibrated.verify_time(|| env.wire_size());
            assert_eq!(clock.now().since(signed), charged);

            let mut env = env_of_wire_size(bytes);
            let t0 = clock.now();
            sign_envelope(&mut env, &alice, &clock, &CostModel::free());
            verify_envelope(&env, &store, &clock, &CostModel::free()).unwrap();
            assert_eq!(clock.now(), t0);
        }
    }

    proptest::proptest! {
        #[test]
        fn midstate_mac_is_the_keyed_hash_from_scratch(
            secret in proptest::collection::vec(proptest::prelude::any::<u8>(), 32..33),
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 32..33),
            headers in proptest::collection::vec(proptest::prelude::any::<u8>(), 32..33),
        ) {
            let [secret, body, headers]: [[u8; 32]; 3] =
                [secret, body, headers].map(|v| v.try_into().unwrap());
            let mut whole = secret.to_vec();
            whole.extend_from_slice(SIGNED_INFO[0].as_bytes());
            whole.extend_from_slice(hex(&body).as_bytes());
            whole.extend_from_slice(SIGNED_INFO[1].as_bytes());
            whole.extend_from_slice(hex(&headers).as_bytes());
            whole.extend_from_slice(SIGNED_INFO[2].as_bytes());
            proptest::prop_assert_eq!(
                mac_signed_info(&mac_key(&secret), &body, &headers),
                crate::sha256::sha256(&whole)
            );
        }
    }

    #[test]
    fn signature_survives_prefix_renaming() {
        // Canonicalisation means an intermediary may rewrite prefixes.
        let (store, alice, clock, model) = setup();
        let mut env = sample_env();
        sign_envelope(&mut env, &alice, &clock, &model);
        let wire = env.to_wire();
        // Re-parse and rebuild (writer may choose different prefixes).
        let back = Envelope::from_wire(&wire).unwrap();
        let wire2 = back.to_wire();
        let back2 = Envelope::from_wire(&wire2).unwrap();
        verify_envelope(&back2, &store, &clock, &model).unwrap();
    }
}
