//! X.509 certificates, identities, and the certificate store.
//!
//! Certificates carry the fields the Grid-in-a-Box services actually consume
//! (the subject distinguished name above all — accounts, data directories
//! and reservations are all keyed by DN in the paper) plus a key identifier.
//! The [`CertStore`] doubles as the simulation's PKI oracle: it maps key ids
//! to verification secrets, standing in for real RSA public-key operations.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::sha256::{hex, sha256};
use crate::sig::mac_key;

/// A simulated X.509 certificate: the fields the token on the wire carries,
/// so the SOAP layer's typed security block holds one as is.
pub use ogsa_soap::security::Certificate;

/// A certificate plus its private key material — what a client or service
/// holds locally.
#[derive(Debug, Clone)]
pub struct Identity {
    /// Shared, not copied, into every block this identity signs.
    pub cert: Arc<Certificate>,
    /// The secret as the keyed-MAC midstate signing resumes from.
    pub(crate) secret: [u32; 8],
}

impl Identity {
    /// The subject DN — the "user identity" the AccountService maps to VO
    /// privileges.
    pub fn dn(&self) -> &str {
        &self.cert.subject_dn
    }

    pub(crate) fn secret(&self) -> &[u32; 8] {
        &self.secret
    }
}

/// A certificate authority: issues identities registered in a store.
#[derive(Debug, Clone)]
pub struct CertAuthority {
    issuer_dn: String,
    store: CertStore,
}

impl CertAuthority {
    /// Issue an identity for `subject_dn` and register its verification
    /// material in the store.
    pub fn issue(&self, subject_dn: &str) -> Identity {
        let mut inner = self.store.inner.write();
        inner.next_serial += 1;
        let serial = inner.next_serial;
        // Deterministic key material: derived from issuer/subject/serial.
        let secret = sha256(format!("{}|{}|{}", self.issuer_dn, subject_dn, serial).as_bytes());
        let key_id = hex(&sha256(&secret)[..8]);
        let cert = Arc::new(Certificate {
            subject_dn: subject_dn.to_owned(),
            issuer_dn: self.issuer_dn.clone(),
            serial,
            key_id: key_id.clone(),
        });
        let secret = mac_key(&secret);
        inner.keys.insert(key_id, secret);
        Identity { cert, secret }
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    trusted_issuers: HashSet<String>,
    /// key id → verification secret (the simulated public-key oracle).
    keys: HashMap<String, [u32; 8]>,
    next_serial: u64,
}

/// Shared certificate store: trusted issuers plus the key oracle.
#[derive(Debug, Clone, Default)]
pub struct CertStore {
    inner: Arc<RwLock<StoreInner>>,
}

impl CertStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an authority whose issued certificates this store trusts.
    pub fn authority(&self, issuer_dn: &str) -> CertAuthority {
        self.inner
            .write()
            .trusted_issuers
            .insert(issuer_dn.to_owned());
        CertAuthority {
            issuer_dn: issuer_dn.to_owned(),
            store: self.clone(),
        }
    }

    /// Is the certificate's issuer trusted here?
    pub fn trusts(&self, cert: &Certificate) -> bool {
        self.inner.read().trusted_issuers.contains(&cert.issuer_dn)
    }

    /// Look up verification material for a key id (simulated public key).
    pub(crate) fn verification_secret(&self, key_id: &str) -> Option<[u32; 8]> {
        self.inner.read().keys.get(key_id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_registers_and_trusts() {
        let store = CertStore::new();
        let ca = store.authority("CN=UVA-CA");
        let alice = ca.issue("CN=alice,O=UVA-VO");
        assert!(store.trusts(&alice.cert));
        assert_eq!(alice.dn(), "CN=alice,O=UVA-VO");
        assert!(store.verification_secret(&alice.cert.key_id).is_some());
    }

    #[test]
    fn untrusted_issuer_rejected() {
        let store = CertStore::new();
        let other_store = CertStore::new();
        let rogue_ca = other_store.authority("CN=Rogue-CA");
        let mallory = rogue_ca.issue("CN=mallory");
        assert!(!store.trusts(&mallory.cert));
        assert!(store.verification_secret(&mallory.cert.key_id).is_none());
    }

    #[test]
    fn serials_are_unique_and_keys_distinct() {
        let store = CertStore::new();
        let ca = store.authority("CN=CA");
        let a = ca.issue("CN=a");
        let b = ca.issue("CN=b");
        assert_ne!(a.cert.serial, b.cert.serial);
        assert_ne!(a.cert.key_id, b.cert.key_id);
        assert_ne!(a.secret, b.secret);
    }
}
