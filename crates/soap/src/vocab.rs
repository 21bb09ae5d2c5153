//! The fixed SOAP, WS-Addressing and WS-Security vocabulary, built once:
//! every message reuses these instead of paying two interner lookups per
//! name.

use std::sync::{Arc, OnceLock};

use ogsa_xml::{intern, ns, QName};

pub(crate) struct Vocab {
    pub soap: Arc<str>,
    pub wsa: Arc<str>,
    pub wsse: Arc<str>,
    pub wsu: Arc<str>,
    pub ds: Arc<str>,
    pub fault: QName,
    pub security: QName,
}

pub(crate) fn vocab() -> &'static Vocab {
    static VOCAB: OnceLock<Vocab> = OnceLock::new();
    VOCAB.get_or_init(|| Vocab {
        soap: intern(ns::SOAP),
        wsa: intern(ns::WSA),
        wsse: intern(ns::WSSE),
        wsu: intern(ns::WSU),
        ds: intern(ns::DS),
        fault: QName::new(ns::SOAP, "Fault"),
        security: QName::new(ns::WSSE, "Security"),
    })
}
