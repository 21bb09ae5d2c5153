//! Qualified names and the well-known namespace URIs used across the stacks.
//!
//! Namespace URIs are interned as `Arc<str>` so that cloning a [`QName`] —
//! which happens on every element constructed while building a SOAP message —
//! is a pair of reference-count bumps rather than a heap copy (per the
//! allocation-discipline guidance in the perf book).

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

/// Well-known namespace URIs for the specifications the paper compares.
///
/// The URIs follow the 2004/2005 drafts cited by the paper (WSRF and WSN as
/// submitted to OASIS; WS-Transfer and WS-Eventing as the Microsoft/BEA/...
/// member submissions; WS-Addressing 2004/08).
pub mod ns {
    /// SOAP 1.1 envelope namespace.
    pub const SOAP: &str = "http://schemas.xmlsoap.org/soap/envelope/";
    /// WS-Addressing (August 2004 member submission).
    pub const WSA: &str = "http://schemas.xmlsoap.org/ws/2004/08/addressing";
    /// WS-ResourceProperties.
    pub const WSRF_RP: &str =
        "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceProperties-1.2-draft-01.xsd";
    /// WS-ResourceLifetime.
    pub const WSRF_RL: &str =
        "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceLifetime-1.2-draft-01.xsd";
    /// WS-ServiceGroup.
    pub const WSRF_SG: &str =
        "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ServiceGroup-1.2-draft-01.xsd";
    /// WS-BaseFaults.
    pub const WSRF_BF: &str =
        "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-BaseFaults-1.2-draft-01.xsd";
    /// WS-BaseNotification.
    pub const WSNT: &str =
        "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BaseNotification-1.2-draft-01.xsd";
    /// WS-Topics.
    pub const WSTOP: &str = "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-Topics-1.2-draft-01.xsd";
    /// WS-BrokeredNotification.
    pub const WSBN: &str =
        "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BrokeredNotification-1.2-draft-01.xsd";
    /// WS-Transfer (September 2004 member submission).
    pub const WXF: &str = "http://schemas.xmlsoap.org/ws/2004/09/transfer";
    /// WS-Eventing (August 2004 member submission).
    pub const WSE: &str = "http://schemas.xmlsoap.org/ws/2004/08/eventing";
    /// WS-Security (OASIS wsse 1.0).
    pub const WSSE: &str =
        "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-secext-1.0.xsd";
    /// WS-Security utility (timestamps, ids).
    pub const WSU: &str =
        "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-utility-1.0.xsd";
    /// XML-DSig.
    pub const DS: &str = "http://www.w3.org/2000/09/xmldsig#";
    /// XML Schema instance.
    pub const XSI: &str = "http://www.w3.org/2001/XMLSchema-instance";
    /// Namespace used by the Grid-in-a-Box application services.
    pub const GRIDBOX: &str = "http://virginia.edu/ogsa/gridbox";
    /// Namespace used by the counter ("hello world") services.
    pub const COUNTER: &str = "http://virginia.edu/ogsa/counter";
    /// Telemetry trace-context headers (trace/span ids riding alongside the
    /// WS-Addressing message-information headers).
    pub const TEL: &str = "http://virginia.edu/ogsa/telemetry";

    /// Suggested serialisation prefix for a well-known namespace, if any.
    pub fn preferred_prefix(uri: &str) -> Option<&'static str> {
        Some(match uri {
            SOAP => "soap",
            WSA => "wsa",
            WSRF_RP => "wsrp",
            WSRF_RL => "wsrl",
            WSRF_SG => "wssg",
            WSRF_BF => "wsbf",
            WSNT => "wsnt",
            WSTOP => "wstop",
            WSBN => "wsbn",
            WXF => "wxf",
            WSE => "wse",
            WSSE => "wsse",
            WSU => "wsu",
            DS => "ds",
            XSI => "xsi",
            GRIDBOX => "gib",
            COUNTER => "cnt",
            TEL => "tel",
            _ => return None,
        })
    }
}

/// An expanded XML name: `{namespace-uri}local-part`.
///
/// Prefixes are a serialisation concern and never stored here; two names are
/// equal iff their namespace URIs and local parts are equal, which is what
/// the WS-* dispatch logic needs.
///
/// Both parts are interned through [`intern`], so names built through
/// [`QName::new`]/[`QName::local`] (and everything the parser produces)
/// compare with two pointer equalities on the hot dispatch path.
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct QName {
    /// Namespace URI, or `None` for an unqualified name.
    pub ns: Option<Arc<str>>,
    /// Local part.
    pub local: Arc<str>,
}

/// Interned-`Arc` comparison: pointer equality first (the common case for
/// interned strings), content second (still correct for `Arc`s built
/// directly from a string).
fn arc_str_eq(a: &Arc<str>, b: &Arc<str>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// Hashes by content, like the derive would — consistent with the manual
/// [`PartialEq`] below, whose pointer check is only a fast path over the
/// same content equality.
impl std::hash::Hash for QName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ns.as_deref().hash(state);
        self.local.hash(state);
    }
}

impl PartialEq for QName {
    fn eq(&self, other: &Self) -> bool {
        let ns_eq = match (&self.ns, &other.ns) {
            (None, None) => true,
            (Some(a), Some(b)) => arc_str_eq(a, b),
            _ => false,
        };
        ns_eq && arc_str_eq(&self.local, &other.local)
    }
}

impl QName {
    /// A name in namespace `ns` with local part `local`.
    pub fn new(ns: &str, local: &str) -> Self {
        QName {
            ns: Some(intern(ns)),
            local: intern(local),
        }
    }

    /// An unqualified (no-namespace) name.
    pub fn local(local: &str) -> Self {
        QName {
            ns: None,
            local: intern(local),
        }
    }

    /// Namespace URI as a `&str`, or `""` if unqualified.
    pub fn ns_str(&self) -> &str {
        self.ns.as_deref().unwrap_or("")
    }

    /// True if this name lives in namespace `uri`.
    pub fn in_ns(&self, uri: &str) -> bool {
        self.ns.as_deref() == Some(uri)
    }

    /// Clark notation, `{uri}local`, used by the canonical form and debug
    /// output.
    pub fn clark(&self) -> Cow<'_, str> {
        match &self.ns {
            Some(uri) => Cow::Owned(format!("{{{uri}}}{}", self.local)),
            None => Cow::Borrowed(&self.local),
        }
    }
}

impl fmt::Debug for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.clark())
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.local)
    }
}

impl From<&str> for QName {
    fn from(local: &str) -> Self {
        QName::local(local)
    }
}

/// Most strings the interner will hold. The WS-* vocabulary is a few
/// hundred names; names arrive off sockets too, so the table must not grow
/// with what peers send.
pub const INTERN_CAPACITY: usize = 8192;

/// FNV-1a, folded a word at a time: the keys are short names and a small
/// fixed set of namespace URIs of 34–82 bytes, where this beats SipHash by
/// enough to show up in parse profiles (every element and attribute name,
/// and every `xmlns` URI of every message, passes through here). Eight
/// bytes are mixed per multiply; a multiply carries differences upward
/// only, so the high half is folded back down before the next step.
#[derive(Clone)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn mix(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(0x0100_0000_01b3);
        self.0 = h ^ (h >> 32);
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        for &b in words.remainder() {
            self.mix(u64::from(b));
        }
    }
}

type InternTable =
    std::collections::HashMap<String, Arc<str>, std::hash::BuildHasherDefault<Fnv1a>>;

fn intern_table() -> &'static parking_lot::RwLock<InternTable> {
    static INTERNED: std::sync::OnceLock<parking_lot::RwLock<InternTable>> =
        std::sync::OnceLock::new();
    INTERNED.get_or_init(Default::default)
}

/// Slots of the per-thread memo of interned strings: only `Arc`s the table
/// holds.
const INTERN_MEMO_SLOTS: usize = 512;

thread_local! {
    static INTERN_MEMO: RefCell<Memo<Arc<str>, INTERN_MEMO_SLOTS>> =
        const { RefCell::new(Memo::EMPTY) };
}

/// Intern a string (namespace URI or local name): repeated occurrences share
/// a single allocation per process, so [`QName`] equality is usually a
/// pointer comparison.
///
/// A per-thread memo answers for the strings a thread keeps meeting. The
/// table behind it is read-mostly once a workload warms up (the WS-*
/// vocabulary is small and fixed), so lookups take a shared lock; only the
/// first sighting of a string takes the write lock. It holds at most
/// [`INTERN_CAPACITY`] strings: once full, an unseen string comes back as a
/// fresh `Arc` that is not shared (a count of one), which [`QName`]
/// equality handles by comparing content.
pub fn intern(s: &str) -> Arc<str> {
    let table = || intern_in_table(s);
    INTERN_MEMO.with_borrow_mut(|m| m.get_or(s, |h| **h == *s, table, |a| Arc::strong_count(a) > 1))
}

fn intern_in_table(s: &str) -> Arc<str> {
    let table = intern_table();
    {
        let guard = table.read();
        if let Some(existing) = guard.get(s) {
            return existing.clone();
        }
        if guard.len() >= INTERN_CAPACITY {
            return Arc::from(s);
        }
    }
    let mut guard = table.write();
    if let Some(existing) = guard.get(s) {
        return existing.clone();
    }
    let arc: Arc<str> = Arc::from(s);
    if guard.len() < INTERN_CAPACITY {
        guard.insert(s.to_owned(), arc.clone());
    }
    arc
}

/// A memo of `N` slots, for a thread to keep the values it keeps meeting:
/// a key's FNV-1a hash picks a set of two, the one used last first. It
/// never holds more than `N` values, whatever keys it is shown.
pub struct Memo<V, const N: usize>([Option<V>; N]);

impl<V: Clone, const N: usize> Memo<V, N> {
    pub const EMPTY: Self = Memo([const { None }; N]);

    /// The value held for `key` (one `is_key` accepts), or else `make`'s,
    /// held in place of the set's older value if `keep` takes it.
    pub fn get_or(
        &mut self,
        key: &str,
        is_key: impl Fn(&V) -> bool,
        make: impl FnOnce() -> V,
        keep: impl FnOnce(&V) -> bool,
    ) -> V {
        const { assert!(N >= 2 && N.is_multiple_of(2), "a memo is sets of two slots") };
        let mut hash = Fnv1a::default();
        hash.write(key.as_bytes());
        let at = (hash.finish() % (N / 2) as u64) as usize * 2;
        if self.0[at + 1].as_ref().is_some_and(&is_key) {
            self.0.swap(at, at + 1);
        }
        if let Some(held) = self.0[at].as_ref().filter(|held| is_key(held)) {
            return held.clone();
        }
        let made = make();
        if keep(&made) {
            self.0[at + 1] = self.0[at].replace(made.clone());
        }
        made
    }
}

/// Number of strings the interner holds — never more than
/// [`INTERN_CAPACITY`].
pub fn interned_len() -> usize {
    intern_table().read().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualified_and_unqualified_names_differ() {
        assert_ne!(QName::new(ns::SOAP, "Envelope"), QName::local("Envelope"));
        assert_eq!(
            QName::new(ns::SOAP, "Envelope"),
            QName::new(ns::SOAP, "Envelope")
        );
    }

    #[test]
    fn interning_is_pointer_shared() {
        let a = intern(ns::WSA);
        let b = intern(ns::WSA);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn local_names_are_interned_too() {
        let a = QName::new(ns::WSA, "Action");
        let b = QName::new(ns::WSA, "Action");
        assert!(Arc::ptr_eq(&a.local, &b.local));
        assert!(Arc::ptr_eq(
            &QName::local("value").local,
            &QName::local("value").local
        ));
    }

    #[test]
    fn equality_survives_non_interned_arcs() {
        // QName fields are public, so a name can hold an Arc that skipped the
        // interner; equality must still be by content.
        let handmade = QName {
            ns: Some(Arc::from(ns::SOAP)),
            local: Arc::from("Envelope"),
        };
        assert_eq!(handmade, QName::new(ns::SOAP, "Envelope"));
        assert_ne!(handmade, QName::new(ns::SOAP, "Body"));
    }

    /// A second sighting on one thread is a memo hit, and the `Arc` it
    /// returns is the table's: the one a thread with an empty memo gets.
    #[test]
    fn a_memo_hit_is_the_table_entry() {
        let (first, hit) = (intern("urn:memo-probe"), intern("urn:memo-probe"));
        let table = std::thread::spawn(|| intern("urn:memo-probe"))
            .join()
            .unwrap();
        assert!(Arc::ptr_eq(&first, &hit) && Arc::ptr_eq(&hit, &table));
    }

    /// Ten thousand distinct keys leave a memo at its slots, the last one
    /// held; a value `keep` refuses is returned but not held.
    #[test]
    fn a_memo_holds_at_most_its_slots() {
        let mut memo = Memo::<Arc<str>, 8>::EMPTY;
        let mut get =
            |key: &str, keep: bool| memo.get_or(key, |h| **h == *key, || Arc::from(key), |_| keep);
        for i in 0..10_000 {
            get(&format!("urn:hostile:{i}"), true);
        }
        let last = get("urn:hostile:9999", true);
        assert!(Arc::ptr_eq(&last, &get("urn:hostile:9999", true)));
        assert!(!Arc::ptr_eq(
            &get("urn:refused", false),
            &get("urn:refused", false)
        ));
        assert_eq!(memo.0.iter().flatten().count(), 8);
    }

    #[test]
    fn clark_notation() {
        assert_eq!(QName::new("urn:x", "a").clark(), "{urn:x}a");
        assert_eq!(QName::local("a").clark(), "a");
    }

    #[test]
    fn preferred_prefixes_cover_all_spec_namespaces() {
        for uri in [
            ns::SOAP,
            ns::WSA,
            ns::WSRF_RP,
            ns::WSRF_RL,
            ns::WSRF_SG,
            ns::WSRF_BF,
            ns::WSNT,
            ns::WSTOP,
            ns::WSBN,
            ns::WXF,
            ns::WSE,
            ns::WSSE,
            ns::WSU,
            ns::DS,
        ] {
            assert!(ns::preferred_prefix(uri).is_some(), "no prefix for {uri}");
        }
        assert!(ns::preferred_prefix("urn:unknown").is_none());
    }

    #[test]
    fn in_ns_checks_uri() {
        let q = QName::new(ns::WXF, "Create");
        assert!(q.in_ns(ns::WXF));
        assert!(!q.in_ns(ns::WSE));
        assert!(!QName::local("Create").in_ns(ns::WXF));
    }
}
