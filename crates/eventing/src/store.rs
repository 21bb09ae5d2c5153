//! The flat-XML-file subscription store.
//!
//! Plumbwork Orange "maintains the subscription lists in a flat XML file"
//! (§3.2) — not in the database: it parsed the whole file on every access
//! and rewrote it on every change. That **charge** is kept to the byte:
//! every access advances the clock by `file_time` of the file's length at
//! exactly the points the original read and wrote it. The **work** is not:
//! the store holds the subscriptions parsed, in file order, and the file's
//! length as they come and go (a subscription element is priced by the
//! generic writer run into a byte counter), so an access costs the same
//! however many are held. The text exists only when somebody asks for it.
//!
//! The store relies on ids being unique (the source mints them) and on a
//! subscription reading back from its XML form as itself (the rest was
//! parsed out of a `Subscribe`). The rewrite-everything store survives under
//! `#[cfg(test)]` as the oracle of a differential proptest.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_sim::{CostModel, SimInstant, VirtualClock};
use ogsa_xml::writer::write_subtree_into;
use ogsa_xml::{ByteCount, Element, Prefixes, PrefixesBuilder, XML_DECL};
use parking_lot::Mutex;

/// One WS-Eventing subscription.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSubscription {
    pub id: String,
    pub notify_to: EndpointReference,
    pub mode: String,
    pub filter: Option<String>,
    pub expires: Option<SimInstant>,
    pub end_to: Option<EndpointReference>,
}

impl EventSubscription {
    fn to_element(&self) -> Element {
        let mut e = Element::new("Subscription")
            .with_attr("id", self.id.clone())
            .with_attr("mode", self.mode.clone());
        if let Some(t) = self.expires {
            e.set_attr("expires", t.0.to_string());
        }
        e.add_child(self.notify_to.to_element_named("NotifyTo".into()));
        if let Some(f) = &self.filter {
            e.add_child(Element::text_element("Filter", f.clone()));
        }
        if let Some(end) = &self.end_to {
            e.add_child(end.to_element_named("EndTo".into()));
        }
        e
    }
}

/// The fan-out core indexes WS-Eventing subscriptions directly.
impl ogsa_fanout::Subscriber for EventSubscription {
    fn sub_id(&self) -> &str {
        &self.id
    }

    fn endpoint(&self) -> &EndpointReference {
        &self.notify_to
    }
}

/// The file: its subscriptions parsed, its length kept as they come and go.
#[derive(Default)]
struct File {
    /// In file order: the key only grows, and an update keeps its place.
    records: BTreeMap<u64, EventSubscription>,
    by_id: HashMap<String, u64>,
    /// `(expires, place)` of every record that expires, earliest first.
    expiries: BTreeSet<(u64, u64)>,
    /// Namespace URI → records using it. The root element declares exactly
    /// these, so the prefix assignment — and with it a record's length —
    /// changes only when a URI comes or goes, not with the population.
    uris: BTreeMap<Arc<str>, usize>,
    prefixes: Prefixes,
    /// Σ over the records of their serialised length under `prefixes`.
    records_len: usize,
    /// Subscription elements priced so far: the work the accesses cost.
    priced: u64,
}

impl File {
    fn len(&self) -> usize {
        let root = if self.records.is_empty() {
            "<Subscriptions/>".len()
        } else {
            "<Subscriptions></Subscriptions>".len() + self.records_len
        };
        XML_DECL.len() + root + ByteCount::of(|n| self.prefixes.write_declarations(n))
    }

    fn price(&mut self, e: &Element) -> usize {
        self.priced += 1;
        ByteCount::of(|n| write_subtree_into(e, &self.prefixes, n))
    }

    /// Count `e`'s namespace URIs into use (`1`) or out of it (`-1`); when
    /// that changes what the root declares, reassign the prefixes and price
    /// every record again.
    fn tally(&mut self, e: &Element, by: isize) {
        let mut own = PrefixesBuilder::new();
        own.add_tree(e);
        let declared = self.uris.len();
        for uri in own.uris() {
            let users = self.uris.entry(uri.clone()).or_insert(0);
            *users = users.saturating_add_signed(by);
        }
        self.uris.retain(|_, users| *users > 0);
        if self.uris.len() != declared {
            let mut all = PrefixesBuilder::new();
            self.uris.keys().for_each(|uri| all.add_uri(uri));
            self.prefixes = all.build();
            let records = std::mem::take(&mut self.records);
            self.records_len = records.values().map(|s| self.price(&s.to_element())).sum();
            self.records = records;
        }
    }

    /// Hold `sub` at `place`, which is free.
    fn put(&mut self, place: u64, sub: EventSubscription) {
        let e = sub.to_element();
        self.tally(&e, 1);
        self.records_len += self.price(&e);
        self.by_id.entry(sub.id.clone()).or_insert(place);
        self.expiries.extend(sub.expires.map(|t| (t.0, place)));
        self.records.insert(place, sub);
    }

    fn take(&mut self, place: u64) -> Option<EventSubscription> {
        let sub = self.records.remove(&place)?;
        let e = sub.to_element();
        self.records_len -= self.price(&e);
        self.by_id.remove(&sub.id);
        if let Some(t) = sub.expires {
            self.expiries.remove(&(t.0, place));
        }
        self.tally(&e, -1);
        Some(sub)
    }
}

/// The flat file behind a mutex, with clock charging on every access.
#[derive(Clone)]
pub struct FlatXmlStore {
    file: Arc<Mutex<File>>,
    clock: VirtualClock,
    model: Arc<CostModel>,
}

impl FlatXmlStore {
    pub fn new(clock: VirtualClock, model: Arc<CostModel>) -> Self {
        FlatXmlStore {
            file: Arc::default(),
            clock,
            model,
        }
    }

    /// Read the file, do `f` to it, and if `f` says it changed anything
    /// write it back: each a pass over the whole file, charged.
    fn access<R>(&self, f: impl FnOnce(&mut File) -> (R, bool)) -> R {
        let mut file = self.file.lock();
        let charge = |file: &File| self.clock.advance(self.model.file_time(file.len()));
        charge(&file);
        let (answer, wrote) = f(&mut file);
        if wrote {
            charge(&file);
        }
        answer
    }

    /// The file as it would be on disk (an inspection: not charged).
    pub fn file_text(&self) -> String {
        let mut root = Element::new("Subscriptions");
        for sub in self.file.lock().records.values() {
            root.add_child(sub.to_element());
        }
        root.into_document_string()
    }

    /// Read the file (charged).
    pub fn load(&self) -> Vec<EventSubscription> {
        self.access(|file| (file.records.values().cloned().collect(), false))
    }

    /// Insert one subscription (a read, then a write of the longer file).
    pub fn insert(&self, sub: EventSubscription) {
        self.access(|file| {
            let last = file.records.last_key_value();
            (file.put(last.map_or(0, |(place, _)| place + 1), sub), true)
        })
    }

    /// Look up by id.
    pub fn get(&self, id: &str) -> Option<EventSubscription> {
        self.access(|file| {
            let place = file.by_id.get(id);
            (place.and_then(|p| file.records.get(p)).cloned(), false)
        })
    }

    /// Update a subscription in place; false if absent.
    pub fn update(&self, sub: &EventSubscription) -> bool {
        self.access(|file| {
            let place = file.by_id.get(&sub.id).copied();
            let old = place.and_then(|p| file.take(p).map(|_| file.put(p, sub.clone())));
            (old.is_some(), old.is_some())
        })
    }

    /// Remove by id; false if absent.
    pub fn remove(&self, id: &str) -> bool {
        self.access(|file| {
            let place = file.by_id.get(id).copied();
            let held = place.and_then(|p| file.take(p)).is_some();
            (held, held)
        })
    }

    /// Has any subscription's expiry passed? Not charged: the source asks
    /// before every event, and reads the file only when the answer is yes.
    pub fn expiry_due(&self, now: SimInstant) -> bool {
        let file = self.file.lock();
        file.expiries.first().is_some_and(|(t, _)| *t <= now.0)
    }

    /// Drop expired subscriptions, returning them in file order (so the
    /// source can send `SubscriptionEnd` to their `EndTo`).
    pub fn purge_expired(&self, now: SimInstant) -> Vec<EventSubscription> {
        self.access(|file| {
            let due = file.expiries.range(..=(now.0, u64::MAX));
            let due: BTreeSet<u64> = due.map(|(_, place)| *place).collect();
            let expired: Vec<_> = due.into_iter().filter_map(|p| file.take(p)).collect();
            let wrote = !expired.is_empty();
            (expired, wrote)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_xml::parse;
    use proptest::prelude::*;

    impl EventSubscription {
        fn from_element(e: &Element) -> Option<Self> {
            Some(EventSubscription {
                id: e.attr_local("id")?.to_owned(),
                notify_to: EndpointReference::from_element(e.child_local("NotifyTo")?).ok()?,
                mode: e.attr_local("mode").unwrap_or("").to_owned(),
                filter: e.child_text("Filter").map(str::to_owned),
                expires: e
                    .attr_local("expires")
                    .and_then(|t| t.parse().ok())
                    .map(SimInstant),
                end_to: e
                    .child_local("EndTo")
                    .and_then(|x| EndpointReference::from_element(x).ok()),
            })
        }
    }

    /// The store as it was: the file is its text, every read parses all of
    /// it and every write serialises all of it. The oracle.
    struct RewriteStore {
        file: Mutex<String>,
        clock: VirtualClock,
        model: Arc<CostModel>,
    }

    impl RewriteStore {
        fn new(clock: VirtualClock, model: Arc<CostModel>) -> Self {
            RewriteStore {
                file: Mutex::new(Element::new("Subscriptions").into_document_string()),
                clock,
                model,
            }
        }

        fn load(&self) -> Vec<EventSubscription> {
            let text = self.file.lock().clone();
            self.clock.advance(self.model.file_time(text.len()));
            let Ok(root) = parse(&text) else {
                return Vec::new();
            };
            root.child_elements()
                .filter_map(EventSubscription::from_element)
                .collect()
        }

        fn save(&self, subs: &[EventSubscription]) {
            let mut root = Element::new("Subscriptions");
            for s in subs {
                root.add_child(s.to_element());
            }
            let text = root.into_document_string();
            self.clock.advance(self.model.file_time(text.len()));
            *self.file.lock() = text;
        }

        fn insert(&self, sub: EventSubscription) {
            let mut subs = self.load();
            subs.push(sub);
            self.save(&subs);
        }

        fn get(&self, id: &str) -> Option<EventSubscription> {
            self.load().into_iter().find(|s| s.id == id)
        }

        fn update(&self, sub: &EventSubscription) -> bool {
            let mut subs = self.load();
            match subs.iter_mut().find(|s| s.id == sub.id) {
                Some(slot) => {
                    *slot = sub.clone();
                    self.save(&subs);
                    true
                }
                None => false,
            }
        }

        fn remove(&self, id: &str) -> bool {
            let mut subs = self.load();
            let before = subs.len();
            subs.retain(|s| s.id != id);
            let removed = subs.len() != before;
            if removed {
                self.save(&subs);
            }
            removed
        }

        fn purge_expired(&self, now: SimInstant) -> Vec<EventSubscription> {
            let subs = self.load();
            let (expired, live): (Vec<_>, Vec<_>) = subs
                .into_iter()
                .partition(|s| matches!(s.expires, Some(t) if t <= now));
            if !expired.is_empty() {
                self.save(&live);
            }
            expired
        }
    }

    /// One step of a script; `usize`s pick among the ids minted so far.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(Box<EventSubscription>),
        Renew(usize, Option<u64>),
        Get(usize),
        Remove(usize),
        Purge(u64),
        Load,
    }

    /// Text with the characters the writer escapes and the parser
    /// normalises, never empty and never only whitespace at the ends (what
    /// a `Subscribe` read off the wire can hold).
    fn arb_text() -> impl Strategy<Value = String> {
        proptest::string::string_regex("[a-z/@='<>&\"é]([a-z <>&\t\r\n]{0,12}[a-z')])?").unwrap()
    }

    /// An endpoint with zero to two reference properties over three
    /// namespaces, so scripts add and retire root declarations (and move
    /// `ns0`/`ns1` between URIs) as records come and go.
    fn arb_epr() -> impl Strategy<Value = EndpointReference> {
        let property = (0usize..4, arb_text()).prop_map(|(ns, text)| {
            let name = match ns {
                0 => ogsa_xml::QName::local("ResourceID"),
                n => {
                    ogsa_xml::QName::new(["urn:vo:a", "urn:vo:b", ogsa_xml::ns::WSE][n - 1], "Key")
                }
            };
            Element::text_element(name, text)
        });
        (arb_text(), proptest::collection::vec(property, 0..3)).prop_map(|(host, properties)| {
            EndpointReference {
                address: format!("tcp://{host}/events"),
                reference_properties: properties,
                reference_parameters: Vec::new(),
            }
        })
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let insert = (
            arb_epr(),
            arb_text(),
            proptest::option::of(arb_text()),
            proptest::option::of(0u64..1_000),
            proptest::option::of(arb_epr()),
        )
            .prop_map(|(notify_to, mode, filter, expires, end_to)| {
                Step::Insert(Box::new(EventSubscription {
                    id: String::new(), // minted by the script
                    notify_to,
                    mode,
                    filter,
                    expires: expires.map(SimInstant),
                    end_to,
                }))
            });
        (0usize..12, insert, any::<usize>(), 0u64..1_000).prop_map(|(kind, insert, pick, t)| {
            match kind {
                0..=4 => insert,
                5 | 6 => Step::Renew(pick, (t % 5 != 0).then_some(t)),
                7 => Step::Get(pick),
                8 | 9 => Step::Remove(pick),
                10 => Step::Purge(t),
                _ => Step::Load,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random insert / renew / get / remove / purge / load scripts
        /// against the rewrite-everything store: the same answers, the same
        /// clock after every step, the same file byte for byte.
        #[test]
        fn the_incremental_store_is_the_rewriting_one(
            steps in proptest::collection::vec(arb_step(), 1..40),
        ) {
            let model = Arc::new(CostModel::calibrated_2005());
            let (clock, oracle_clock) = (VirtualClock::new(), VirtualClock::new());
            let store = FlatXmlStore::new(clock.clone(), model.clone());
            let oracle = RewriteStore::new(oracle_clock.clone(), model);
            let mut minted = 0usize;
            // Ids removed or purged stay candidates: absent ids are asked for too.
            let id = |pick: usize, minted: usize| format!("es-{}", pick % (minted + 1));
            for step in steps {
                match step {
                    Step::Insert(mut sub) => {
                        sub.id = format!("es-{minted}");
                        minted += 1;
                        store.insert((*sub).clone());
                        oracle.insert(*sub);
                    }
                    Step::Renew(pick, expires) => {
                        let got = store.get(&id(pick, minted));
                        prop_assert_eq!(&got, &oracle.get(&id(pick, minted)));
                        let mut sub = got.unwrap_or_else(|| EventSubscription {
                            id: id(pick, minted),
                            notify_to: EndpointReference::service("tcp://ghost/events"),
                            mode: String::new(),
                            filter: None,
                            expires: None,
                            end_to: None,
                        });
                        sub.expires = expires.map(SimInstant);
                        prop_assert_eq!(store.update(&sub), oracle.update(&sub));
                    }
                    Step::Get(pick) => {
                        prop_assert_eq!(store.get(&id(pick, minted)), oracle.get(&id(pick, minted)));
                    }
                    Step::Remove(pick) => {
                        prop_assert_eq!(
                            store.remove(&id(pick, minted)),
                            oracle.remove(&id(pick, minted))
                        );
                    }
                    Step::Purge(now) => {
                        prop_assert_eq!(
                            store.purge_expired(SimInstant(now)),
                            oracle.purge_expired(SimInstant(now))
                        );
                    }
                    Step::Load => prop_assert_eq!(store.load(), oracle.load()),
                }
                prop_assert_eq!(clock.now(), oracle_clock.now());
                let text = store.file_text();
                prop_assert_eq!(text.len(), store.file.lock().len());
                prop_assert_eq!(text, oracle.file.lock().clone());
            }
        }
    }

    fn store() -> FlatXmlStore {
        FlatXmlStore::new(VirtualClock::new(), Arc::new(CostModel::free()))
    }

    fn sub(id: &str, expires: Option<u64>) -> EventSubscription {
        EventSubscription {
            id: id.into(),
            notify_to: EndpointReference::service("tcp://c/events"),
            mode: crate::messages::PUSH_MODE.into(),
            filter: Some("/E[v>1]".into()),
            expires: expires.map(SimInstant),
            end_to: None,
        }
    }

    /// What an access costs does not depend on how many subscriptions are
    /// held: the 64th Subscribe and the 4 096th each price one element, and
    /// so do a Renew and an Unsubscribe at either population.
    #[test]
    fn an_access_prices_one_record_whatever_the_population() {
        let s = store();
        let priced = |s: &FlatXmlStore| s.file.lock().priced;
        let mut per_call = Vec::new();
        for n in 0..4_096 {
            let before = priced(&s);
            s.insert(sub(&format!("es-{n}"), Some(n)));
            if n == 63 || n == 4_095 {
                per_call.push(priced(&s) - before);
                // A Renew takes the old element out and puts the new one in,
                // a GetStatus prices nothing, an Unsubscribe takes one out.
                let before = priced(&s);
                assert!(s.update(&sub("es-7", Some(9_999))));
                assert!(s.get("es-7").is_some());
                assert!(s.remove("es-7"));
                s.insert(sub("es-7", None));
                per_call.push(priced(&s) - before);
            }
        }
        assert_eq!(per_call, [1, 4, 1, 4]);
        assert_eq!(priced(&s), 4_096 + 8);
    }

    #[test]
    fn insert_get_update_remove() {
        let s = store();
        s.insert(sub("a", None));
        s.insert(sub("b", Some(100)));
        assert_eq!(s.load().len(), 2);
        assert_eq!(s.get("a").unwrap().filter.as_deref(), Some("/E[v>1]"));

        let mut b = s.get("b").unwrap();
        b.expires = Some(SimInstant(500));
        assert!(s.update(&b));
        assert_eq!(s.get("b").unwrap().expires, Some(SimInstant(500)));

        assert!(s.remove("a"));
        assert!(!s.remove("a"));
        assert_eq!(s.load().len(), 1);
    }

    #[test]
    fn update_unknown_is_false() {
        assert!(!store().update(&sub("ghost", None)));
    }

    #[test]
    fn purge_expired_partitions() {
        let s = store();
        s.insert(sub("old", Some(10)));
        s.insert(sub("new", Some(1000)));
        s.insert(sub("forever", None));
        let expired = s.purge_expired(SimInstant(100));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, "old");
        assert_eq!(s.load().len(), 2);
    }

    /// The expiry index says "due" exactly while a held subscription's time
    /// has passed, follows renewals, and holds one entry per subscription
    /// that expires — churn cannot grow it.
    #[test]
    fn expiry_is_due_once_follows_renewals_and_stays_bounded() {
        let s = store();
        let tracked = |s: &FlatXmlStore| s.file.lock().expiries.len();
        s.insert(sub("a", Some(100)));
        s.insert(sub("b", None));
        assert!(!s.expiry_due(SimInstant(99)), "nothing due yet");
        assert!(s.expiry_due(SimInstant(100)), "a is due");
        assert_eq!(s.purge_expired(SimInstant(150)), [sub("a", Some(100))]);
        assert!(
            !s.expiry_due(SimInstant(200)),
            "purged with its subscription"
        );

        s.insert(sub("a", Some(300)));
        assert!(s.update(&sub("a", Some(500))));
        assert!(!s.expiry_due(SimInstant(400)), "the renewal moved it");
        assert!(s.update(&sub("a", None)));
        assert!(
            !s.expiry_due(SimInstant(u64::MAX)),
            "and this one disarmed it"
        );
        assert_eq!(tracked(&s), 0);

        for round in 0..200u64 {
            let id = format!("churn-{round}");
            s.insert(sub(&id, Some(1_000 + round)));
            for renew in 1..=5 {
                assert!(s.update(&sub(&id, Some(1_000 + round + renew))));
            }
            if round % 2 == 0 {
                assert!(s.remove(&id));
            }
        }
        assert_eq!(tracked(&s), 100);
        assert!(!s.expiry_due(SimInstant(1_005)));
        assert!(
            s.expiry_due(SimInstant(1_006)),
            "churn-1, at its renewed time"
        );
    }

    #[test]
    fn file_io_cost_scales_with_subscription_count() {
        let clock = VirtualClock::new();
        let model = Arc::new(CostModel::calibrated_2005());
        let s = FlatXmlStore::new(clock.clone(), model);
        for i in 0..50 {
            s.insert(sub(&format!("s{i}"), None));
        }
        let t0 = clock.now();
        s.load();
        let cost_50 = clock.now().since(t0);

        let t1 = clock.now();
        FlatXmlStore::new(clock.clone(), Arc::new(CostModel::calibrated_2005())).load();
        let cost_0 = clock.now().since(t1);
        assert!(cost_50 > cost_0);
    }

    #[test]
    fn the_file_reads_back_every_field() {
        let s = store();
        let full = EventSubscription {
            id: "x".into(),
            notify_to: EndpointReference::resource("tcp://c/events", "r1"),
            mode: "urn:custom-mode".into(),
            filter: None,
            expires: Some(SimInstant(42)),
            end_to: Some(EndpointReference::service("http://c/end")),
        };
        s.insert(full.clone());
        assert_eq!(s.get("x").unwrap(), full);
        let root = parse(&s.file_text()).unwrap();
        let read: Vec<_> = root
            .child_elements()
            .filter_map(EventSubscription::from_element)
            .collect();
        assert_eq!(read, [full]);
    }
}
