//! Property tests: the flat-XML subscription store hands back arbitrary
//! subscriptions as it was given them, and a change to one leaves the
//! others intact.

use ogsa_addressing::EndpointReference;
use ogsa_eventing::{EventSubscription, FlatXmlStore};
use ogsa_sim::{CostModel, SimInstant, VirtualClock};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_sub(id: usize) -> impl Strategy<Value = EventSubscription> {
    (
        proptest::string::string_regex("[a-z]{1,10}").unwrap(),
        proptest::option::of(proptest::string::string_regex("/[A-Za-z]{1,8}").unwrap()),
        proptest::option::of(any::<u32>()),
        any::<bool>(),
    )
        .prop_map(move |(host, filter, expires, has_end)| EventSubscription {
            id: format!("es-{id}"),
            notify_to: EndpointReference::service(format!("tcp://{host}/events")),
            mode: ogsa_eventing::PUSH_MODE.to_owned(),
            filter,
            expires: expires.map(|e| SimInstant(e as u64)),
            end_to: has_end.then(|| EndpointReference::service(format!("http://{host}/end"))),
        })
}

fn store() -> FlatXmlStore {
    FlatXmlStore::new(VirtualClock::new(), Arc::new(CostModel::free()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inserted_subscriptions_roundtrip(subs in (0usize..6).prop_flat_map(|n| {
        (0..n).map(arb_sub).collect::<Vec<_>>()
    })) {
        let s = store();
        for sub in &subs {
            s.insert(sub.clone());
        }
        let loaded = s.load();
        prop_assert_eq!(loaded.len(), subs.len());
        for sub in &subs {
            let got = s.get(&sub.id);
            prop_assert_eq!(got.as_ref(), Some(sub));
        }
    }

    #[test]
    fn removal_leaves_others_intact(a in arb_sub(0), b in arb_sub(1), c in arb_sub(2)) {
        let s = store();
        s.insert(a.clone());
        s.insert(b.clone());
        s.insert(c.clone());
        prop_assert!(s.remove(&b.id));
        prop_assert_eq!(s.get(&a.id), Some(a));
        prop_assert_eq!(s.get(&b.id), None);
        prop_assert_eq!(s.get(&c.id), Some(c));
    }

    #[test]
    fn purge_respects_expirations(subs in (0usize..8).prop_flat_map(|n| {
        (0..n).map(arb_sub).collect::<Vec<_>>()
    }), now in any::<u32>()) {
        let s = store();
        for sub in &subs {
            s.insert(sub.clone());
        }
        let now = SimInstant(now as u64);
        let expired = s.purge_expired(now);
        for e in &expired {
            prop_assert!(matches!(e.expires, Some(t) if t <= now));
        }
        for live in s.load() {
            prop_assert!(!matches!(live.expires, Some(t) if t <= now));
        }
        prop_assert_eq!(expired.len() + s.load().len(), subs.len());
    }
}
