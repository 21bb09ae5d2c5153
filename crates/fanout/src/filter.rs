//! The compiled-filter index.
//!
//! Both stacks let a subscriber narrow what it receives by message content:
//! WS-Eventing's `Filter` and WS-Notification's `Selector` are XPath
//! predicates over the event. A [`ContentFilter`] is such a predicate
//! compiled **once**, when the subscription enters the table
//! ([`crate::ShardedTable::compile_filter`]); the table then groups its
//! subscriptions by filter *text* ([`FilterGroups`]), so an event evaluates
//! each distinct filter at most once however many subscribers share it.
//! The cost of publishing follows what the event matches, not how many
//! subscriptions exist.
//!
//! The naive alternative — compile and evaluate every subscription's filter
//! on every event — is what both stacks did before; it survives only as the
//! oracle of the differential tests.

use std::collections::HashMap;

use ogsa_xml::{Element, XPath, XPathContext, XmlResult};

/// A content filter in its compiled form. Obtained only from the table it
/// is destined for, which counts the compilation.
#[derive(Debug, Clone)]
pub struct ContentFilter {
    text: String,
    /// `None`: the text did not compile (a stored subscription re-indexed
    /// at restart) — such a filter matches nothing.
    xpath: Option<XPath>,
}

impl ContentFilter {
    pub(crate) fn compile(text: &str) -> XmlResult<Self> {
        Ok(ContentFilter {
            text: text.to_owned(),
            xpath: Some(XPath::compile(text)?),
        })
    }

    pub(crate) fn matches_nothing(text: &str) -> Self {
        ContentFilter {
            text: text.to_owned(),
            xpath: None,
        }
    }

    /// The source text the filter was compiled from (the grouping key).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Does `message` pass? An evaluation error rejects, as does a filter
    /// that never compiled.
    pub fn accepts(&self, message: &Element) -> bool {
        self.xpath
            .as_ref()
            .is_some_and(|xp| xp.matches(message, &XPathContext::new()).unwrap_or(false))
    }
}

struct Group {
    filter: ContentFilter,
    members: usize,
}

/// One shard's distinct filters, grouped by text. A group lives in a slab
/// slot for as long as any subscription refers to it; entries hold the slot.
/// A free slot has no members and a filter that matches nothing.
#[derive(Default)]
pub(crate) struct FilterGroups {
    by_text: HashMap<String, usize>,
    slots: Vec<Group>,
    free: Vec<usize>,
}

impl FilterGroups {
    /// Join (or found) the group for `filter`'s text; returns its slot.
    pub(crate) fn join(&mut self, filter: ContentFilter) -> usize {
        if let Some(&slot) = self.by_text.get(filter.text()) {
            self.slots[slot].members += 1;
            return slot;
        }
        let text = filter.text().to_owned();
        let group = Group { filter, members: 1 };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = group;
                slot
            }
            None => {
                self.slots.push(group);
                self.slots.len() - 1
            }
        };
        self.by_text.insert(text, slot);
        slot
    }

    /// One member leaves `slot`; the group goes with its last member.
    pub(crate) fn leave(&mut self, slot: usize) {
        let group = &mut self.slots[slot];
        match group.members {
            0 => {} // free already: nothing refers to it
            1 => {
                group.members = 0;
                let dead = std::mem::replace(&mut group.filter, ContentFilter::matches_nothing(""));
                self.by_text.remove(dead.text());
                self.free.push(slot);
            }
            _ => group.members -= 1,
        }
    }

    /// A fresh per-event verdict memo, one cell per slot.
    pub(crate) fn verdicts(&self) -> Verdicts<'_> {
        Verdicts {
            groups: self,
            memo: vec![None; self.slots.len()],
            evaluations: 0,
        }
    }
}

/// The per-event memo: each distinct filter is evaluated at most once, the
/// first time a candidate refers to it.
pub(crate) struct Verdicts<'a> {
    groups: &'a FilterGroups,
    memo: Vec<Option<bool>>,
    pub(crate) evaluations: u64,
}

impl Verdicts<'_> {
    pub(crate) fn accepts(&mut self, slot: usize, message: &Element) -> bool {
        *self.memo[slot].get_or_insert_with(|| {
            self.evaluations += 1;
            self.groups.slots[slot].filter.accepts(message)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(text: &str) -> ContentFilter {
        ContentFilter::compile(text).unwrap()
    }

    #[test]
    fn shared_text_shares_a_slot_and_is_evaluated_once() {
        let mut groups = FilterGroups::default();
        let a = groups.join(filter("/E[@k='1']"));
        let b = groups.join(filter("/E[@k='1']"));
        let c = groups.join(filter("/E[@k='2']"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let event = Element::new("E").with_attr("k", "1");
        let mut verdicts = groups.verdicts();
        assert!(verdicts.accepts(a, &event));
        assert!(verdicts.accepts(b, &event));
        assert!(!verdicts.accepts(c, &event));
        assert_eq!(verdicts.evaluations, 2);
    }

    #[test]
    fn a_group_leaves_with_its_last_member_and_its_slot_is_reused() {
        let mut groups = FilterGroups::default();
        let a = groups.join(filter("/A"));
        assert_eq!(groups.join(filter("/A")), a);
        groups.leave(a);
        assert_eq!(groups.by_text.len(), 1, "one member still refers to it");
        groups.leave(a);
        assert!(groups.by_text.is_empty());
        groups.leave(a);
        assert_eq!(groups.free, [a], "leaving a free slot frees nothing twice");
        assert!(!groups.verdicts().accepts(a, &Element::new("A")));
        assert_eq!(groups.join(filter("/B")), a, "freed slot reused");
        assert_eq!(groups.slots.len(), 1);
    }

    #[test]
    fn uncompilable_and_erroring_filters_reject() {
        assert!(ContentFilter::compile("///bad").is_err());
        let dead = ContentFilter::matches_nothing("///bad");
        assert!(!dead.accepts(&Element::new("E")));
        assert_eq!(dead.text(), "///bad");
    }
}
