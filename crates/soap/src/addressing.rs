//! The WS-Addressing message-information headers, carried typed like the
//! `wsse:Security` block ([`crate::security`]): one [`AddressingHeader`],
//! written from fixed seams, digested from their canonical twins, read back
//! by [`Reader::read_template`] (one call for the `To`/`Action`/`MessageID`
//! run) or, when the bytes are not the writer's, folded from the trees the
//! events built. It holds exactly the headers whose trees it reproduces:
//! the leading run, then maybe `ReplyTo` (as its tree), then maybe
//! `RelatesTo`, each leaf bare around one non-empty text. Any other header
//! (an attribute, element content, an empty leaf, another order, a repeat,
//! a place after another header) stays a tree in `headers`, in document
//! order. Equality is structural: the block is not equal to its tree
//! spelling, though both write and digest alike.

use std::cell::RefCell;
use std::sync::Arc;

use ogsa_xml::writer::write_subtree_into;
use ogsa_xml::{
    canonicalize_into, escape_runs, ns, Element, Memo, Node, Prefixes, QName, Reader, Sink,
};

use crate::vocab::vocab;

/// The message-information headers of one envelope, their strings shared
/// (a hop's `To` and `Action` repeat; `RelatesTo` is a request's `MessageID`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AddressingHeader {
    pub to: Arc<str>,
    pub action: Arc<str>,
    pub message_id: Arc<str>,
    /// The reply-to endpoint reference as its tree, named `wsa:ReplyTo`.
    pub reply_to: Option<Element>,
    pub relates_to: Option<Arc<str>>,
}

/// Longest text a per-thread memo of the message path keeps as one value,
/// so what peers send cannot pin more than its slots times this on a thread.
pub(crate) const MEMO_MAX_LEN: usize = 512;

/// Slots of the memo [`shared`] reads `wsa:To` and `wsa:Action` through.
const ADDRESSING_MEMO_SLOTS: usize = 256;

thread_local! {
    static SHARED: RefCell<Memo<Arc<str>, ADDRESSING_MEMO_SLOTS>> =
        const { RefCell::new(Memo::EMPTY) };
}

/// `s` as the string this thread made for it before, while its memo holds
/// it: for values that repeat hop after hop (addresses, actions).
pub fn shared(s: &str) -> Arc<str> {
    let short = |_: &_| s.len() <= MEMO_MAX_LEN;
    SHARED.with_borrow_mut(|m| m.get_or(s, |held| **held == *s, || Arc::from(s), short))
}

/// One spelling of the block: the fixed run split at its three values
/// (`[..4]`), and `wsa:RelatesTo` at its one (`[4..]`).
macro_rules! seams {
    ($wsa:literal) => {
        [
            concat!("<", $wsa, "To>"),
            concat!("</", $wsa, "To><", $wsa, "Action>"),
            concat!("</", $wsa, "Action><", $wsa, "MessageID>"),
            concat!("</", $wsa, "MessageID>"),
            concat!("<", $wsa, "RelatesTo>"),
            concat!("</", $wsa, "RelatesTo>"),
        ]
    };
}

/// The wire form, under the prefix `ns::preferred_prefix` gives `wsa`.
const WIRE: [&str; 6] = seams!("wsa:");
/// The canonical form `canonicalize_into` gives the same leaves.
const CANONICAL: [&str; 6] = seams!("{http://schemas.xmlsoap.org/ws/2004/08/addressing}");

impl AddressingHeader {
    /// Write the wire form; `prefixes` binds `wsa` and `reply_to`'s URIs.
    pub(crate) fn write_into<S: Sink>(&self, prefixes: &Prefixes, out: &mut S) {
        self.write_with(&WIRE, out, |r, out| write_subtree_into(r, prefixes, out));
    }

    /// Stream the canonical form of the headers the block stands for: the
    /// bytes `canonicalize_into` gives their trees, one after another.
    pub fn canonicalize_into<S: Sink>(&self, out: &mut S) {
        self.write_with(&CANONICAL, out, canonicalize_into);
    }

    fn write_with<S: Sink>(
        &self,
        seams: &[&str; 6],
        out: &mut S,
        tree: impl FnOnce(&Element, &mut S),
    ) {
        for (seam, value) in seams.iter().zip([&self.to, &self.action, &self.message_id]) {
            out.push_str(seam);
            escape_runs(value, false, out);
        }
        out.push_str(seams[3]);
        if let Some(r) = &self.reply_to {
            tree(r, out);
        }
        if let Some(r) = &self.relates_to {
            out.push_str(seams[4]);
            escape_runs(r, false, out);
            out.push_str(seams[5]);
        }
    }

    /// The headers the block stands for, as trees.
    pub(crate) fn into_trees(self) -> Vec<Element> {
        let leaf =
            |local, text: Arc<str>| Element::text_element(QName::new(ns::WSA, local), &*text);
        let (to, action) = (leaf("To", self.to), leaf("Action", self.action));
        let mut trees = vec![to, action, leaf("MessageID", self.message_id)];
        trees.extend(self.reply_to);
        trees.extend(self.relates_to.map(|r| leaf("RelatesTo", r)));
        trees
    }
}

/// Read the header `reader` just opened into `block` against the wire seams
/// — the run while the block is empty, `RelatesTo` after it — if the bytes
/// are the writer's and no value is empty (an empty leaf is the tree path's).
/// Asked only while no header was read as a tree.
pub(crate) fn read_template(reader: &mut Reader<'_>, block: &mut Option<AddressingHeader>) -> bool {
    let wsa = [("wsa", &vocab().wsa)];
    fn filled(v: &str) -> Option<&str> {
        (!v.is_empty()).then_some(v)
    }
    match block {
        None => {
            let run = reader.read_template(&WIRE[..4], &wsa, |[to, action, id]: [&str; 3]| {
                run(filled(to), filled(action), filled(id))
            });
            run.map(|run| *block = Some(run)).is_some()
        }
        Some(b) if b.relates_to.is_none() => {
            let read = reader.read_template(&WIRE[4..], &wsa, |[r]: [&str; 1]| filled(r));
            b.relates_to = read.map(Arc::from);
            b.relates_to.is_some()
        }
        Some(_) => false,
    }
}

/// Move the trees at the front of `headers` that the block can hold into it:
/// the fixed run if `block` is empty, then `ReplyTo`, then `RelatesTo`.
pub(crate) fn fold(headers: &mut Vec<Element>, block: &mut Option<AddressingHeader>) {
    if block.is_none() {
        let text = |at: usize, local| headers.get(at).and_then(|h| leaf(h, local));
        *block = run(text(0, "To"), text(1, "Action"), text(2, "MessageID"));
        if block.is_some() {
            headers.drain(..3);
        }
    }
    let Some(b) = block else { return };
    if b.reply_to.is_none()
        && b.relates_to.is_none()
        && headers.first().is_some_and(|h| named(h, "ReplyTo"))
    {
        b.reply_to = Some(headers.remove(0));
    }
    if b.relates_to.is_none() {
        b.relates_to = headers
            .first()
            .and_then(|h| leaf(h, "RelatesTo"))
            .map(Arc::from);
        if b.relates_to.is_some() {
            headers.remove(0);
        }
    }
}

/// The block of the fixed run, if all three values are there: `To` and
/// `Action` through the memo, since they repeat hop after hop.
fn run(to: Option<&str>, action: Option<&str>, id: Option<&str>) -> Option<AddressingHeader> {
    let (to, action, message_id) = (shared(to?), shared(action?), Arc::from(id?));
    Some(AddressingHeader {
        to,
        action,
        message_id,
        ..Default::default()
    })
}

fn named(e: &Element, local: &str) -> bool {
    e.name.in_ns(ns::WSA) && *e.name.local == *local
}

/// The text of `e` if it is the leaf `wsa:local` as the block holds it.
fn leaf<'e>(e: &'e Element, local: &str) -> Option<&'e str> {
    match e.children.as_slice() {
        [Node::Text(t)] if named(e, local) && e.attrs.is_empty() && !t.is_empty() => Some(t),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Envelope;
    use ogsa_xml::Event;

    fn block() -> AddressingHeader {
        AddressingHeader {
            to: "http://h/s".into(),
            action: "urn:set".into(),
            message_id: "uuid:m-2".into(),
            reply_to: None,
            relates_to: Some("uuid:m-1".into()),
        }
    }

    /// `To` and `Action` read off two wires are the same strings; a
    /// `MessageID` is read afresh. One too long to keep is not kept, even
    /// past ten thousand addresses.
    #[test]
    fn repeated_values_are_shared() {
        let read = |id: &str| {
            let block = AddressingHeader {
                message_id: id.into(),
                ..block()
            };
            let wire = Envelope::new(Element::new("Ping"))
                .with_addressing(block)
                .to_wire();
            Envelope::from_wire(&wire).unwrap().addressing.unwrap()
        };
        let (one, two) = (read("uuid:m-1"), read("uuid:m-2"));
        assert!(Arc::ptr_eq(&one.to, &two.to) && Arc::ptr_eq(&one.action, &two.action));
        assert_eq!(
            (&*one.message_id, &*two.message_id),
            ("uuid:m-1", "uuid:m-2")
        );
        for host in 0..10_000 {
            shared(&format!("http://h{host}/s"));
        }
        let long = "x".repeat(MEMO_MAX_LEN + 1);
        assert!(!Arc::ptr_eq(&shared(&long), &shared(&long)));
    }

    /// A reader that has just returned `wire`'s first header start tag.
    fn at_first_header(wire: &str) -> Reader<'_> {
        let mut reader = Reader::new(wire);
        loop {
            match reader.next() {
                Ok(Event::Start) if reader.depth() == 3 => return reader,
                Ok(Event::Eof) | Err(_) => panic!("no header in {wire}"),
                _ => {}
            }
        }
    }

    /// The writer's bytes match: the run in one call, `RelatesTo` in a
    /// second, the reader left past both.
    #[test]
    fn the_template_reads_what_the_writer_wrote() {
        let wire = Envelope::new(Element::new("Ping"))
            .with_addressing(block())
            .to_wire();
        let mut reader = at_first_header(&wire);
        let mut read = None;
        assert!(read_template(&mut reader, &mut read));
        assert!(matches!(reader.next(), Ok(Event::Start)));
        assert!(read_template(&mut reader, &mut read));
        assert_eq!(read, Some(block()));
        assert_eq!(reader.next(), Ok(Event::End), "</soap:Header>");
    }

    /// Any other spelling: the template declines having consumed nothing,
    /// and the envelope reads as the trees fold — to the block, or, for an
    /// empty leaf, not.
    #[test]
    fn the_template_declines_other_spellings_and_the_fold_decides() {
        let wire = Envelope::new(Element::new("Ping"))
            .with_addressing(block())
            .to_wire();
        let rebound = wire.replace("wsa:", "a:").replacen(
            "<soap:Header>",
            &format!("<soap:Header xmlns:a=\"{}\">", ns::WSA),
            1,
        );
        for (spelled, folds) in [
            (wire.replacen("http://h/s", "http&#58;//h/s", 1), true),
            (wire.replacen("urn:set", "urn:<!-- c -->set", 1), false),
            (wire.replacen("<wsa:To>", "<wsa:To >", 1), true),
            (rebound, true),
            (wire.replacen("uuid:m-2", "", 1), false),
        ] {
            let mut reader = at_first_header(&spelled);
            let at = reader.offset();
            let mut read = None;
            assert!(!read_template(&mut reader, &mut read), "{spelled}");
            assert_eq!((reader.offset(), read), (at, None), "{spelled}");
            let env = Envelope::from_wire(&spelled).unwrap();
            assert_eq!(env.addressing == Some(block()), folds, "{spelled}");
            assert_eq!(env.headers.is_empty(), folds, "{spelled}");
        }
    }
}
