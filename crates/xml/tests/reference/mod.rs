//! The pre-fast-path parser, kept verbatim as a differential-testing oracle.
//!
//! [`ogsa_xml::parse`] was rewritten to decode text in a single pass
//! (entity resolution fused with end-of-line normalisation, `Cow` until a
//! node is stored). This module preserves the original two-pass
//! implementation — normalise, then unescape, each potentially allocating —
//! so the equivalence proptest corpus can prove the two parsers accept and
//! reject the same inputs and produce identical trees. It is no part of the
//! library: the tests that compare against it include this file by `#[path]`
//! and it sees `ogsa_xml` from outside, as they do.

use std::borrow::Cow;
use std::sync::Arc;

use ogsa_xml::{
    intern, unescape, Attribute, Element, Node, QName, XmlError, XmlResult, MAX_DEPTH,
    MAX_TAG_ATTRS,
};

fn parse_error(offset: usize, message: impl Into<String>) -> XmlError {
    XmlError::Parse {
        offset,
        message: message.into(),
    }
}

/// Parse a complete document (or bare element) into its root [`Element`],
/// using the original two-pass text decoding.
pub fn parse(input: &str) -> XmlResult<Element> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        input,
        pos: 0,
    };
    p.skip_prolog()?;
    let mut scope = NsScope::default();
    let root = p.parse_element(&mut scope, 1)?;
    p.skip_misc();
    if p.pos != p.bytes.len() {
        return Err(parse_error(p.pos, "trailing content after root element"));
    }
    Ok(root)
}

#[derive(Default)]
struct NsScope {
    bindings: Vec<(String, Arc<str>)>,
    default_ns: Vec<Option<Arc<str>>>,
}

impl NsScope {
    fn lookup(&self, prefix: &str) -> Option<Arc<str>> {
        if prefix == "xml" {
            return Some(intern("http://www.w3.org/XML/1998/namespace"));
        }
        self.bindings
            .iter()
            .rev()
            .find(|(p, _)| p == prefix)
            .map(|(_, uri)| uri.clone())
    }

    fn default_uri(&self) -> Option<Arc<str>> {
        self.default_ns.last().cloned().flatten()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> XmlResult<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(parse_error(self.pos, format!("expected `{s}`")))
        }
    }

    fn skip_prolog(&mut self) -> XmlResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!DOCTYPE") {
                return Err(parse_error(self.pos, "DTDs are not accepted"));
            } else {
                return Ok(());
            }
        }
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_comment().is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_comment(&mut self) -> XmlResult<()> {
        debug_assert!(self.starts_with("<!--"));
        let end = self.input[self.pos + 4..]
            .find("-->")
            .ok_or_else(|| parse_error(self.pos, "unterminated comment"))?;
        check_chars(&self.input[self.pos + 4..self.pos + 4 + end], self.pos + 4)?;
        self.pos += 4 + end + 3;
        Ok(())
    }

    fn skip_pi(&mut self) -> XmlResult<()> {
        let end = self.input[self.pos..]
            .find("?>")
            .ok_or_else(|| parse_error(self.pos, "unterminated processing instruction"))?;
        check_chars(&self.input[self.pos..self.pos + end], self.pos)?;
        self.pos += end + 2;
        Ok(())
    }

    fn read_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let c = b as char;
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(parse_error(start, "expected a name"));
        }
        check_chars(&self.input[start..self.pos], start)?;
        Ok(&self.input[start..self.pos])
    }

    /// Parse the element at `depth` (the root is at 1), as deep as
    /// `MAX_DEPTH` allows.
    fn parse_element(&mut self, scope: &mut NsScope, depth: usize) -> XmlResult<Element> {
        let open_pos = self.pos;
        if depth > MAX_DEPTH {
            return Err(parse_error(
                open_pos,
                format!("elements nested more than {MAX_DEPTH} deep"),
            ));
        }
        self.expect("<")?;
        let raw_name = self.read_name()?;

        let mut raw_attrs: Vec<(&'a str, String)> = Vec::new();
        let bindings_mark = scope.bindings.len();
        let mut pushed_default = false;
        let mut carried = 0;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    let elem =
                        self.finish_element(raw_name, raw_attrs, Vec::new(), scope, open_pos)?;
                    self.pop_scope(scope, bindings_mark, pushed_default);
                    return Ok(elem);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    carried += 1;
                    if carried > MAX_TAG_ATTRS {
                        return Err(parse_error(
                            open_pos,
                            format!("more than {MAX_TAG_ATTRS} attributes on one start tag"),
                        ));
                    }
                    let attr_name = self.read_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.read_quoted()?;
                    if attr_name == "xmlns" {
                        if !pushed_default {
                            pushed_default = true;
                            scope.default_ns.push(None);
                        }
                        *scope.default_ns.last_mut().unwrap() = if value.is_empty() {
                            None
                        } else {
                            Some(intern(&value))
                        };
                    } else if let Some(prefix) = attr_name.strip_prefix("xmlns:") {
                        scope.bindings.push((prefix.to_owned(), intern(&value)));
                    } else {
                        raw_attrs.push((attr_name, value));
                    }
                }
                None => return Err(parse_error(self.pos, "unterminated start tag")),
            }
        }

        let mut children = Vec::new();
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close_name = self.read_name()?;
                self.skip_ws();
                self.expect(">")?;
                if close_name != raw_name {
                    return Err(XmlError::TagMismatch {
                        expected: raw_name.to_owned(),
                        found: close_name.to_owned(),
                        offset: self.pos,
                    });
                }
                let elem = self.finish_element(raw_name, raw_attrs, children, scope, open_pos)?;
                self.pop_scope(scope, bindings_mark, pushed_default);
                return Ok(elem);
            } else if self.starts_with("<!--") {
                let start = self.pos + 4;
                let end = self.input[start..]
                    .find("-->")
                    .ok_or_else(|| parse_error(self.pos, "unterminated comment"))?;
                check_chars(&self.input[start..start + end], start)?;
                children.push(Node::Comment(self.input[start..start + end].to_owned()));
                self.pos = start + end + 3;
            } else if self.starts_with("<![CDATA[") {
                let start = self.pos + 9;
                let end = self.input[start..]
                    .find("]]>")
                    .ok_or_else(|| parse_error(self.pos, "unterminated CDATA"))?;
                check_chars(&self.input[start..start + end], start)?;
                children.push(Node::Text(self.input[start..start + end].to_owned()));
                self.pos = start + end + 3;
            } else if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.peek() == Some(b'<') {
                children.push(Node::Element(self.parse_element(scope, depth + 1)?));
            } else if self.peek().is_some() {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                check_chars(&self.input[start..self.pos], start)?;
                let raw = normalize_eol(&self.input[start..self.pos]);
                let text = match raw {
                    Cow::Borrowed(raw) => unescape(raw, start)?.into_owned(),
                    Cow::Owned(raw) => unescape(&raw, start)?.into_owned(),
                };
                children.push(Node::Text(text));
            } else {
                return Err(parse_error(
                    self.pos,
                    "unexpected end of input in element content",
                ));
            }
        }
    }

    fn pop_scope(&self, scope: &mut NsScope, bindings_mark: usize, pushed_default: bool) {
        scope.bindings.truncate(bindings_mark);
        if pushed_default {
            scope.default_ns.pop();
        }
    }

    fn finish_element(
        &self,
        raw_name: &str,
        raw_attrs: Vec<(&str, String)>,
        children: Vec<Node>,
        scope: &NsScope,
        open_pos: usize,
    ) -> XmlResult<Element> {
        let name = self.resolve(raw_name, scope, true, open_pos)?;
        let mut attrs = Vec::with_capacity(raw_attrs.len());
        for (raw, value) in raw_attrs {
            let name = self.resolve(raw, scope, false, open_pos)?;
            if attrs.iter().any(|a: &Attribute| a.name == name) {
                return Err(parse_error(
                    open_pos,
                    format!("duplicate attribute `{raw}`"),
                ));
            }
            attrs.push(Attribute { name, value });
        }
        Ok(Element {
            name,
            attrs,
            children,
        })
    }

    fn resolve(
        &self,
        raw: &str,
        scope: &NsScope,
        is_element: bool,
        offset: usize,
    ) -> XmlResult<QName> {
        match raw.split_once(':') {
            Some((prefix, local)) => {
                let uri = scope
                    .lookup(prefix)
                    .ok_or_else(|| XmlError::UnboundPrefix {
                        prefix: prefix.to_owned(),
                        offset,
                    })?;
                Ok(QName {
                    ns: Some(uri),
                    local: Arc::from(local),
                })
            }
            None => Ok(QName {
                ns: if is_element {
                    scope.default_uri()
                } else {
                    None
                },
                local: Arc::from(raw),
            }),
        }
    }

    fn read_quoted(&mut self) -> XmlResult<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(parse_error(self.pos, "expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = &self.input[start..self.pos];
                check_chars(raw, start)?;
                self.pos += 1;
                return Ok(match normalize_attr_ws(raw) {
                    Cow::Borrowed(raw) => unescape(raw, start)?.into_owned(),
                    Cow::Owned(raw) => unescape(&raw, start)?.into_owned(),
                });
            }
            self.pos += 1;
        }
        Err(parse_error(start, "unterminated attribute value"))
    }
}

/// XML 1.0 §2.2: refuse a literal character outside `Char`, one `char` at
/// a time.
fn check_chars(raw: &str, offset: usize) -> XmlResult<()> {
    let bad = raw.char_indices().find(|&(_, c)| {
        !matches!(c, '\t' | '\n' | '\r' | ' '..='\u{D7FF}' | '\u{E000}'..='\u{FFFD}' | '\u{10000}'..)
    });
    match bad {
        Some((at, _)) => Err(parse_error(offset + at, "character outside XML 1.0 `Char`")),
        None => Ok(()),
    }
}

/// XML 1.0 §2.11 end-of-line handling: `\r\n` and bare `\r` become `\n`.
fn normalize_eol(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\r') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut bytes = raw.chars().peekable();
    while let Some(c) = bytes.next() {
        if c == '\r' {
            if bytes.peek() == Some(&'\n') {
                bytes.next();
            }
            out.push('\n');
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

/// XML 1.0 §3.3.3 attribute-value normalisation for literal whitespace.
fn normalize_attr_ws(raw: &str) -> Cow<'_, str> {
    if !raw.bytes().any(|b| matches!(b, b'\t' | b'\n' | b'\r')) {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\r' => {
                if chars.peek() == Some(&'\n') {
                    chars.next();
                }
                out.push(' ');
            }
            '\t' | '\n' => out.push(' '),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}
