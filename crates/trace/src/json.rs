//! JSON for the workspace: a value tree, a streaming writer and a lexer
//! that reads documents into trees or in place.
//!
//! The workspace builds offline and has no external dependencies, so
//! there is no serde; this module is the single JSON substrate shared by
//! the Chrome-trace exporter, the serve protocol, the metrics documents
//! and the `repro --json` artefact output.
//!
//! * [`JsonWriter`] is the one formatter. It takes open/close, key and
//!   scalar calls in document order and renders compactly or with
//!   two-space indentation into a buffer reserved once. Artefacts of a
//!   fixed shape (the paper's figures and tables) stream straight into it.
//!   Its numbers come from one in-repo writer (Schubfach's shortest
//!   round-trip digits, laid out as std's `{}` lays them out) that is
//!   byte for byte what `format!("{x}")` prints, `-0.0` as `0` aside: a
//!   unit test compares the two over millions of seeded values and reads
//!   every one back with its bits.
//! * [`Json`] is a tree for documents built or inspected piecemeal;
//!   [`Json::render`] and [`Json::pretty`] stream it through the writer.
//!   Object keys keep insertion order, so rendered output is
//!   deterministic.
//! * One lexer reads JSON text. It yields strings borrowed from the text
//!   unless they hold an escape, and it alone decides what is valid and
//!   which error, at which byte, a malformed document gets.
//!   [`Json::parse`] builds a tree from its tokens. [`read_members`] hands
//!   a top-level object's members over as [`JsonRef`]s instead: scalars
//!   decoded, strings borrowed, nested values validated and kept as spans
//!   of the text. A caller that reads a few fields of a line (the serve
//!   protocol, the fleet router) thus allocates only for what it keeps.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

mod number;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A copy with every object's keys sorted, recursively (stable, so
    /// the first occurrence of a duplicated key keeps winning `get`).
    /// Use wherever rendered text feeds a content hash: semantically
    /// identical documents then hash identically regardless of the key
    /// order the client happened to send.
    pub fn canonical(&self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.iter().map(Json::canonical).collect()),
            Json::Obj(pairs) => {
                let mut pairs: Vec<(String, Json)> =
                    pairs.iter().map(|(k, v)| (k.clone(), v.canonical())).collect();
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(pairs)
            }
            other => other.clone(),
        }
    }

    /// Render compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut w = JsonWriter::compact(0);
        self.write(&mut w);
        w.finish()
    }

    /// Render with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut w = JsonWriter::pretty(0);
        self.write(&mut w);
        w.finish()
    }

    /// Write this value through `w` as the next value of the document it
    /// is writing, so a fixed envelope can stream around a tree.
    pub fn write(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.number(*n),
            Json::Str(s) => w.string(s),
            Json::Arr(items) => {
                w.open_array();
                for item in items {
                    item.write(w);
                }
                w.close_array()
            }
            Json::Obj(pairs) => {
                w.open_object();
                for (k, v) in pairs {
                    w.key(k);
                    v.write(w);
                }
                w.close_object()
            }
        };
    }

    /// Parse a JSON document. Returns a description of the first error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut lx = Lexer::new(text);
        let token = lx.value()?;
        let value = lx.tree(token)?;
        lx.end()?;
        Ok(value)
    }
}

/// Two-space indentation is copied out of this in slices.
const SPACES: &str = "                                                                ";

/// A streaming JSON writer: the one formatter behind [`Json::render`] and
/// [`Json::pretty`], and what artefacts with a fixed shape render through
/// directly, without building a [`Json`] tree first.
///
/// Values are written in document order: `open_*`/`close_*` bracket
/// containers, [`key`](Self::key) precedes each object member's value, and
/// [`string`](Self::string), [`number`](Self::number), [`bool`](Self::bool)
/// and [`null`](Self::null) write scalars. The writer places commas,
/// newlines and indentation itself, and its output is byte-identical to
/// the tree renderer for the same sequence of values. The caller's
/// capacity is reserved up front; unescaped string runs and indentation
/// are copied as slices.
pub struct JsonWriter {
    out: String,
    /// Two-space indentation, or compact.
    pretty: bool,
    depth: usize,
    /// The innermost open container already holds an item.
    has_items: bool,
    /// A key was written and its value is next.
    after_key: bool,
}

impl JsonWriter {
    /// A writer rendering compactly, with `capacity` bytes reserved.
    pub fn compact(capacity: usize) -> JsonWriter {
        JsonWriter::new(false, capacity)
    }

    /// A writer rendering with two-space indentation, with `capacity`
    /// bytes reserved.
    pub fn pretty(capacity: usize) -> JsonWriter {
        JsonWriter::new(true, capacity)
    }

    fn new(pretty: bool, capacity: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(capacity),
            pretty,
            depth: 0,
            has_items: false,
            after_key: false,
        }
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        self.out
    }

    /// Open an object.
    pub fn open_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Close the innermost object.
    pub fn close_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Open an array.
    pub fn open_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Close the innermost array.
    pub fn close_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Write an object member's key; its value is the next thing written.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        write_escaped(&mut self.out, key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// Write a string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.item();
        write_escaped(&mut self.out, s);
        self
    }

    /// Write a number; non-finite values render as `null`, integral ones
    /// below 1e15 in magnitude without a fraction, and every other one as
    /// std's `{}` prints it: the shortest digits that read back as the
    /// same `f64`, without an exponent.
    pub fn number(&mut self, n: f64) -> &mut Self {
        self.item();
        if n.is_finite() {
            number::write(&mut self.out, n);
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.item();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Write `null`.
    pub fn null(&mut self) -> &mut Self {
        self.item();
        self.out.push_str("null");
        self
    }

    /// Start a value: the separator and indentation it needs inside its
    /// container, or nothing after a key or at the top level.
    fn item(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if self.depth > 0 {
            if self.has_items {
                self.out.push(',');
            }
            self.newline();
        }
        self.has_items = true;
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.has_items = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        debug_assert!(self.depth > 0, "close without a matching open");
        self.depth -= 1;
        if self.has_items {
            self.newline();
        }
        self.out.push(bracket);
        // The enclosing container holds at least the one just closed.
        self.has_items = true;
        self
    }

    /// In pretty mode, a newline and the current depth's indentation.
    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            let mut n = 2 * self.depth;
            while n > 0 {
                let run = n.min(SPACES.len());
                self.out.push_str(&SPACES[..run]);
                n -= run;
            }
        }
    }
}

/// Append `s` as a quoted JSON string. Runs of bytes that need no escape
/// are copied as slices; every byte that needs one is ASCII, so each
/// slice boundary is a char boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A value's first token: a scalar read whole, or a container's opening
/// bracket (its items follow through [`Lexer::next_item`] or
/// [`Lexer::next_key`]).
enum Token<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    ArrOpen,
    ObjOpen,
}

/// The one JSON grammar: a cursor over a document that reads it token by
/// token. [`Json::parse`] builds a tree from the tokens, [`read_members`]
/// keeps an object's members as borrowed pieces of the text; both take
/// their error texts and byte offsets from here.
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

// The token methods are inlined into every caller: a request line is a
// few dozen tokens, and a call per token costs as much as reading one.
impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer { text, pos: 0 }
    }

    /// Step past the bytes `keep` accepts, from the cursor on.
    #[inline(always)]
    fn run(&mut self, keep: impl Fn(u8) -> bool) {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while pos < bytes.len() && keep(bytes[pos]) {
            pos += 1;
        }
        self.pos = pos;
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        self.run(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    /// The first token of the next value.
    #[inline(always)]
    fn value(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        match bytes.get(self.pos) {
            None => Err(error(format_args!("unexpected end of input at byte {}", self.pos))),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'"') => self.string().map(Token::Str),
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::ArrOpen)
            }
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::ObjOpen)
            }
            Some(_) => self.number().map(Token::Num),
        }
    }

    /// Inside an open array: whether another item follows, consuming the
    /// separator before it or the closing bracket. `first` is true right
    /// after the opening bracket.
    #[inline(always)]
    fn next_item(&mut self, first: bool) -> Result<bool, String> {
        self.skip_ws();
        match self.text.as_bytes().get(self.pos) {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(error(format_args!("expected ',' or ']' at byte {}", self.pos))),
        }
    }

    /// Inside an open object: the next member's key with its `:` consumed,
    /// or `None` at the closing brace. `first` is true right after the
    /// opening brace.
    #[inline(always)]
    fn next_key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        match self.text.as_bytes().get(self.pos) {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => self.pos += 1,
            _ => return Err(error(format_args!("expected ',' or '}}' at byte {}", self.pos))),
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if self.text.as_bytes().get(self.pos) != Some(&b':') {
            return Err(error(format_args!("expected ':' at byte {}", self.pos)));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// The rest of the value `token` began: a container's items are read
    /// through its closing bracket and dropped.
    fn skip(&mut self, token: Token<'a>) -> Result<(), String> {
        match token {
            Token::ArrOpen => {
                let mut first = true;
                while self.next_item(first)? {
                    first = false;
                    let item = self.value()?;
                    self.skip(item)?;
                }
            }
            Token::ObjOpen => {
                let mut first = true;
                while self.next_key(first)?.is_some() {
                    first = false;
                    let value = self.value()?;
                    self.skip(value)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The value `token` began, as a tree.
    fn tree(&mut self, token: Token<'a>) -> Result<Json, String> {
        Ok(match token {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Num(n) => Json::Num(n),
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::ArrOpen => {
                let mut items = Vec::new();
                while self.next_item(items.is_empty())? {
                    let item = self.value()?;
                    items.push(self.tree(item)?);
                }
                Json::Arr(items)
            }
            Token::ObjOpen => {
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key(pairs.is_empty())? {
                    let value = self.value()?;
                    pairs.push((key.into_owned(), self.tree(value)?));
                }
                Json::Obj(pairs)
            }
        })
    }

    /// Nothing but whitespace may follow the document.
    #[inline(always)]
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(error(format_args!("trailing input at byte {}", self.pos)));
        }
        Ok(())
    }

    #[inline(always)]
    fn literal(&mut self, lit: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(token)
        } else {
            Err(error(format_args!("invalid literal at byte {}", self.pos)))
        }
    }

    /// A quoted string, borrowed from the text unless it holds an escape.
    /// Runs between escapes end at a `"` or `\\`, which are ASCII, so
    /// every slice boundary is a char boundary.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        if bytes.get(self.pos) != Some(&b'"') {
            return Err(error(format_args!("expected string at byte {}", self.pos)));
        }
        let open = self.pos;
        self.pos += 1;
        // The common case first: no escape, so the string is a slice.
        let start = self.pos;
        let mut pos = start;
        while let Some(&b) = bytes.get(pos) {
            if b == b'"' {
                self.pos = pos + 1;
                return Ok(Cow::Borrowed(&text[start..pos]));
            }
            if b == b'\\' {
                break;
            }
            pos += 1;
        }
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            self.run(|b| b != b'"' && b != b'\\');
            let run = &text[run..self.pos];
            match bytes.get(self.pos) {
                None => {
                    return Err(error(format_args!("unterminated string at byte {open}")));
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                _ => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits, all ASCII, so the
                            // slice below is on char boundaries.
                            let hex = self.pos + 1..self.pos + 5;
                            if !bytes
                                .get(hex.clone())
                                .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit))
                            {
                                return Err(error(format_args!(
                                    "bad \\u escape at byte {}",
                                    self.pos
                                )));
                            }
                            let code =
                                u32::from_str_radix(&text[hex], 16).expect("four hex digits parse");
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(error(format_args!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// A number, as RFC 8259 spells it:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. The error names
    /// the run of number characters (`[0-9+.eE-]`) that starts here.
    #[inline(always)]
    fn number(&mut self) -> Result<f64, String> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let start = self.pos;
        self.run(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
        let (num, end) = (&text[start..self.pos], self.pos);
        let digits = |pos: &mut usize| {
            let from = *pos;
            while *pos < end && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
            *pos - from
        };
        let mut pos = start + usize::from(bytes.get(start) == Some(&b'-'));
        let int = pos;
        let int_digits = digits(&mut pos);
        let mut valid = int_digits == 1 || (int_digits > 1 && bytes[int] != b'0');
        let integer = pos == end;
        if valid && bytes.get(pos) == Some(&b'.') {
            pos += 1;
            valid = digits(&mut pos) > 0;
        }
        if valid && matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            valid = digits(&mut pos) > 0;
        }
        if !valid || pos != end {
            return Err(error(format_args!("invalid number {num:?} at byte {start}")));
        }
        // Up to 15 digits is an integer below 2^53, which converts to f64
        // exactly: the value `parse` would round to, at a fraction of its
        // cost.
        if integer && int == start && int_digits <= 15 {
            return Ok(num.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0')) as f64);
        }
        Ok(num.parse::<f64>().expect("an RFC 8259 number parses"))
    }
}

/// A lexer error's text, built off the hot path.
#[cold]
#[inline(never)]
fn error(message: fmt::Arguments<'_>) -> String {
    message.to_string()
}

/// One value of a document read in place by [`read_members`]: a scalar
/// decoded, a string borrowed from the text unless it holds an escape, and
/// an array or object validated and kept as its span of the text.
#[derive(Clone, PartialEq)]
pub enum JsonRef<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array: its text, brackets included.
    Arr(&'a str),
    /// An object: its text, braces included.
    Obj(&'a str),
}

impl JsonRef<'_> {
    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonRef::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a tree; an array or object is parsed from its span.
    pub fn to_json(&self) -> Json {
        match self {
            JsonRef::Null => Json::Null,
            JsonRef::Bool(b) => Json::Bool(*b),
            JsonRef::Num(n) => Json::Num(*n),
            JsonRef::Str(s) => Json::Str(s.to_string()),
            JsonRef::Arr(span) | JsonRef::Obj(span) => {
                Json::parse(span).expect("a container span was validated when it was read")
            }
        }
    }
}

/// Debug-prints as the [`Json`] value it stands for, so a message quoting
/// a value reads the same whichever way it was parsed.
impl fmt::Debug for JsonRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_json().fmt(f)
    }
}

/// Read `text` as one JSON document and hand each member of its top-level
/// object to `member` in document order, keys and values as [`JsonRef`]s
/// borrowed from `text`. Nested values are validated as they are read, so
/// an error anywhere is the one [`Json::parse`] reports, at the same byte;
/// members read before it have been handed over already. `Ok(false)`: the
/// document is valid but not an object.
pub fn read_members<'a>(
    text: &'a str,
    mut member: impl FnMut(Cow<'a, str>, JsonRef<'a>),
) -> Result<bool, String> {
    let mut lx = Lexer::new(text);
    let token = lx.value()?;
    let is_object = matches!(token, Token::ObjOpen);
    if is_object {
        let mut first = true;
        while let Some(key) = lx.next_key(first)? {
            first = false;
            lx.skip_ws();
            let start = lx.pos;
            let value = match lx.value()? {
                Token::Null => JsonRef::Null,
                Token::Bool(b) => JsonRef::Bool(b),
                Token::Num(n) => JsonRef::Num(n),
                Token::Str(s) => JsonRef::Str(s),
                Token::ArrOpen => {
                    lx.skip(Token::ArrOpen)?;
                    JsonRef::Arr(&text[start..lx.pos])
                }
                Token::ObjOpen => {
                    lx.skip(Token::ObjOpen)?;
                    JsonRef::Obj(&text[start..lx.pos])
                }
            };
            member(key, value);
        }
    } else {
        lx.skip(token)?;
    }
    lx.end()?;
    Ok(is_object)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let value = Json::obj(vec![
            ("name", Json::str("fig2 \"trace\"")),
            ("pi", Json::Num(3.25)),
            ("n", Json::Num(64.0)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("tab", Json::str("a\tb"))])),
        ]);
        let compact = value.render();
        let parsed = Json::parse(&compact).expect("parses");
        assert_eq!(parsed, value);
        let pretty = value.pretty();
        assert_eq!(Json::parse(&pretty).expect("pretty parses"), value);
    }

    #[test]
    fn canonical_sorts_keys_recursively_and_stably() {
        let a = Json::parse(r#"{"b": {"y": 1, "x": 2}, "a": [{"q": 1, "p": 2}]}"#).unwrap();
        let b = Json::parse(r#"{"a": [{"p": 2, "q": 1}], "b": {"x": 2, "y": 1}}"#).unwrap();
        assert_eq!(a.canonical().render(), b.canonical().render());
        // Duplicate keys: the first occurrence (the one `get` returns)
        // stays ahead of the duplicate.
        let dup = Json::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(dup.canonical().render(), r#"{"k":1,"k":2}"#);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(64.0).render(), "64");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn end_of_input_errors_name_their_byte() {
        let err = |text: &str| Json::parse(text).unwrap_err();
        assert_eq!(err("  "), "unexpected end of input at byte 2");
        assert_eq!(err(r#"{"a":"#), "unexpected end of input at byte 5");
        // An unterminated string is named by its opening quote, escaped or not.
        assert_eq!(err(r#"["x", "ab"#), "unterminated string at byte 6");
        assert_eq!(err(r#"["a\n"#), "unterminated string at byte 1");
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = Json::parse(r#"{"a": [1, 2.5], "b": "x"}"#).unwrap();
        assert_eq!(v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()), Some(2));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").and_then(|b| b.as_str()), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    /// The renderer the streaming writer replaced, kept as its oracle:
    /// a recursive walk that escapes one char at a time and pads with
    /// repeated spaces.
    fn reference(value: &Json, indent: Option<usize>) -> String {
        fn escaped(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        fn seq<T>(
            out: &mut String,
            indent: Option<usize>,
            depth: usize,
            brackets: (char, char),
            items: &[T],
            mut item: impl FnMut(&mut String, &T),
        ) {
            out.push(brackets.0);
            if items.is_empty() {
                out.push(brackets.1);
                return;
            }
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(width) = indent {
                    out.push('\n');
                    out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
                }
                item(out, it);
            }
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
            out.push(brackets.1);
        }
        fn walk(out: &mut String, v: &Json, indent: Option<usize>, depth: usize) {
            match v {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(n) if !n.is_finite() => out.push_str("null"),
                Json::Num(n) if *n == n.trunc() && n.abs() < 1e15 => {
                    let _ = write!(out, "{}", *n as i64);
                }
                Json::Num(n) => {
                    let _ = write!(out, "{n}");
                }
                Json::Str(s) => escaped(out, s),
                Json::Arr(items) => seq(out, indent, depth, ('[', ']'), items, |out, v| {
                    walk(out, v, indent, depth + 1)
                }),
                Json::Obj(pairs) => seq(out, indent, depth, ('{', '}'), pairs, |out, (k, v)| {
                    escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    walk(out, v, indent, depth + 1);
                }),
            }
        }
        let mut out = String::new();
        walk(&mut out, value, indent, 0);
        out
    }

    fn gen_string(g: &mut rvhpc_quickprop::Gen) -> String {
        const CHARS: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '€', '𝄞',
        ];
        let len = g.usize_in(0..=12);
        (0..len).map(|_| *g.choose(&CHARS)).collect()
    }

    fn gen_number(g: &mut rvhpc_quickprop::Gen) -> f64 {
        match g.usize_in(0..=7) {
            0 => g.i64_in(-1_000_000..=1_000_000) as f64,
            1 => *g.choose(&[1e15, -1e15, 999_999_999_999_999.0, 2f64.powi(53) + 2.0, 1e300]),
            2 => -0.0,
            3 => *g.choose(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            4 => *g.choose(&[f64::MIN_POSITIVE, 5e-324, f64::MAX, f64::MIN]),
            _ => f64::from_bits(g.u64()),
        }
    }

    fn gen_doc(g: &mut rvhpc_quickprop::Gen, depth: usize) -> Json {
        let leaf = depth == 0 || g.bool_with(0.4);
        match g.usize_in(if leaf { 0..=3 } else { 4..=5 }) {
            0 => Json::Null,
            1 => Json::Bool(g.bool_with(0.5)),
            2 => Json::Num(gen_number(g)),
            3 => Json::Str(gen_string(g)),
            4 => Json::Arr((0..g.usize_in(0..=4)).map(|_| gen_doc(g, depth - 1)).collect()),
            _ => Json::Obj(
                (0..g.usize_in(0..=4)).map(|_| (gen_string(g), gen_doc(g, depth - 1))).collect(),
            ),
        }
    }

    /// What a document reads back as: non-finite numbers render as `null`.
    fn as_parsed(v: &Json) -> Json {
        match v {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(as_parsed).collect()),
            Json::Obj(pairs) => {
                Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), as_parsed(v))).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn streaming_writer_matches_the_reference_renderer_and_round_trips() {
        rvhpc_quickprop::run_cases(512, |g| {
            let doc = gen_doc(g, 4);
            let (compact, pretty) = (doc.render(), doc.pretty());
            assert_eq!(compact, reference(&doc, None));
            assert_eq!(pretty, reference(&doc, Some(2)));
            let back = as_parsed(&doc);
            assert_eq!(Json::parse(&compact).expect("compact parses"), back, "{compact}");
            assert_eq!(Json::parse(&pretty).expect("pretty parses"), back, "{pretty}");
        });
    }

    #[test]
    fn writer_calls_render_like_the_tree() {
        let tree = Json::obj(vec![
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("nested", Json::Arr(vec![Json::Arr(vec![Json::Num(-0.0)]), Json::Obj(vec![])])),
            ("s", Json::str("q\"b\\c\u{1}é")),
        ]);
        for (mut w, expected) in
            [(JsonWriter::compact(64), tree.render()), (JsonWriter::pretty(64), tree.pretty())]
        {
            w.open_object();
            w.key("empty_arr").open_array().close_array();
            w.key("empty_obj").open_object().close_object();
            w.key("nested").open_array();
            w.open_array().number(-0.0).close_array();
            w.open_object().close_object();
            w.close_array();
            w.key("s").string("q\"b\\c\u{1}é");
            w.close_object();
            assert_eq!(w.finish(), expected);
        }
        assert_eq!(
            tree.render(),
            r#"{"empty_arr":[],"empty_obj":{},"nested":[[0],{}],"s":"q\"b\\c\u0001é"}"#
        );
    }

    #[test]
    fn read_members_agrees_with_the_tree_and_its_errors() {
        rvhpc_quickprop::run_cases(512, |g| {
            let doc = gen_doc(g, 4);
            let mut text = if g.bool_with(0.5) { doc.render() } else { doc.pretty() };
            match g.usize_in(0..=3) {
                0 if !text.is_empty() => {
                    let mut at = g.usize_in(0..=text.len() - 1);
                    while !text.is_char_boundary(at) {
                        at -= 1;
                    }
                    text.truncate(at);
                }
                1 => text.push_str(g.choose::<&str>(&["x", " ]", "}", ",", " 1", "\"", "  "])),
                _ => {}
            }
            let mut members = Vec::new();
            let read = read_members(&text, |k, v| members.push((k.into_owned(), v.to_json())));
            match (Json::parse(&text), read) {
                (Ok(Json::Obj(pairs)), Ok(true)) => assert_eq!(members, pairs, "{text}"),
                (Ok(tree), Ok(false)) => assert!(!matches!(tree, Json::Obj(_)), "{text}"),
                (Err(tree), Err(read)) => assert_eq!(read, tree, "{text}"),
                (tree, read) => panic!("{text}: tree {tree:?}, members {read:?}"),
            }
        });
    }

    #[test]
    fn members_borrow_unescaped_strings_and_keep_containers_as_spans() {
        let text = r#"{"a\u0041": "plain", "b": "esc\n", "c": [1, {"d": 2}] , "e": {}}"#;
        let mut members = Vec::new();
        assert_eq!(read_members(text, |k, v| members.push((k, v))), Ok(true));
        assert!(matches!(&members[0].0, Cow::Owned(k) if k == "aA"));
        assert!(matches!(&members[0].1, JsonRef::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&members[1].1, JsonRef::Str(Cow::Owned(s)) if s == "esc\n"));
        assert_eq!(members[2].1, JsonRef::Arr(r#"[1, {"d": 2}]"#));
        assert_eq!(members[3].1, JsonRef::Obj("{}"));
        assert_eq!(
            format!("{:?}", members[2].1),
            format!("{:?}", Json::parse(r#"[1,{"d":2}]"#).unwrap())
        );
        assert_eq!(format!("{:?}", JsonRef::Num(1.5)), "Num(1.5)");
    }

    #[test]
    fn numbers_and_u_escapes_follow_rfc_8259() {
        for (text, want) in [
            ("0", 0.0_f64),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("1.5", 1.5),
            ("-0.25", -0.25),
            ("1e2", 100.0),
            ("1E+2", 100.0),
            ("25e-1", 2.5),
            ("0.5e1", 5.0),
            ("999999999999999", 999_999_999_999_999.0),
            ("12345678901234567890", 12_345_678_901_234_567_890.0),
        ] {
            let got = Json::parse(text).ok().and_then(|v| v.as_f64());
            assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "{text}");
        }
        for text in ["+1", ".5", "01", "-01", "00", "1.", "-", "1e", "1e+", "1.e5", "1-2", "--1"] {
            let doc = format!("[{text}]");
            assert_eq!(
                Json::parse(&doc),
                Err(format!("invalid number {text:?} at byte 1")),
                "{doc}"
            );
        }
        for (text, at) in
            [(r#""\u+041""#, 2), (r#""\u00""#, 2), (r#""ab\u00€""#, 4), (r#""\u12g4""#, 2)]
        {
            assert_eq!(Json::parse(text), Err(format!("bad \\u escape at byte {at}")), "{text}");
        }
    }

    #[test]
    fn parse_copies_multibyte_runs_and_rejects_bad_escapes() {
        let v = Json::parse(r#"["€𝄞 é", "a\u00e9b\"\\/", ""]"#).unwrap();
        assert_eq!(v, Json::Arr(vec![Json::str("€𝄞 é"), Json::str("aéb\"\\/"), Json::str("")]));
        assert!(Json::parse(r#""\u00""#).is_err());
        assert!(Json::parse(r#""\u00€""#).is_err());
        assert!(Json::parse(r#""\x""#).is_err());
        assert!(Json::parse(r#""ends in escape\"#).is_err());
    }
}
