//! The workspace's one JSON codec: a value tree, a parser and a writer for
//! the line-oriented files the tools exchange — `--stats` snapshots
//! ([`crate::install`]) and the experiment executor's checkpoint cells.
//!
//! Two properties the callers lean on:
//!
//! * **Numbers read back exactly.** A [`Value::Num`] keeps its source
//!   token, so a `u64` counter above 2⁵³ and an `f64` written with `{:?}`
//!   (Rust's shortest round-trip form) both parse to the bits that were
//!   written. The bare tokens `NaN`, `inf` and `-inf` are accepted as
//!   numbers because the checkpoint format writes them.
//! * **Hostile input is an `Err`, never a panic.** A killed run truncates
//!   its last line anywhere; [`parse`] rejects every strict prefix of a
//!   document that ends in a closing bracket or quote, and nesting is
//!   capped so a line of `[[[[…` cannot exhaust the stack.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// Deepest nesting [`parse`] accepts (the sink's own lines nest 4 deep).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the token it was written with.
    Num(String),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first field named `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Obj(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A number read as `T`: exact for a `u64` written as an integer and
    /// for an `f64` (including `NaN` / `inf` / `-inf`); `None` for a
    /// token `T` cannot hold, e.g. `-1` or `2.5` as a `u64`.
    pub fn as_num<T: FromStr>(&self) -> Option<T> {
        let Value::Num(token) = self else { return None };
        token.parse().ok()
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else { return None };
        Some(s)
    }
}

/// Parses one complete JSON document; anything left over after it other
/// than whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error("trailing bytes after the value")),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.pos = self.text.len() - self.text[self.pos..].trim_start().len();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() != Some(byte) {
            return Err(self.error(&format!("expected '{}'", byte as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth < MAX_DEPTH => self.container(depth + 1),
            Some(b'{' | b'[') => Err(self.error("nesting too deep")),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(_) => self.scalar(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// An object or array, from its opening bracket (under the cursor)
    /// through the matching close.
    fn container(&mut self, depth: usize) -> Result<Value, String> {
        let object = self.peek() == Some(b'{');
        let close = if object { b'}' } else { b']' };
        let (mut fields, mut items) = (Vec::new(), Vec::new());
        self.pos += 1;
        while self.peek() != Some(close) {
            if !(fields.is_empty() && items.is_empty()) {
                self.expect(b',')?;
            }
            if object {
                let key = self.string()?;
                self.expect(b':')?;
                fields.push((key, self.value(depth)?));
            } else {
                items.push(self.value(depth)?);
            }
        }
        self.pos += 1;
        Ok(if object { Value::Obj(fields) } else { Value::Arr(items) })
    }

    /// `true`, `false`, `null` or a number token.
    fn scalar(&mut self) -> Result<Value, String> {
        let rest = &self.text[self.pos..];
        let is_token = |b: &u8| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.');
        let token = &rest[..rest.bytes().take_while(is_token).count()];
        let value = match token {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            "null" => Value::Null,
            _ if token.parse::<f64>().is_ok() => Value::Num(token.to_string()),
            _ => return Err(self.error("expected a value")),
        };
        self.pos += token.len();
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let stop = rest.find(['"', '\\']).ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&rest[..stop]);
            self.pos += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Ok(out);
            }
            let escape = self.text.as_bytes().get(self.pos).copied();
            self.pos += 1;
            let resolved = match escape {
                Some(c @ (b'"' | b'\\' | b'/')) => Some(c as char),
                Some(b'n') => Some('\n'),
                Some(b't') => Some('\t'),
                Some(b'r') => Some('\r'),
                Some(b'u') => {
                    let hex = self.text.get(self.pos..self.pos + 4);
                    self.pos += 4;
                    hex.and_then(|h| u32::from_str_radix(h, 16).ok()).and_then(char::from_u32)
                }
                _ => None,
            };
            out.push(resolved.ok_or_else(|| self.error("bad escape"))?);
        }
    }
}

/// Builds one compact JSON document (no whitespace), commas placed for
/// the caller: `w.open('{').key("n").number(1).close('}')`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// The next key or value needs a comma in front of it.
    comma: bool,
}

impl Writer {
    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Opens an object (`'{'`) or an array (`'['`).
    pub fn open(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    /// Closes the innermost object (`'}'`) or array (`']'`).
    pub fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Writes a field name; the field's value must follow.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.string(name).out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string value: quotes and backslashes escaped, control
    /// characters as `\u00XX`.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => self.out.extend(['\\', c]),
                c if (c as u32) < 0x20 => {
                    write!(self.out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// Writes a number as `n` displays: an integer, or a float through
    /// `format_args!("{v:?}")` to keep its exact bits.
    pub fn number(&mut self, n: impl Display) -> &mut Self {
        self.separate();
        write!(self.out, "{n}").expect("writing to String cannot fail");
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn write(w: &mut Writer, v: &Value) {
        match v {
            Value::Null => w.number("null"),
            Value::Bool(b) => w.number(b),
            Value::Num(token) => w.number(token),
            Value::Str(s) => w.string(s),
            Value::Arr(items) => {
                w.open('[');
                items.iter().for_each(|item| write(w, item));
                w.close(']')
            }
            Value::Obj(fields) => {
                w.open('{');
                fields.iter().for_each(|(k, v)| write(w.key(k), v));
                w.close('}')
            }
        };
    }

    /// A value tree drawn from `words`: integers over the whole `u64`
    /// range, floats over every bit pattern, strings over a palette of
    /// structural, escaped and multi-byte characters.
    fn tree(words: &mut impl Iterator<Item = u64>, depth: usize) -> Value {
        const PALETTE: [char; 12] =
            ['a', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '→', ' ', '{', ','];
        let mut word = || words.next().unwrap_or(0);
        let text = |w: u64| w.to_le_bytes().iter().map(|b| PALETTE[*b as usize % 12]).collect();
        let w = word();
        match w % 8 {
            0 => Value::Null,
            1 => Value::Bool(w & 8 != 0),
            2 => Value::Num(word().to_string()),
            3 => Value::Num(format!("{:?}", f64::from_bits(word()))),
            4 => Value::Str(text(word())),
            5 if depth < 4 => Value::Arr((0..w / 8 % 4).map(|_| tree(words, depth + 1)).collect()),
            6 if depth < 4 => {
                Value::Obj((0..w / 8 % 4).map(|_| (text(w), tree(words, depth + 1))).collect())
            }
            _ => Value::Num("-0.0".to_string()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Write → parse gives the tree back, and no strict prefix of a
        /// document that ends in `]` parses (nor panics): a cut line is
        /// never mistaken for a complete one.
        #[test]
        fn roundtrips_and_rejects_every_truncation(
            words in proptest::collection::vec(any::<u64>(), 1..60),
        ) {
            let mut words = words.into_iter();
            let doc = Value::Arr((0..3).map(|_| tree(&mut words, 0)).collect());
            let mut w = Writer::default();
            write(&mut w, &doc);
            let text = w.finish();
            prop_assert_eq!(parse(&text), Ok(doc));
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                prop_assert!(parse(&text[..cut]).is_err(), "prefix of {} bytes parsed", cut);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Arbitrary text — structural characters, literals, escapes and
        /// arbitrary characters, not only cuts of valid documents — never
        /// panics the parser, and whatever it accepts writes back to a
        /// document that parses to the same tree.
        #[test]
        fn arbitrary_text_never_panics(
            words in proptest::collection::vec(any::<u32>(), 0..48),
        ) {
            const PIECES: [&str; 22] = [
                "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d8", "00", "\"k\"", "true",
                "null", "NaN", "-inf", "0", "-1.5e+3", ".", "e", " ", "\n",
            ];
            let text: String = words
                .iter()
                .map(|&w| match PIECES.get(w as usize % 28) {
                    Some(piece) => piece.to_string(),
                    None => char::from_u32(w >> 11).unwrap_or('\u{fffd}').to_string(),
                })
                .collect();
            if let Ok(v) = parse(&text) {
                let mut w = Writer::default();
                write(&mut w, &v);
                prop_assert_eq!(parse(&w.finish()), Ok(v));
            }
        }
    }

    #[test]
    fn parses_structures_and_exact_numbers() {
        let v = parse(" {\"a\": [1, 2.5, true, null, \"x\\\"y\\u00e9\\/\"], \"b\": {}} ").unwrap();
        assert_eq!(v.get("b"), Some(&Value::Obj(Vec::new())));
        let Some(Value::Arr(items)) = v.get("a") else { panic!("array expected") };
        assert_eq!(items[0].as_num(), Some(1u64));
        assert_eq!(items[1].as_num::<u64>(), None);
        assert_eq!(items[1].as_num(), Some(2.5f64));
        assert_eq!(items[2..4], [Value::Bool(true), Value::Null]);
        assert_eq!(items[4].as_str(), Some("x\"yé/"));

        let big = (1u64 << 53) + 1;
        let sum = 0.1 + 0.2;
        let text = format!("[{big},{},{sum:?},NaN,inf,-inf,-1]", u64::MAX);
        let Value::Arr(items) = parse(&text).unwrap() else { panic!("array expected") };
        assert_eq!(items[0].as_num(), Some(big));
        assert_eq!(items[1].as_num(), Some(u64::MAX));
        assert_eq!(items[2].as_num(), Some(sum));
        assert!(items[3].as_num::<f64>().unwrap().is_nan());
        assert_eq!(items[4].as_num(), Some(f64::INFINITY));
        assert_eq!(items[5].as_num(), Some(f64::NEG_INFINITY));
        assert_eq!(items[6].as_num::<u64>(), None);
    }

    #[test]
    fn malformed_input_is_an_error() {
        let deep = "[".repeat(100_000);
        for bad in [
            "",
            "  ",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{a:1}",
            "[1]x",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "tru",
            "-",
            "1e",
            &deep,
        ] {
            assert!(parse(bad).is_err(), "{:?} parsed", &bad[..bad.len().min(20)]);
        }
    }

    #[test]
    fn writer_places_commas_and_escapes() {
        let mut w = Writer::default();
        w.open('{').key("k\"").string("a\\b\n").key("n").open('[').number(1).number(2.5);
        w.open('[').close(']').close(']').key("o").open('{').close('}').close('}');
        assert_eq!(w.finish(), "{\"k\\\"\":\"a\\\\b\\u000a\",\"n\":[1,2.5,[]],\"o\":{}}");
    }
}
