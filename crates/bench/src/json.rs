//! A minimal JSON reader for the two documents `benchdiff` reads: the
//! bench NDJSON lines and the committed baseline.  Both hold only objects,
//! strings and numbers, so that is all it reads; every error names the
//! byte offset where reading stopped.

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// A number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An object's fields, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; anything after it but whitespace is an
    /// error.
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader { text, pos: 0 };
        let value = reader.value()?;
        reader.skip_space();
        match reader.pos == text.len() {
            true => Ok(value),
            false => Err(reader.error("trailing characters")),
        }
    }

    /// The field `key` of an object (`None` for a missing key or a
    /// non-object).
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(name, _)| name == key).map(|(_, value)| value),
            _ => None,
        }
    }

    /// The number this value holds, if it is one.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(value) => Some(*value),
            _ => None,
        }
    }

    /// The string this value holds, if it is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(value) => Some(value),
            _ => None,
        }
    }
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn skip_space(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// Consumes `byte` (after whitespace) if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_space();
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.eat(byte) {
            true => Ok(()),
            false => Err(self.error(&format!("expected `{}`", byte as char))),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_space();
                        let key = self.string()?;
                        self.expect(b':')?;
                        fields.push((key, self.value()?));
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Obj(fields))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                let rest = &self.text[self.pos..];
                let len = rest
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(rest.len());
                let value = rest[..len].parse().map_err(|_| self.error("expected a value"))?;
                self.pos += len;
                Ok(Json::Num(value))
            }
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    out.push(match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        _ => return Err(self.error("unsupported escape")),
                    });
                    self.pos += 1;
                }
                c if c < ' ' => return Err(self.error("control character in string")),
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_objects() {
        let value = Json::parse(r#" {"a": -2.5e3, "b": {"c": "x\"\\é/\n"}, "d": {}} "#).unwrap();
        assert_eq!(value.get("a").and_then(Json::as_f64), Some(-2500.0));
        assert_eq!(value.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("x\"\\é/\n"));
        assert_eq!(value.get("d"), Some(&Json::Obj(vec![])));
        assert_eq!(value.get("e"), None);
    }

    #[test]
    fn malformed_documents_name_the_offset() {
        for (text, error) in [
            ("{\"a\":1", "expected `,` at byte 6"),
            ("{\"a\" 1}", "expected `:` at byte 5"),
            ("{\"a\":1,}", "expected a string at byte 7"),
            ("{\"a\":1} x", "trailing characters at byte 8"),
            ("\"abc", "unterminated string at byte 4"),
            ("[1]", "expected a value at byte 0"),
            ("true", "expected a value at byte 0"),
            ("", "unexpected end of input at byte 0"),
            ("\"\\u0041\"", "unsupported escape at byte 2"),
        ] {
            assert_eq!(Json::parse(text), Err(error.to_owned()), "{text}");
        }
    }
}
