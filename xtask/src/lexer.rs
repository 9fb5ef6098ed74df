//! A small hand-rolled Rust token lexer for the static-analysis pass.
//!
//! `cargo xtask lint` must not confuse source code with the *text* of
//! string literals, comments, raw strings, or char literals — a
//! line-grep rule would.
//! This lexer produces a flat token stream with 1-based line numbers,
//! handling exactly the lexical subtleties that matter for that goal:
//!
//! - line comments and **nested** block comments (kept as [`TokKind::Comment`]
//!   tokens so the `// ordering:` rule can still see justifications);
//! - string literals with escapes, byte strings, and raw (byte) strings
//!   with an arbitrary number of `#` guards;
//! - char literals vs lifetimes (`'a'` vs `'a`), including escaped
//!   chars (`'\''`, `'\n'`);
//! - identifiers/keywords, numbers, and punctuation, with `::` and `->`
//!   fused into single tokens (so angle-bracket matching in `impl`
//!   headers never miscounts the `>` of a return arrow).
//!
//! It is *not* a full Rust lexer: float exponent signs, shebangs and
//! nested generic shifts (`>>`) are left as individual punctuation,
//! which is sufficient (and tested) for the item extractor built on top.

/// Token classification, as coarse as the analyses need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `impl`, `Vec`, …).
    Ident,
    /// A lifetime such as `'a` or `'static` (text excludes the quote).
    Lifetime,
    /// Numeric literal (uninterpreted source text).
    Num,
    /// String / raw-string / byte-string / char literal. The text is the
    /// literal *contents are not preserved* — only a placeholder — so no
    /// downstream rule can accidentally match inside it.
    Literal,
    /// A `//…` or `/*…*/` comment; text preserved for `// ordering:`.
    Comment,
    /// Punctuation. Multi-char only for `::` and `->`.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line the token starts on.
    pub line: usize,
    /// Coarse classification.
    pub kind: TokKind,
    /// Source text (placeholder `"\"\""` / `"''"` for literals).
    pub text: String,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Lexes `src` into a token stream. Never fails: unterminated literals
/// and stray bytes degrade to best-effort tokens, which is the right
/// trade for an analysis pass that must not crash the build on a
/// half-edited file.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        b: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    pos: usize,
    line: usize,
    out: Vec<Tok>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Tok> {
        while self.pos < self.b.len() {
            let c = self.b[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string_lit(),
                b'r' | b'b' if self.raw_or_byte_prefix() => self.prefixed_lit(),
                b'\'' => self.char_or_lifetime(),
                _ if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                _ if c.is_ascii_digit() => self.number(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.pos + ahead).copied()
    }

    fn push(&mut self, line: usize, kind: TokKind, text: &str) {
        self.out.push(Tok {
            line,
            kind,
            text: text.to_string(),
        });
    }

    fn count_newlines(&mut self, start: usize, end: usize) {
        self.line += self.b[start..end].iter().filter(|&&c| c == b'\n').count();
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while self.pos < self.b.len() && self.b[self.pos] != b'\n' {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        let line = self.line;
        self.push(line, TokKind::Comment, &text);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.b.len() && depth > 0 {
            if self.b[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.b[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.pos += 1;
            }
        }
        self.count_newlines(start, self.pos);
        let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        self.push(line, TokKind::Comment, &text);
    }

    fn string_lit(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.b.len() {
            match self.b[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.count_newlines(start, self.pos.min(self.b.len()));
        self.push(line, TokKind::Literal, "\"\"");
    }

    /// True when the current `r`/`b` starts a raw/byte literal rather
    /// than an identifier: `r"`, `r#"`, `b"`, `b'`, `br"`, `br#"`.
    fn raw_or_byte_prefix(&self) -> bool {
        let mut i = self.pos;
        if self.b[i] == b'b' {
            i += 1;
            if self.b.get(i) == Some(&b'\'') {
                return true; // byte char b'x'
            }
        }
        if self.b.get(i) == Some(&b'r') {
            i += 1;
            while self.b.get(i) == Some(&b'#') {
                i += 1;
            }
        }
        self.b.get(i) == Some(&b'"') && i > self.pos
    }

    fn prefixed_lit(&mut self) {
        let start = self.pos;
        let line = self.line;
        if self.b[self.pos] == b'b' {
            self.pos += 1;
            if self.b.get(self.pos) == Some(&b'\'') {
                // byte char: b'x' / b'\n'
                self.pos += 1;
                if self.b.get(self.pos) == Some(&b'\\') {
                    self.pos += 1;
                }
                self.pos += 1; // the char
                if self.b.get(self.pos) == Some(&b'\'') {
                    self.pos += 1;
                }
                self.push(line, TokKind::Literal, "''");
                return;
            }
        }
        if self.b.get(self.pos) == Some(&b'r') {
            // raw (byte) string: r"…", r#"…"#, r##"…"##, …
            self.pos += 1;
            let mut hashes = 0usize;
            while self.b.get(self.pos) == Some(&b'#') {
                hashes += 1;
                self.pos += 1;
            }
            self.pos += 1; // opening quote
            loop {
                match self.b.get(self.pos) {
                    None => break,
                    Some(b'"') => {
                        let tail = &self.b[self.pos + 1..];
                        if tail.len() >= hashes && tail[..hashes].iter().all(|&c| c == b'#') {
                            self.pos += 1 + hashes;
                            break;
                        }
                        self.pos += 1;
                    }
                    Some(_) => self.pos += 1,
                }
            }
            self.count_newlines(start, self.pos.min(self.b.len()));
            self.push(line, TokKind::Literal, "\"\"");
        } else {
            // plain byte string: b"…"
            self.string_lit();
        }
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime): after the quote,
    /// an escape is always a char; an ident char followed by `'` is a
    /// char; an ident start *not* closed by `'` is a lifetime.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let next = self.peek(1);
        let is_lifetime = matches!(next, Some(c) if c == b'_' || c.is_ascii_alphabetic())
            && self.peek(2) != Some(b'\'');
        if is_lifetime {
            self.pos += 1;
            let start = self.pos;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
            self.push(line, TokKind::Lifetime, &text);
            return;
        }
        // Char literal: '<char>' with possible escape.
        self.pos += 1;
        match self.peek(0) {
            Some(b'\\') => {
                self.pos += 2; // backslash + escaped char (covers '\'' '\n' '\\')
                               // hex/unicode escapes: skip to closing quote below
            }
            Some(_) => {
                // possibly multi-byte UTF-8: advance one byte, close below
                self.pos += 1;
            }
            None => {}
        }
        while self.pos < self.b.len() && self.b[self.pos] != b'\'' && self.b[self.pos] != b'\n' {
            self.pos += 1;
        }
        if self.b.get(self.pos) == Some(&b'\'') {
            self.pos += 1;
        }
        self.push(line, TokKind::Literal, "''");
    }

    fn ident(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        self.push(line, TokKind::Ident, &text);
    }

    fn number(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        // Fractional part — but never eat the first dot of `0..10`.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
        }
        let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        self.push(line, TokKind::Num, &text);
    }

    fn punct(&mut self) {
        let line = self.line;
        if self.b[self.pos] == b':' && self.peek(1) == Some(b':') {
            self.pos += 2;
            self.push(line, TokKind::Punct, "::");
        } else if self.b[self.pos] == b'-' && self.peek(1) == Some(b'>') {
            self.pos += 2;
            self.push(line, TokKind::Punct, "->");
        } else {
            let c = self.b[self.pos] as char;
            self.pos += 1;
            self.push(line, TokKind::Punct, &c.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_punct() {
        let toks = lex("fn f(a: u32) -> Vec<u8> { a.to_vec() }");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "fn", "f", "(", "a", ":", "u32", ")", "->", "Vec", "<", "u8", ">", "{", "a", ".",
                "to_vec", "(", ")", "}"
            ]
        );
        assert!(toks[7].is_punct("->"));
    }

    #[test]
    fn string_contents_are_opaque() {
        // `panic!(` inside a string must not surface as code tokens.
        let toks = lex(r#"let s = "call panic!(now)";"#);
        assert!(!toks.iter().any(|t| t.is_ident("panic")));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Literal).count(),
            1
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        // The `"#` inside the raw string is content, not a terminator;
        // `Vec::new` inside it must not leak out as tokens.
        let src = r###"let s = r##"quote "# and Vec::new() stay inside"##; x()"###;
        let toks = lex(src);
        assert!(!toks.iter().any(|t| t.is_ident("Vec")));
        assert!(toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = lex(r#"let a = b"panic!("; let c = b'\''; done()"#);
        assert!(!toks.iter().any(|t| t.is_ident("panic")));
        assert!(toks.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert!(toks[1].is_ident("fn"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == TokKind::Literal && t == "''")
                .count(),
            2
        );
    }

    #[test]
    fn static_lifetime_and_escaped_quote_char() {
        let toks = lex("let s: &'static str = x; let q = '\\'';");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "static"));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Literal).count(),
            1
        );
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "fn a() {}\n/* two\nlines */\nfn b() {}\nlet s = \"x\ny\";\nfn c() {}";
        let toks = lex(src);
        let line_of = |name: &str| toks.iter().find(|t| t.is_ident(name)).unwrap().line;
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("b"), 4);
        assert_eq!(line_of("c"), 7);
    }

    #[test]
    fn comments_preserved_for_ordering_rule() {
        let toks = lex("// ordering: release pairs with acquire in pop\nx.store(1);");
        assert!(toks[0].kind == TokKind::Comment && toks[0].text.contains("ordering:"));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let texts: Vec<String> = lex("for i in 0..10 { f(1.5, 0xff); }")
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert!(texts.contains(&"0".to_string()));
        assert!(texts.contains(&"10".to_string()));
        assert!(texts.contains(&"1.5".to_string()));
        assert!(texts.contains(&"0xff".to_string()));
    }
}
