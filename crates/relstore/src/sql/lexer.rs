//! SQL tokenizer.

use crate::error::{RelError, RelResult};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (keywords are recognized by the parser,
    /// case-insensitively).
    Ident(String),
    /// A `'...'` string literal with `''` escapes resolved.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A punctuation or operator token: `( ) , . * = <> < <= > >= + - / ?`.
    Sym(&'static str),
}

impl Token {
    /// Whether this token is the keyword `kw` (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenizes SQL text.
pub fn tokenize_sql(input: &str) -> RelResult<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
        } else if c == '-' && bytes.get(i + 1) == Some(&b'-') {
            // Line comment.
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if c == '\'' {
            i += 1;
            let mut s = String::new();
            loop {
                match bytes.get(i) {
                    Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                        s.push('\'');
                        i += 2;
                    }
                    Some(b'\'') => {
                        i += 1;
                        break;
                    }
                    Some(_) => {
                        // Consume one full UTF-8 char.
                        let rest = &input[i..];
                        let ch = rest.chars().next().expect("in-bounds");
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                    None => {
                        return Err(RelError::Parse("unterminated string literal".into()));
                    }
                }
            }
            tokens.push(Token::Str(s));
        } else if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let is_float = i < bytes.len()
                && bytes[i] == b'.'
                && bytes
                    .get(i + 1)
                    .is_some_and(|b| (*b as char).is_ascii_digit());
            if is_float {
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
                let v: f64 = text
                    .parse()
                    .map_err(|_| RelError::Parse(format!("bad float literal {text:?}")))?;
                tokens.push(Token::Float(v));
            } else {
                let text = &input[start..i];
                let v: i64 = text
                    .parse()
                    .map_err(|_| RelError::Parse(format!("bad integer literal {text:?}")))?;
                tokens.push(Token::Int(v));
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() {
                let ch = input[i..].chars().next().expect("in-bounds");
                if ch.is_alphanumeric() || ch == '_' {
                    i += ch.len_utf8();
                } else {
                    break;
                }
            }
            tokens.push(Token::Ident(input[start..i].to_string()));
        } else {
            let sym: &'static str = match c {
                '(' => "(",
                ')' => ")",
                ',' => ",",
                '.' => ".",
                '*' => "*",
                '+' => "+",
                '-' => "-",
                '/' => "/",
                '=' => "=",
                '<' => match bytes.get(i + 1) {
                    Some(b'=') => "<=",
                    Some(b'>') => "<>",
                    _ => "<",
                },
                '>' => match bytes.get(i + 1) {
                    Some(b'=') => ">=",
                    _ => ">",
                },
                '!' => match bytes.get(i + 1) {
                    Some(b'=') => "<>",
                    _ => return Err(RelError::Parse("unexpected '!'".into())),
                },
                '?' => "?",
                other => return Err(RelError::Parse(format!("unexpected character {other:?}"))),
            };
            i += sym.len().max(if c == '!' { 2 } else { 1 });
            tokens.push(Token::Sym(sym));
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_select() {
        let toks = tokenize_sql("SELECT a.b, c FROM t WHERE x >= 10.5").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("a".into()),
                Token::Sym("."),
                Token::Ident("b".into()),
                Token::Sym(","),
                Token::Ident("c".into()),
                Token::Ident("FROM".into()),
                Token::Ident("t".into()),
                Token::Ident("WHERE".into()),
                Token::Ident("x".into()),
                Token::Sym(">="),
                Token::Float(10.5),
            ]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        let toks = tokenize_sql("'it''s a test' 'multi word'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("it's a test".into()),
                Token::Str("multi word".into())
            ]
        );
    }

    #[test]
    fn unterminated_string_fails() {
        assert!(tokenize_sql("'oops").is_err());
    }

    #[test]
    fn operators_and_inequalities() {
        let toks = tokenize_sql("a <> b != c <= d >= e < f > g").unwrap();
        let syms: Vec<&Token> = toks.iter().filter(|t| matches!(t, Token::Sym(_))).collect();
        assert_eq!(
            syms,
            vec![
                &Token::Sym("<>"),
                &Token::Sym("<>"),
                &Token::Sym("<="),
                &Token::Sym(">="),
                &Token::Sym("<"),
                &Token::Sym(">"),
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize_sql("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn numbers() {
        let toks = tokenize_sql("42 3.5 7").unwrap();
        assert_eq!(toks, vec![Token::Int(42), Token::Float(3.5), Token::Int(7)]);
    }

    #[test]
    fn integer_then_dot_is_projection_not_float() {
        // `1.` should not eat the dot when not followed by a digit.
        let toks = tokenize_sql("t1.col").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t1".into()),
                Token::Sym("."),
                Token::Ident("col".into())
            ]
        );
    }

    #[test]
    fn unicode_in_strings() {
        let toks = tokenize_sql("'αβγ café'").unwrap();
        assert_eq!(toks, vec![Token::Str("αβγ café".into())]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize_sql("SELECT @x").is_err());
        assert!(tokenize_sql("a ! b").is_err());
    }
}
