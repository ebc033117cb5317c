//! SQL tokenizer.

use crate::error::DbError;

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords compare case-insensitively
    /// via [`Token::is_kw`]).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// Punctuation / operator.
    Sym(&'static str),
}

impl Token {
    /// Case-insensitive keyword test.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Punctuation and operators, two-character ones first.
const SYMBOLS: [&str; 12] = ["<=", ">=", "<>", "!=", "(", ")", ",", "*", ";", "=", "<", ">"];

/// Tokenizes a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, DbError> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '*' | ';' | '=' | '<' | '>' | '!' => {
                // Longest match first; `!=` is spelled `<>`.
                let Some(sym) = SYMBOLS.iter().find(|s| input[i..].starts_with(**s)) else {
                    return Err(DbError::Sql(format!("unexpected character '!' at {i}")));
                };
                tokens.push(Token::Sym(if *sym == "!=" { "<>" } else { sym }));
                i += sym.len();
            }
            '\'' => {
                // Slices of the input between quotes, so multi-byte UTF-8
                // stays intact; `''` inside the literal is one quote.
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    let Some(end) = input[j..].find('\'') else {
                        return Err(DbError::Sql("unterminated string".into()));
                    };
                    s.push_str(&input[j..j + end]);
                    j += end + 1;
                    if bytes.get(j) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    j += 1;
                }
                tokens.push(Token::Str(s));
                i = j;
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                    if !bytes.get(i).is_some_and(|b| b.is_ascii_digit()) {
                        return Err(DbError::Sql(format!("stray '-' at {start}")));
                    }
                }
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit() || (bytes[i] == b'.' && !is_float))
                {
                    if bytes[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                // Exponent suffix (`1e-7`, `2.5E10`): present so the
                // shortest-roundtrip float rendering used by WAL state
                // dumps re-parses to the identical value.
                if bytes.get(i).is_some_and(|b| *b == b'e' || *b == b'E') {
                    let mut j = i + 1;
                    if bytes.get(j).is_some_and(|b| *b == b'+' || *b == b'-') {
                        j += 1;
                    }
                    if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_float {
                    let v = text
                        .parse::<f64>()
                        .map_err(|_| DbError::Sql(format!("bad float literal {text}")))?;
                    tokens.push(Token::Float(v));
                } else {
                    let v = text
                        .parse::<i64>()
                        .map_err(|_| DbError::Sql(format!("bad int literal {text}")))?;
                    tokens.push(Token::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'.')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            other => return Err(DbError::Sql(format!("unexpected character '{other}' at {i}"))),
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let toks = tokenize("SELECT * FROM t WHERE id = 3").unwrap();
        assert_eq!(toks.len(), 8);
        assert!(toks[0].is_kw("select"));
        assert_eq!(toks[1], Token::Sym("*"));
        assert_eq!(toks[7], Token::Int(3));
    }

    #[test]
    fn operators() {
        let toks = tokenize("a <= 1 b >= 2 c <> 3 d != 4 e < 5 f > 6").unwrap();
        let syms: Vec<&str> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Sym(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(syms, vec!["<=", ">=", "<>", "<>", "<", ">"]);
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn string_with_escape() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
        // Non-ASCII text keeps its UTF-8 bytes: 'café' is five bytes.
        let toks = tokenize("'café' 'naïve''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("café".into()), Token::Str("naïve's".into())]);
    }

    #[test]
    fn numbers() {
        let toks = tokenize("42 -7 3.5 -0.25").unwrap();
        assert_eq!(
            toks,
            vec![Token::Int(42), Token::Int(-7), Token::Float(3.5), Token::Float(-0.25)]
        );
    }

    #[test]
    fn scientific_notation() {
        let toks = tokenize("1e-7 2.5E10 -3e2 1e+3").unwrap();
        assert_eq!(
            toks,
            vec![Token::Float(1e-7), Token::Float(2.5e10), Token::Float(-3e2), Token::Float(1e3)]
        );
        // A bare `e` after digits with no exponent stays an identifier
        // boundary, as before.
        let toks = tokenize("1 e").unwrap();
        assert_eq!(toks, vec![Token::Int(1), Token::Ident("e".into())]);
    }

    #[test]
    fn dotted_identifiers() {
        let toks = tokenize("t1.pageURL").unwrap();
        assert_eq!(toks, vec![Token::Ident("t1.pageURL".into())]);
    }

    #[test]
    fn unterminated_string_fails() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn date_like_string() {
        let toks = tokenize("WHERE visitDate > '1980-04-01'").unwrap();
        assert_eq!(toks[3], Token::Str("1980-04-01".into()));
    }
}
