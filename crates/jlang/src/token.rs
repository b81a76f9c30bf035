//! Token definitions and the hand-written lexer for jlang, the Java subset
//! accepted by the WootinJ reproduction.

use crate::span::{Diagnostic, Span};

/// All token kinds produced by [`lex`].
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // Literals
    IntLit(i64),
    LongLit(i64),
    FloatLit(f32),
    DoubleLit(f64),
    StrLit(String),
    /// An identifier: the byte range of its name in the source.
    Ident {
        start: u32,
        end: u32,
    },

    // Keywords
    KwClass,
    KwInterface,
    KwExtends,
    KwImplements,
    KwFinal,
    KwStatic,
    KwAbstract,
    KwPublic,
    KwPrivate,
    KwProtected,
    KwVoid,
    KwInt,
    KwLong,
    KwFloat,
    KwDouble,
    KwBoolean,
    KwNew,
    KwReturn,
    KwIf,
    KwElse,
    KwFor,
    KwWhile,
    KwThis,
    KwSuper,
    KwTrue,
    KwFalse,
    KwNull,
    KwInstanceof,
    KwBreak,
    KwContinue,

    // Punctuation / operators
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    At,
    Question,
    Colon,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    NotEq,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    AndAnd,
    OrOr,
    Not,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,

    Eof,
}

impl Tok {
    /// Short human-readable name for error messages; `src` is the source
    /// the token was lexed from.
    pub fn describe(&self, src: &str) -> String {
        match self {
            Tok::IntLit(v) => format!("int literal {v}"),
            Tok::LongLit(v) => format!("long literal {v}"),
            Tok::FloatLit(v) => format!("float literal {v}"),
            Tok::DoubleLit(v) => format!("double literal {v}"),
            Tok::StrLit(s) => format!("string literal {s:?}"),
            Tok::Ident { start, end } => {
                format!("identifier `{}`", &src[*start as usize..*end as usize])
            }
            Tok::Eof => "end of input".to_string(),
            other => format!("`{}`", other.text()),
        }
    }

    fn text(&self) -> &'static str {
        match self {
            Tok::KwClass => "class",
            Tok::KwInterface => "interface",
            Tok::KwExtends => "extends",
            Tok::KwImplements => "implements",
            Tok::KwFinal => "final",
            Tok::KwStatic => "static",
            Tok::KwAbstract => "abstract",
            Tok::KwPublic => "public",
            Tok::KwPrivate => "private",
            Tok::KwProtected => "protected",
            Tok::KwVoid => "void",
            Tok::KwInt => "int",
            Tok::KwLong => "long",
            Tok::KwFloat => "float",
            Tok::KwDouble => "double",
            Tok::KwBoolean => "boolean",
            Tok::KwNew => "new",
            Tok::KwReturn => "return",
            Tok::KwIf => "if",
            Tok::KwElse => "else",
            Tok::KwFor => "for",
            Tok::KwWhile => "while",
            Tok::KwThis => "this",
            Tok::KwSuper => "super",
            Tok::KwTrue => "true",
            Tok::KwFalse => "false",
            Tok::KwNull => "null",
            Tok::KwInstanceof => "instanceof",
            Tok::KwBreak => "break",
            Tok::KwContinue => "continue",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Semi => ";",
            Tok::Comma => ",",
            Tok::Dot => ".",
            Tok::At => "@",
            Tok::Question => "?",
            Tok::Colon => ":",
            Tok::Lt => "<",
            Tok::Gt => ">",
            Tok::Le => "<=",
            Tok::Ge => ">=",
            Tok::EqEq => "==",
            Tok::NotEq => "!=",
            Tok::Assign => "=",
            Tok::PlusAssign => "+=",
            Tok::MinusAssign => "-=",
            Tok::StarAssign => "*=",
            Tok::SlashAssign => "/=",
            Tok::PercentAssign => "%=",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::PlusPlus => "++",
            Tok::MinusMinus => "--",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            Tok::Not => "!",
            Tok::BitAnd => "&",
            Tok::BitOr => "|",
            Tok::BitXor => "^",
            Tok::Shl => "<<",
            Tok::Shr => ">>",
            _ => "?",
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub span: Span,
}

fn keyword(word: &str) -> Option<Tok> {
    Some(match word {
        "class" => Tok::KwClass,
        "interface" => Tok::KwInterface,
        "extends" => Tok::KwExtends,
        "implements" => Tok::KwImplements,
        "final" => Tok::KwFinal,
        "static" => Tok::KwStatic,
        "abstract" => Tok::KwAbstract,
        "public" => Tok::KwPublic,
        "private" => Tok::KwPrivate,
        "protected" => Tok::KwProtected,
        "void" => Tok::KwVoid,
        "int" => Tok::KwInt,
        "long" => Tok::KwLong,
        "float" => Tok::KwFloat,
        "double" => Tok::KwDouble,
        "boolean" => Tok::KwBoolean,
        "new" => Tok::KwNew,
        "return" => Tok::KwReturn,
        "if" => Tok::KwIf,
        "else" => Tok::KwElse,
        "for" => Tok::KwFor,
        "while" => Tok::KwWhile,
        "this" => Tok::KwThis,
        "super" => Tok::KwSuper,
        "true" => Tok::KwTrue,
        "false" => Tok::KwFalse,
        "null" => Tok::KwNull,
        "instanceof" => Tok::KwInstanceof,
        "break" => Tok::KwBreak,
        "continue" => Tok::KwContinue,
        _ => return None,
    })
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    file: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    /// Consume one byte; at the end of input, consume nothing and return 0,
    /// so that no span reaches past the source.
    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos = (self.pos + 1).min(self.src.len());
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn span_from(&self, start: usize, line: u32) -> Span {
        Span::new(self.file, start as u32, self.pos as u32, line)
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    let line = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        if self.peek() == 0 {
                            return Err(Diagnostic::error(
                                "lexer",
                                self.span_from(start, line),
                                "unterminated block comment",
                            ));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_number(&mut self) -> Result<Tok, Diagnostic> {
        let start = self.pos;
        let line = self.line;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        if self.peek() == b'e' || self.peek() == b'E' {
            let save = self.pos;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            if self.peek().is_ascii_digit() {
                is_float = true;
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            } else {
                self.pos = save;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        let suffix = self.peek().to_ascii_lowercase();
        let (kind, suffixed) = match suffix {
            b'f' | b'd' => (suffix, true),
            b'l' if !is_float => (suffix, true),
            _ if is_float => (b'd', false),
            _ => (b'i', false),
        };
        if suffixed {
            self.bump();
        }
        let err = |what: &str| {
            Diagnostic::error(
                "lexer",
                self.span_from(start, line),
                format!("{what}: {text}"),
            )
        };
        // Java refuses a floating-point literal that rounds to infinity,
        // or to zero although it has a nonzero digit (JLS 3.10.2).
        let mantissa = text.split(['e', 'E']).next().unwrap_or(text);
        let float_range = |inf: bool, zero: bool| {
            if inf {
                Err(err("floating-point number too large"))
            } else if zero && mantissa.bytes().any(|b| matches!(b, b'1'..=b'9')) {
                Err(err("floating-point number too small"))
            } else {
                Ok(())
            }
        };
        match kind {
            b'f' => {
                let v: f32 = text.parse().expect("lexed as a decimal number");
                float_range(v.is_infinite(), v == 0.0).map(|()| Tok::FloatLit(v))
            }
            b'd' => {
                let v: f64 = text.parse().expect("lexed as a decimal number");
                float_range(v.is_infinite(), v == 0.0).map(|()| Tok::DoubleLit(v))
            }
            // 2^63 becomes `i64::MIN`, which no other literal lexes to: it
            // is `Long.MIN_VALUE`'s magnitude, and the parser takes it only
            // after a unary minus (JLS 3.10.1).
            b'l' => match text.parse::<u64>() {
                Ok(v) if v <= 1 << 63 => Ok(Tok::LongLit(v as i64)),
                _ => Err(err("long literal out of range")),
            },
            _ => text
                .parse::<i64>()
                .map(Tok::IntLit)
                .map_err(|_| err("int literal out of range")),
        }
    }

    fn lex_string(&mut self) -> Result<Tok, Diagnostic> {
        let start = self.pos;
        let line = self.line;
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                0 => {
                    return Err(Diagnostic::error(
                        "lexer",
                        self.span_from(start, line),
                        "unterminated string literal",
                    ))
                }
                b'"' => return Ok(Tok::StrLit(out)),
                b'\\' => {
                    let esc = self.bump();
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'\\' => '\\',
                        b'"' => '"',
                        0 => continue, // end of input: unterminated
                        other => {
                            return Err(Diagnostic::error(
                                "lexer",
                                self.span_from(start, line),
                                format!("unknown escape `\\{}`", other as char),
                            ))
                        }
                    });
                }
                c => out.push(c as char),
            }
        }
    }
}

/// Lex a source file into a token stream (terminated by [`Tok::Eof`]).
pub fn lex(file: u32, src: &str) -> Result<Vec<Token>, Vec<Diagnostic>> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        file,
    };
    // Sources here run about one token per three bytes.
    let mut out = Vec::with_capacity(src.len() / 3 + 1);
    let mut diags = Vec::new();
    loop {
        if let Err(d) = lx.skip_trivia() {
            diags.push(d);
            break;
        }
        let start = lx.pos;
        let line = lx.line;
        let c = lx.peek();
        if c == 0 {
            out.push(Token {
                tok: Tok::Eof,
                span: lx.span_from(start, line),
            });
            break;
        }
        let tok = if c.is_ascii_digit() {
            match lx.lex_number() {
                Ok(t) => t,
                Err(d) => {
                    diags.push(d);
                    break;
                }
            }
        } else if c == b'"' {
            match lx.lex_string() {
                Ok(t) => t,
                Err(d) => {
                    diags.push(d);
                    break;
                }
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while lx.peek().is_ascii_alphanumeric() || lx.peek() == b'_' {
                lx.bump();
            }
            let word = std::str::from_utf8(&lx.src[start..lx.pos]).unwrap();
            keyword(word).unwrap_or(Tok::Ident {
                start: start as u32,
                end: lx.pos as u32,
            })
        } else {
            lx.bump();
            match c {
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b'{' => Tok::LBrace,
                b'}' => Tok::RBrace,
                b'[' => Tok::LBracket,
                b']' => Tok::RBracket,
                b';' => Tok::Semi,
                b',' => Tok::Comma,
                b'.' => Tok::Dot,
                b'@' => Tok::At,
                b'?' => Tok::Question,
                b':' => Tok::Colon,
                b'^' => Tok::BitXor,
                b'<' => match lx.peek() {
                    b'=' => {
                        lx.bump();
                        Tok::Le
                    }
                    b'<' => {
                        lx.bump();
                        Tok::Shl
                    }
                    _ => Tok::Lt,
                },
                b'>' => match lx.peek() {
                    b'=' => {
                        lx.bump();
                        Tok::Ge
                    }
                    // `>>` is lexed greedily; the parser splits it when it
                    // closes two generic argument lists.
                    b'>' => {
                        lx.bump();
                        Tok::Shr
                    }
                    _ => Tok::Gt,
                },
                b'=' => {
                    if lx.peek() == b'=' {
                        lx.bump();
                        Tok::EqEq
                    } else {
                        Tok::Assign
                    }
                }
                b'!' => {
                    if lx.peek() == b'=' {
                        lx.bump();
                        Tok::NotEq
                    } else {
                        Tok::Not
                    }
                }
                b'+' => match lx.peek() {
                    b'+' => {
                        lx.bump();
                        Tok::PlusPlus
                    }
                    b'=' => {
                        lx.bump();
                        Tok::PlusAssign
                    }
                    _ => Tok::Plus,
                },
                b'-' => match lx.peek() {
                    b'-' => {
                        lx.bump();
                        Tok::MinusMinus
                    }
                    b'=' => {
                        lx.bump();
                        Tok::MinusAssign
                    }
                    _ => Tok::Minus,
                },
                b'*' => {
                    if lx.peek() == b'=' {
                        lx.bump();
                        Tok::StarAssign
                    } else {
                        Tok::Star
                    }
                }
                b'/' => {
                    if lx.peek() == b'=' {
                        lx.bump();
                        Tok::SlashAssign
                    } else {
                        Tok::Slash
                    }
                }
                b'%' => {
                    if lx.peek() == b'=' {
                        lx.bump();
                        Tok::PercentAssign
                    } else {
                        Tok::Percent
                    }
                }
                b'&' => {
                    if lx.peek() == b'&' {
                        lx.bump();
                        Tok::AndAnd
                    } else {
                        Tok::BitAnd
                    }
                }
                b'|' => {
                    if lx.peek() == b'|' {
                        lx.bump();
                        Tok::OrOr
                    } else {
                        Tok::BitOr
                    }
                }
                other => {
                    diags.push(Diagnostic::error(
                        "lexer",
                        lx.span_from(start, line),
                        format!("unexpected character `{}`", other as char),
                    ));
                    continue;
                }
            }
        };
        out.push(Token {
            tok,
            span: lx.span_from(start, line),
        });
    }
    if diags.is_empty() {
        Ok(out)
    } else {
        Err(diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(0, src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    /// Each token as a diagnostic names it.
    fn described(src: &str) -> Vec<String> {
        toks(src).iter().map(|t| t.describe(src)).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        let t = toks("class Foo extends Bar");
        assert_eq!(t[1], Tok::Ident { start: 6, end: 9 });
        assert_eq!(
            described("class Foo extends Bar"),
            [
                "`class`",
                "identifier `Foo`",
                "`extends`",
                "identifier `Bar`",
                "end of input"
            ]
        );
    }

    #[test]
    fn lexes_numeric_literals() {
        assert_eq!(toks("42")[0], Tok::IntLit(42));
        assert_eq!(toks("42L")[0], Tok::LongLit(42));
        assert_eq!(toks("1.5f")[0], Tok::FloatLit(1.5));
        assert_eq!(toks("1.5")[0], Tok::DoubleLit(1.5));
        assert_eq!(toks("2e3")[0], Tok::DoubleLit(2000.0));
        assert_eq!(toks("3f")[0], Tok::FloatLit(3.0));
    }

    #[test]
    fn lexes_operators_greedily() {
        assert_eq!(
            described("a += b ++ <= >= == != && || << >>"),
            [
                "identifier `a`",
                "`+=`",
                "identifier `b`",
                "`++`",
                "`<=`",
                "`>=`",
                "`==`",
                "`!=`",
                "`&&`",
                "`||`",
                "`<<`",
                "`>>`",
                "end of input"
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        assert_eq!(
            described("a // comment\n /* block \n comment */ b"),
            ["identifier `a`", "identifier `b`", "end of input"]
        );
    }

    #[test]
    fn tracks_line_numbers() {
        let tokens = lex(0, "a\nb\n\nc").unwrap();
        let lines: Vec<u32> = tokens.iter().map(|t| t.span.line).collect();
        assert_eq!(lines, vec![1, 2, 4, 4]);
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(toks("\"he\\\"llo\\n\"")[0], Tok::StrLit("he\"llo\n".into()));
    }

    #[test]
    fn unterminated_string_spans_end_at_the_source() {
        for src in ["\"abc", "\"abc\\"] {
            let ds = lex(0, src).unwrap_err();
            assert_eq!(ds[0].message, "unterminated string literal", "{src:?}");
            assert_eq!(ds[0].span.end as usize, src.len(), "{src:?}");
        }
    }

    #[test]
    fn rejects_unterminated_comment() {
        assert!(lex(0, "/* never closed").is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(lex(0, "a # b").is_err());
    }

    #[test]
    fn int_literal_overflow_is_an_error() {
        assert!(lex(0, "99999999999999999999").is_err());
    }
}
