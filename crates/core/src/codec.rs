//! Text codec for time-independent traces.
//!
//! One action per line, whitespace separated:
//!
//! ```text
//! <pid> <keyword> <args...>
//! ```
//!
//! where `<pid>` is `p` + rank. Volumes accept both integer (`163840`)
//! and scientific (`1e6`) notation, as in the paper's Figure 1. Writing
//! uses integer form whenever the volume is integral — the compact form
//! dominates the trace-size measurements of Table 3.
//!
//! The parser works on bytes: fields split at ASCII whitespace by byte
//! comparison (a `char` is decoded only at a byte >= 0x80, so Unicode
//! whitespace still separates fields), keywords match as bytes, and a
//! field of ASCII digits converts directly. Every other number goes
//! through `str::parse`, so the accepted language is exactly the
//! `split_whitespace` / `str::parse` one.

use crate::action::{Action, Pid};
use std::fmt::Write as _;

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number when known (0 otherwise).
    pub line: usize,
    /// What was wrong with the line.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[cold]
fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// Byte classes for the tokenizer: a field byte, an ASCII byte with the
/// Unicode `White_Space` property (tab, line feed, vertical tab, form
/// feed, carriage return, space — exactly the ASCII characters
/// `char::is_whitespace` accepts), or a byte >= 0x80 whose character
/// must be decoded to tell.
const FIELD: u8 = 0;
const SPACE: u8 = 1;
const NON_ASCII: u8 = 2;
static CLASS: [u8; 256] = {
    let mut t = [FIELD; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = match b as u8 {
            b'\t'..=b'\r' | b' ' => SPACE,
            0x80..=0xFF => NON_ASCII,
            _ => FIELD,
        };
        b += 1;
    }
    t
};

/// Byte length of the whitespace character that starts at a non-ASCII
/// byte `line[i]`, or 0 when that character is not whitespace
/// (continuation bytes never start one). Off the hot path: traces are
/// ASCII.
#[cold]
#[inline(never)]
fn unicode_space_len(line: &[u8], i: usize) -> usize {
    let width = match line.get(i) {
        Some(0xC0..=0xDF) => 2,
        Some(0xE0..=0xEF) => 3,
        Some(0xF0..=0xF7) => 4,
        _ => return 0,
    };
    let c = line
        .get(i..i + width)
        .and_then(|b| std::str::from_utf8(b).ok())
        .and_then(|s| s.chars().next());
    match c {
        Some(c) if c.is_whitespace() => width,
        _ => 0,
    }
}

/// The whitespace-separated fields of one line — what
/// `str::split_whitespace` yields, found by byte comparison.
struct Fields<'a> {
    line: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a [u8];

        fn next(&mut self) -> Option<&'a [u8]> {
        let line = self.line;
        let mut i = self.pos;
        loop {
            let &b = line.get(i)?;
            match CLASS[usize::from(b)] {
                FIELD => break,
                SPACE => i += 1,
                _ => match unicode_space_len(line, i) {
                    0 => break,
                    n => i += n,
                },
            }
        }
        let start = i;
        while let Some(&b) = line.get(i) {
            let end = match CLASS[usize::from(b)] {
                FIELD => false,
                SPACE => true,
                _ => unicode_space_len(line, i) > 0,
            };
            if end {
                break;
            }
            i += 1;
        }
        self.pos = i;
        line.get(start..i)
    }
}

/// A field as text, for `str::parse` and messages. Fields are cut at
/// character boundaries of valid UTF-8, so this never substitutes.
fn text(tok: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(tok)
}

/// The value of a field made only of ASCII digits, when it has at most
/// `max_digits` of them; `None` sends every other field to `str::parse`.
fn digits(tok: &[u8], max_digits: usize) -> Option<u64> {
    if tok.is_empty() || tok.len() > max_digits {
        return None;
    }
    tok.iter().try_fold(0u64, |v, &b| {
        let d = b.wrapping_sub(b'0');
        (d < 10).then(|| v * 10 + u64::from(d))
    })
}

/// A rank or process count: up to 19 digits cannot overflow `u64`, so
/// they convert directly; anything else (`+7`, 20 digits) is
/// `str::parse`'s to accept or refuse.
fn parse_count(tok: &[u8]) -> Option<usize> {
    match digits(tok, 19) {
        Some(v) => usize::try_from(v).ok(),
        None => parse_count_slow(tok),
    }
}

// The slow paths and error constructors stay out of line, so the
// all-digit fast paths inline into a tight tokenizer loop.
#[cold]
#[inline(never)]
fn parse_count_slow(tok: &[u8]) -> Option<usize> {
    text(tok).parse().ok()
}

fn parse_pid(tok: &[u8], line: usize) -> Result<Pid, ParseError> {
    let digits = tok.strip_prefix(b"p").unwrap_or(tok);
    parse_count(digits).ok_or_else(|| bad_pid(tok, line))
}

#[cold]
#[inline(never)]
fn bad_pid(tok: &[u8], line: usize) -> ParseError {
    err(line, format!("invalid process id {:?}", text(tok)))
}

#[cold]
#[inline(never)]
fn missing(kw: &[u8], what: &str, line: usize) -> ParseError {
    err(line, format!("{}: missing {what}", text(kw)))
}

fn parse_vol(tok: &[u8], line: usize) -> Result<f64, ParseError> {
    // At most 15 digits is below 2^53: exact in f64, so the same value
    // `str::parse` returns.
    match digits(tok, 15) {
        Some(v) => Ok(v as f64),
        None => parse_vol_slow(tok, line),
    }
}

#[cold]
#[inline(never)]
fn parse_vol_slow(tok: &[u8], line: usize) -> Result<f64, ParseError> {
    let tok = text(tok);
    let v: f64 =
        tok.parse().map_err(|_| err(line, format!("invalid volume {tok:?}")))?;
    if !v.is_finite() || v < 0.0 {
        return Err(err(line, format!("volume must be finite and >= 0, got {tok:?}")));
    }
    Ok(v)
}

/// Parses one trace line into `(pid, action)`.
///
/// Empty lines and `#` comments yield `Ok(None)`. Fields are separated
/// by any run of Unicode `White_Space` characters.
pub fn parse_line(raw: &str, line_no: usize) -> Result<Option<(Pid, Action)>, ParseError> {
    parse_fields(raw.as_bytes(), line_no)
}

/// [`parse_line`] on the raw bytes of a line, as the trace readers hold
/// it (a trailing `\n` is whitespace). A line holding a non-ASCII byte
/// must be valid UTF-8, or it is an error naming the line.
pub(crate) fn parse_line_bytes(
    line: &[u8],
    line_no: usize,
) -> Result<Option<(Pid, Action)>, ParseError> {
    if !line.is_ascii() && std::str::from_utf8(line).is_err() {
        return Err(err(line_no, "not valid UTF-8"));
    }
    parse_fields(line, line_no)
}

/// The tokenizer behind both entry points; `line` is valid UTF-8.
fn parse_fields(line: &[u8], line_no: usize) -> Result<Option<(Pid, Action)>, ParseError> {
    let mut it = Fields { line, pos: 0 };
    let Some(pid_tok) = it.next() else { return Ok(None) };
    if pid_tok.first() == Some(&b'#') {
        return Ok(None);
    }
    let pid = parse_pid(pid_tok, line_no)?;
    let kw = it.next().ok_or_else(|| err(line_no, "missing action keyword"))?;
    let mut arg = |what: &str| it.next().ok_or_else(|| missing(kw, what, line_no));
    let action = match kw {
        b"compute" => Action::Compute { flops: parse_vol(arg("volume")?, line_no)? },
        b"send" => Action::Send {
            dst: parse_pid(arg("destination")?, line_no)?,
            bytes: parse_vol(arg("volume")?, line_no)?,
        },
        b"Isend" | b"isend" => Action::Isend {
            dst: parse_pid(arg("destination")?, line_no)?,
            bytes: parse_vol(arg("volume")?, line_no)?,
        },
        b"recv" => {
            let src = parse_pid(arg("source")?, line_no)?;
            let bytes = it.next().map(|tok| parse_vol(tok, line_no)).transpose()?;
            Action::Recv { src, bytes }
        }
        b"Irecv" | b"irecv" => {
            let src = parse_pid(arg("source")?, line_no)?;
            let bytes = it.next().map(|tok| parse_vol(tok, line_no)).transpose()?;
            Action::Irecv { src, bytes }
        }
        b"bcast" => Action::Bcast { bytes: parse_vol(arg("volume")?, line_no)? },
        b"reduce" => Action::Reduce {
            vcomm: parse_vol(arg("vcomm")?, line_no)?,
            vcomp: parse_vol(arg("vcomp")?, line_no)?,
        },
        b"allReduce" | b"allreduce" => Action::AllReduce {
            vcomm: parse_vol(arg("vcomm")?, line_no)?,
            vcomp: parse_vol(arg("vcomp")?, line_no)?,
        },
        b"barrier" => Action::Barrier,
        b"comm_size" => Action::CommSize {
            nproc: parse_count(arg("#proc")?)
                .ok_or_else(|| err(line_no, "comm_size: invalid process count"))?,
        },
        b"wait" => Action::Wait,
        other => {
            return Err(err(line_no, format!("unknown action keyword {:?}", text(other))))
        }
    };
    if it.next().is_some() {
        return Err(err(line_no, format!("{}: trailing garbage", text(kw))));
    }
    Ok(Some((pid, action)))
}

/// Appends a volume in its most compact form (integer when integral).
fn push_vol(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends the canonical line for `(pid, action)` (no trailing newline).
pub fn format_action_into(out: &mut String, pid: Pid, action: &Action) {
    let _ = write!(out, "p{pid} {}", action.keyword());
    match action {
        Action::Compute { flops } => {
            out.push(' ');
            push_vol(out, *flops);
        }
        Action::Send { dst, bytes } | Action::Isend { dst, bytes } => {
            let _ = write!(out, " p{dst} ");
            push_vol(out, *bytes);
        }
        Action::Recv { src, bytes } | Action::Irecv { src, bytes } => {
            let _ = write!(out, " p{src}");
            if let Some(b) = bytes {
                out.push(' ');
                push_vol(out, *b);
            }
        }
        Action::Bcast { bytes } => {
            out.push(' ');
            push_vol(out, *bytes);
        }
        Action::Reduce { vcomm, vcomp } | Action::AllReduce { vcomm, vcomp } => {
            out.push(' ');
            push_vol(out, *vcomm);
            out.push(' ');
            push_vol(out, *vcomp);
        }
        Action::CommSize { nproc } => {
            let _ = write!(out, " {nproc}");
        }
        Action::Barrier | Action::Wait => {}
    }
}

/// Formats the canonical line for `(pid, action)`.
pub fn format_action(pid: Pid, action: &Action) -> String {
    let mut s = String::with_capacity(24);
    format_action_into(&mut s, pid, action);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(pid: Pid, a: Action) {
        let line = format_action(pid, &a);
        let (p2, a2) = parse_line(&line, 1).unwrap().unwrap();
        assert_eq!(p2, pid, "pid roundtrip for {line:?}");
        assert_eq!(a2, a, "action roundtrip for {line:?}");
    }

    #[test]
    fn figure_1_lines_parse() {
        // The exact trace of the paper's Figure 1 (right-hand side).
        let lines = [
            "p0 compute 1e6",
            "p0 send p1 1e6",
            "p0 recv p3",
            "p1 recv p0",
            "p1 compute 1e6",
            "p1 send p2 1e6",
        ];
        for (i, l) in lines.iter().enumerate() {
            let (pid, _) = parse_line(l, i + 1).unwrap().unwrap();
            assert_eq!(pid, usize::from(i >= 3));
        }
        let (_, a) = parse_line("p0 compute 1e6", 1).unwrap().unwrap();
        assert_eq!(a, Action::Compute { flops: 1e6 });
        let (_, a) = parse_line("p0 send p1 1e6", 1).unwrap().unwrap();
        assert_eq!(a, Action::Send { dst: 1, bytes: 1e6 });
        let (_, a) = parse_line("p0 recv p3", 1).unwrap().unwrap();
        assert_eq!(a, Action::Recv { src: 3, bytes: None });
    }

    #[test]
    fn all_actions_roundtrip() {
        roundtrip(0, Action::Compute { flops: 1e6 });
        roundtrip(1, Action::Send { dst: 0, bytes: 163840.0 });
        roundtrip(2, Action::Isend { dst: 5, bytes: 1.5 });
        roundtrip(3, Action::Recv { src: 2, bytes: None });
        roundtrip(3, Action::Recv { src: 2, bytes: Some(64.0) });
        roundtrip(4, Action::Irecv { src: 1, bytes: None });
        roundtrip(5, Action::Bcast { bytes: 4096.0 });
        roundtrip(6, Action::Reduce { vcomm: 8.0, vcomp: 16.0 });
        roundtrip(7, Action::AllReduce { vcomm: 40.0, vcomp: 80.0 });
        roundtrip(8, Action::Barrier);
        roundtrip(9, Action::CommSize { nproc: 64 });
        roundtrip(10, Action::Wait);
    }

    #[test]
    fn integral_volumes_written_compactly() {
        assert_eq!(
            format_action(1, &Action::Send { dst: 0, bytes: 163840.0 }),
            "p1 send p0 163840"
        );
    }

    #[test]
    fn comments_and_blanks_skipped() {
        assert_eq!(parse_line("", 1).unwrap(), None);
        assert_eq!(parse_line("   ", 2).unwrap(), None);
        assert_eq!(parse_line("# header", 3).unwrap(), None);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_line("p0 fly 12", 7).unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.message.contains("fly"));
    }

    #[test]
    fn rejects_negative_and_nan_volumes() {
        assert!(parse_line("p0 compute -5", 1).is_err());
        assert!(parse_line("p0 compute NaN", 1).is_err());
        assert!(parse_line("p0 compute inf", 1).is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_missing_args() {
        assert!(parse_line("p0 barrier extra", 1).is_err());
        assert!(parse_line("p0 send p1", 1).is_err());
        assert!(parse_line("p0 send", 1).is_err());
        assert!(parse_line("p0", 1).is_err());
    }

    #[test]
    fn scientific_notation_accepted() {
        let (_, a) = parse_line("p0 compute 2.5e9", 1).unwrap().unwrap();
        assert_eq!(a, Action::Compute { flops: 2.5e9 });
    }
}
