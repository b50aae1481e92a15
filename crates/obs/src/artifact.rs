//! The one artifact writer. Every JSON file a harness leaves behind — metrics
//! snapshots, SLO / chaos / health reports, traces, timeseries, profiler and
//! benchmark reports — goes through [`write_artifact`], which refuses to
//! write text that is not well-formed JSON. The reports are hand-rolled
//! (no serde offline), so this is the one place a stray comma or a `NaN`
//! from a `{:.3}` float is caught, at the writer instead of by a reader.

use std::io;
use std::path::PathBuf;

/// Directory artifacts of `kind` (`metrics`, `slo`, `traces`, …) land in:
/// `$SUCA_OUT_DIR/<kind>`, by default `target/<kind>`. Relative paths
/// resolve against the working directory.
pub fn artifact_dir(kind: &str) -> PathBuf {
    std::env::var_os("SUCA_OUT_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join(kind)
}

/// Write `json` to `<artifact_dir(kind)>/<stem>.json` and return the path.
/// Fails with `InvalidData`, writing nothing, when `json` is malformed.
pub fn write_artifact(kind: &str, stem: &str, json: &str) -> io::Result<PathBuf> {
    validate_json(json).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{kind}/{stem}.json: {e}"),
        )
    })?;
    let dir = artifact_dir(kind);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Check that `text` is exactly one JSON value by the RFC 8259 grammar. A
/// recognizer, not a parser: it builds nothing, and nesting depth costs one
/// byte of `open` per level, no call stack.
pub fn validate_json(text: &str) -> Result<(), String> {
    let b = text.as_bytes();
    // Closers of the containers still open: `}` or `]`.
    let mut open: Vec<u8> = Vec::new();
    let mut i = 0;
    loop {
        i = skip_ws(b, i);
        match b.get(i) {
            // In ASCII each closer is its opener plus two.
            Some(&c @ (b'{' | b'[')) => {
                i = skip_ws(b, i + 1);
                if b.get(i) != Some(&(c + 2)) {
                    // Not `{}` / `[]`: the first member follows.
                    open.push(c + 2);
                    if c == b'{' {
                        i = key(b, i)?;
                    }
                    continue;
                }
                i += 1;
            }
            Some(b'"') => i = string(b, i)?,
            Some(b'-' | b'0'..=b'9') => i = number(b, i)?,
            _ => match ["true", "false", "null"]
                .iter()
                .find(|w| b[i..].starts_with(w.as_bytes()))
            {
                Some(w) => i += w.len(),
                None => return fail("expected a value", i),
            },
        }
        // A value just ended: close containers until a comma asks for more.
        loop {
            i = skip_ws(b, i);
            let Some(&closer) = open.last() else {
                return match b.get(i) {
                    None => Ok(()),
                    Some(_) => fail("trailing characters after the value", i),
                };
            };
            match b.get(i) {
                Some(b',') => {
                    i = skip_ws(b, i + 1);
                    if closer == b'}' {
                        i = key(b, i)?;
                    }
                    break;
                }
                Some(&c) if c == closer => {
                    i += 1;
                    open.pop();
                }
                _ => return fail("expected ',' or the closing bracket", i),
            }
        }
    }
}

fn fail<T>(what: &str, at: usize) -> Result<T, String> {
    Err(format!("{what} at byte {at}"))
}

fn skip_ws(b: &[u8], i: usize) -> usize {
    i + b[i..]
        .iter()
        .take_while(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        .count()
}

/// `"name" :` of an object member; returns the index after the colon.
fn key(b: &[u8], i: usize) -> Result<usize, String> {
    if b.get(i) != Some(&b'"') {
        return fail("expected a member name", i);
    }
    let i = skip_ws(b, string(b, i)?);
    if b.get(i) != Some(&b':') {
        return fail("expected ':'", i);
    }
    Ok(i + 1)
}

/// The string opening at `b[i]`; returns the index after its closing quote.
fn string(b: &[u8], mut i: usize) -> Result<usize, String> {
    i += 1;
    loop {
        match b.get(i) {
            Some(b'"') => return Ok(i + 1),
            Some(b'\\') => {
                let hex = match b.get(i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => 0,
                    Some(b'u') => 4,
                    _ => return fail("bad escape", i),
                };
                let digits = b.get(i + 2..i + 2 + hex);
                if !digits.is_some_and(|d| d.iter().all(u8::is_ascii_hexdigit)) {
                    return fail("bad \\u escape", i);
                }
                i += 2 + hex;
            }
            Some(0..=0x1F) => return fail("raw control character in string", i),
            Some(_) => i += 1,
            None => return fail("unterminated string", i),
        }
    }
}

/// The number starting at `b[i]`; returns the index after it.
fn number(b: &[u8], mut i: usize) -> Result<usize, String> {
    let digits = |i: usize| match b[i..].iter().take_while(|c| c.is_ascii_digit()).count() {
        0 => fail("expected a digit", i),
        n => Ok(i + n),
    };
    if b[i] == b'-' {
        i += 1;
    }
    // No leading zeros: after `0` only a fraction or an exponent may follow.
    i = if b.get(i) == Some(&b'0') {
        i + 1
    } else {
        digits(i)?
    };
    if b.get(i) == Some(&b'.') {
        i = digits(i + 1)?;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        i = digits(i)?;
    }
    Ok(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_json() {
        for ok in [
            "0",
            "-0.5e+3",
            "1E9",
            "\"\"",
            "null",
            " true \n",
            "[]",
            "{}",
            "[ ]",
            "{ }",
            "[1, 2.0, -3]",
            "{\"a\": {\"b\": [null, false, {}]}, \"c\": \"x\"}\n",
            "\"esc \\\" \\\\ \\/ \\b \\f \\n \\r \\t \\u00e9 \\uD83D\\uDE00\"",
            "\"raw unicode é 😀\"",
        ] {
            assert_eq!(validate_json(ok), Ok(()), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            " ",
            "NaN",
            "{\"p99\": NaN}",
            "inf",
            "-inf",
            "[1.0, inf]",
            "Infinity",
            "[1, 2,]",
            "{\"a\": 1,}",
            "[,]",
            "\"tab\there\"",
            "\"line\nbreak\"",
            "\"nul\u{0}\"",
            "\"bad \\x escape\"",
            "\"short \\u12\"",
            "\"open",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "-",
            "{\"a\" 1}",
            "{a: 1}",
            "{\"a\": 1 \"b\": 2}",
            "[1 2]",
            "[1}",
            "{\"a\": 1]",
            "[",
            "{\"a\": [",
            "]",
            "{} {}",
            "1 2",
            "nul",
            "truefalse",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_name_the_byte() {
        assert_eq!(
            validate_json("[1, 2,]"),
            Err("expected a value at byte 6".to_string())
        );
        assert_eq!(
            validate_json("{\"a\": 1,}"),
            Err("expected a member name at byte 8".to_string())
        );
    }

    #[test]
    fn deep_nesting_costs_no_stack() {
        let depth = 200_000;
        let mut doc = "[".repeat(depth);
        doc.push_str("{\"k\": 1}");
        doc.push_str(&"]".repeat(depth));
        assert_eq!(validate_json(&doc), Ok(()));
        doc.pop();
        assert!(validate_json(&doc).is_err(), "one bracket short");
    }

    #[test]
    fn malformed_json_is_not_written() {
        // `kind` is unique to this test: the process-wide `SUCA_OUT_DIR` is
        // never set here, so the file would land under `target/<kind>`.
        let err = write_artifact("artifact_unit_reject", "bad", "{\"a\": 1,}\n")
            .expect_err("trailing comma must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .starts_with("artifact_unit_reject/bad.json: "),
            "{err}"
        );
        assert!(!artifact_dir("artifact_unit_reject").exists());
    }
}
