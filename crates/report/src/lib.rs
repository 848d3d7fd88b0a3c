//! Shared JSON plumbing and atomic result artifacts.
//!
//! The workspace is registry-free, so this is a small hand-rolled JSON
//! value tree ([`Json`]), a strict parser ([`Json::parse`] — the service
//! protocol and the client mode round-trip through it), and an atomic
//! file writer ([`write_atomic`]: temp file in the destination directory,
//! then `rename`). An interrupted run — or a worker that dies mid-write —
//! can therefore never leave a truncated artifact under `results/`:
//! readers either see the previous complete file or the new complete file.
//!
//! This crate grew out of `flowc-bench`'s report module once the serve
//! layer needed the same machinery for request/response bodies and
//! metrics snapshots; `flowc_bench::report` re-exports it for
//! compatibility.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A JSON value. Numbers are `f64`; non-finite values serialize as
/// `null` (JSON has no NaN/Infinity).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (rendered via the shortest round-trip `f64` format).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an integer value.
    pub fn int(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload truncated to `u64`, if this is a non-negative
    /// finite number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.is_finite() && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (one value, surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset on malformed input, trailing
    /// garbage, or nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Renders the value as pretty-printed JSON (2-space indent) with a
    /// trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value as compact single-line JSON (for wire protocols
    /// and JSON-lines logs).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact(&mut out);
        out
    }

    fn render_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).render_compact(out);
                    out.push(':');
                    value.render_compact(out);
                }
                out.push('}');
            }
            other => other.render(out, 0),
        }
    }

    fn render(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
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
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.render(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    Json::Str(key.clone()).render(out, depth + 1);
                    out.push_str(": ");
                    value.render(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// A JSON parse failure: what went wrong and the byte offset it was
/// detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                break;
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
        }
        self.depth -= 1;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:`"));
            }
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                break;
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
        self.depth -= 1;
        Ok(Json::Obj(fields))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("unescaped control character")),
                _ => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).expect("valid utf8"));
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Which step of an atomic write failed. Every variant carries the
/// underlying I/O error so callers can log the root cause; the variant
/// itself tells them what the filesystem state is (see [`WriteError`]).
#[derive(Debug)]
pub enum WriteStep {
    /// Creating the destination's parent directory.
    CreateDir,
    /// The destination path has no file-name component.
    BadPath,
    /// Creating the temporary file next to the destination. The previous
    /// artifact (if any) is untouched.
    CreateTemp,
    /// Writing or flushing the temporary file's bytes.
    WriteTemp,
    /// `fsync` of the temporary file before the rename.
    SyncTemp,
    /// The `rename` that publishes the artifact.
    Rename,
    /// `fsync` of the parent directory after the rename. The new file is
    /// visible but its directory entry may not survive a power loss.
    SyncDir,
}

impl WriteStep {
    fn name(&self) -> &'static str {
        match self {
            WriteStep::CreateDir => "create-dir",
            WriteStep::BadPath => "bad-path",
            WriteStep::CreateTemp => "create-temp",
            WriteStep::WriteTemp => "write-temp",
            WriteStep::SyncTemp => "sync-temp",
            WriteStep::Rename => "rename",
            WriteStep::SyncDir => "sync-dir",
        }
    }
}

/// A typed atomic-write failure: which step failed, on which path, and
/// the underlying I/O error. In every case except [`WriteStep::SyncDir`]
/// the destination still holds the previous complete artifact (or does
/// not exist); a half-written file is never visible.
#[derive(Debug)]
pub struct WriteError {
    /// The step that failed.
    pub step: WriteStep,
    /// The destination path the write was for.
    pub path: std::path::PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "atomic write of {} failed at {}: {}",
            self.path.display(),
            self.step.name(),
            self.source
        )
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<WriteError> for io::Error {
    fn from(e: WriteError) -> io::Error {
        io::Error::new(e.source.kind(), e.to_string())
    }
}

/// Writes `contents` to `path` atomically and durably: the bytes go to a
/// temporary file in the same directory (so the final `rename` cannot
/// cross a filesystem boundary), are fsynced, renamed over the
/// destination, and then the parent directory is fsynced so the new
/// directory entry itself survives a power-loss-style crash. Parent
/// directories are created as needed.
///
/// # Errors
///
/// A [`WriteError`] naming the failed step; on failure the temporary
/// file is removed and any previous artifact at `path` is left
/// untouched (readers never observe a partial file).
pub fn write_atomic_typed(path: &Path, contents: &str) -> Result<(), WriteError> {
    let fail = |step: WriteStep, source: io::Error| WriteError {
        step,
        path: path.to_path_buf(),
        source,
    };
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir).map_err(|e| fail(WriteStep::CreateDir, e))?;
    }
    let file_name = path.file_name().ok_or_else(|| {
        fail(
            WriteStep::BadPath,
            io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        {
            use std::io::Write as _;
            if flowc_failpoint::fire("report.write.temp") {
                return Err(fail(
                    WriteStep::CreateTemp,
                    io::Error::other("injected temp-create failure"),
                ));
            }
            let mut f = fs::File::create(&tmp).map_err(|e| fail(WriteStep::CreateTemp, e))?;
            f.write_all(contents.as_bytes())
                .map_err(|e| fail(WriteStep::WriteTemp, e))?;
            f.sync_all().map_err(|e| fail(WriteStep::SyncTemp, e))?;
        }
        // A crash here must leave only the previous artifact visible:
        // the temp file is fully synced but not yet published.
        flowc_failpoint::fire("report.write.before-rename");
        fs::rename(&tmp, path).map_err(|e| fail(WriteStep::Rename, e))?;
        if let Some(dir) = dir {
            // Durability of the rename itself: fsync the directory so the
            // entry is on disk, not just in the page cache.
            fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| fail(WriteStep::SyncDir, e))?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// [`write_atomic_typed`] with the error flattened to [`io::Error`]
/// (compatibility shim for callers that only propagate).
///
/// # Errors
///
/// Propagates I/O errors; on failure the temporary file is removed and
/// any previous artifact at `path` is left untouched.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    write_atomic_typed(path, contents).map_err(io::Error::from)
}

/// Renders `json` pretty-printed and writes it atomically to `path`.
///
/// # Errors
///
/// Propagates I/O errors from [`write_atomic`].
pub fn write_json(path: &Path, json: &Json) -> io::Result<()> {
    write_atomic(path, &json.to_pretty())
}

// ---------------------------------------------------------------------------
// Integrity-checked artifacts: CRC32-framed JSON with verified read-back.
// ---------------------------------------------------------------------------

/// CRC32 (IEEE 802.3, the zlib polynomial), table-driven. Used to frame
/// journal records and on-disk artifacts so corruption is *detected* at
/// read time instead of silently poisoning downstream stages.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Why a checksummed artifact could not be read back. Every variant is a
/// cache *miss* from the caller's point of view; the variants exist so
/// metrics can distinguish "not there" from "there but corrupt".
#[derive(Debug)]
pub enum ReadCheckError {
    /// The file does not exist.
    Missing,
    /// The file exists but could not be read.
    Io(io::Error),
    /// The file is not the expected `{"crc32", "data"}` envelope.
    Malformed(String),
    /// The payload's checksum does not match the recorded one: the file
    /// is torn or corrupted.
    ChecksumMismatch {
        /// CRC32 recorded in the envelope.
        expected: u32,
        /// CRC32 recomputed from the payload.
        actual: u32,
    },
}

impl ReadCheckError {
    /// Whether the artifact was present-but-corrupt (as opposed to
    /// absent) — the figure integrity metrics count.
    pub fn is_corrupt(&self) -> bool {
        !matches!(self, ReadCheckError::Missing)
    }
}

impl std::fmt::Display for ReadCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadCheckError::Missing => write!(f, "artifact missing"),
            ReadCheckError::Io(e) => write!(f, "artifact unreadable: {e}"),
            ReadCheckError::Malformed(m) => write!(f, "artifact malformed: {m}"),
            ReadCheckError::ChecksumMismatch { expected, actual } => write!(
                f,
                "artifact corrupt: crc32 {actual:08x}, envelope says {expected:08x}"
            ),
        }
    }
}

impl std::error::Error for ReadCheckError {}

/// Writes `payload` to `path` inside a CRC32 envelope
/// (`{"crc32": "<hex>", "data": <payload>}`), atomically and durably.
/// Read it back with [`read_json_checked`], which verifies the checksum
/// and turns any corruption into a typed miss.
///
/// # Errors
///
/// A [`WriteError`] naming the failed step (see [`write_atomic_typed`]).
pub fn write_json_checked(path: &Path, payload: &Json) -> Result<(), WriteError> {
    let body = payload.to_compact();
    let envelope = Json::Obj(vec![
        (
            "crc32".into(),
            Json::str(format!("{:08x}", crc32(body.as_bytes()))),
        ),
        ("data".into(), payload.clone()),
    ]);
    write_atomic_typed(path, &envelope.to_pretty())
}

/// Reads a CRC32-enveloped artifact written by [`write_json_checked`],
/// verifying the checksum of the payload's canonical (compact) rendering.
///
/// # Errors
///
/// [`ReadCheckError`]: missing file, I/O failure, a malformed envelope,
/// or a checksum mismatch. Callers treat all of these as a cache miss;
/// [`ReadCheckError::is_corrupt`] separates absence from corruption for
/// metrics.
pub fn read_json_checked(path: &Path) -> Result<Json, ReadCheckError> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(ReadCheckError::Missing),
        Err(e) => return Err(ReadCheckError::Io(e)),
    };
    let envelope = Json::parse(&text).map_err(|e| ReadCheckError::Malformed(e.to_string()))?;
    let expected = envelope
        .get("crc32")
        .and_then(Json::as_str)
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or_else(|| ReadCheckError::Malformed("missing crc32 field".into()))?;
    let data = envelope
        .get("data")
        .ok_or_else(|| ReadCheckError::Malformed("missing data field".into()))?;
    let actual = crc32(data.to_compact().as_bytes());
    if actual != expected {
        return Err(ReadCheckError::ChecksumMismatch { expected, actual });
    }
    Ok(data.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_and_typed_values() {
        let j = Json::Obj(vec![
            ("name".into(), Json::str("a\"b\\c\nd")),
            ("count".into(), Json::int(3)),
            ("ratio".into(), Json::Num(0.5)),
            ("bad".into(), Json::Num(f64::NAN)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let s = j.to_pretty();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"count\": 3"));
        assert!(s.contains("\"ratio\": 0.5"));
        assert!(s.contains("\"bad\": null"));
        assert!(s.contains("[\n"));
        assert!(s.contains("\"empty\": {}"));
        assert!(s.ends_with('\n'));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("flowc-report-{}", std::process::id()));
        let path = dir.join("out.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("out.json")]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_json_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("flowc-report-json-{}", std::process::id()));
        let path = dir.join("r.json");
        let j = Json::Obj(vec![("x".into(), Json::int(1))]);
        write_json(&path, &j).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), j.to_pretty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_round_trips_pretty_and_compact() {
        let j = Json::Obj(vec![
            ("s".into(), Json::str("hé\t\"x\"\\")),
            ("n".into(), Json::Num(-12.75)),
            ("i".into(), Json::int(42)),
            ("b".into(), Json::Bool(false)),
            ("z".into(), Json::Null),
            (
                "a".into(),
                Json::Arr(vec![Json::int(1), Json::str(""), Json::Obj(vec![])]),
            ),
        ]);
        assert_eq!(Json::parse(&j.to_pretty()).unwrap(), j);
        assert_eq!(Json::parse(&j.to_compact()).unwrap(), j);
    }

    #[test]
    fn parse_accepts_escapes_and_surrogates() {
        let j = Json::parse(r#""a\u0041\n\ud83d\ude00b""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "aA\n😀b");
        assert_eq!(
            Json::parse("1e3").unwrap().as_f64().unwrap(),
            1000.0 // exponent form
        );
        assert_eq!(Json::parse("-0.5").unwrap().as_f64().unwrap(), -0.5);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{'a':1}",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"\\ud800\"",
            "[1]]",
            "nul",
            "+1",
            "01a",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err(), "depth limit");
    }

    #[test]
    fn accessors_navigate_objects() {
        let j = Json::parse(r#"{"job":"j-1","deadline_ms":250,"ok":true,"xs":[1,2]}"#).unwrap();
        assert_eq!(j.get("job").and_then(Json::as_str), Some("j-1"));
        assert_eq!(j.get("deadline_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 test vectors (same polynomial as zlib's crc32).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn checked_artifacts_round_trip_and_detect_corruption() {
        let dir = std::env::temp_dir().join(format!("flowc-report-test-{}", std::process::id()));
        let path = dir.join("artifact.json");
        let payload = Json::parse(r#"{"job":"j-1","xs":[1,2,3]}"#).unwrap();
        write_json_checked(&path, &payload).unwrap();
        assert_eq!(read_json_checked(&path).unwrap(), payload);

        // Absence is Missing, not corruption.
        let err = read_json_checked(&dir.join("nope.json")).unwrap_err();
        assert!(matches!(err, ReadCheckError::Missing));
        assert!(!err.is_corrupt());

        // Flip a payload byte: the checksum catches it.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("j-1", "j-9")).unwrap();
        let err = read_json_checked(&path).unwrap_err();
        assert!(
            matches!(err, ReadCheckError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(err.is_corrupt());

        // Truncate mid-document: malformed, still a corrupt miss.
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            read_json_checked(&path).unwrap_err(),
            ReadCheckError::Malformed(_)
        ));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_typed_reports_the_failed_step() {
        // A destination with no file-name component fails typed, early.
        let err = write_atomic_typed(Path::new("/"), "x").unwrap_err();
        assert!(matches!(err.step, WriteStep::BadPath));
        assert!(err.to_string().contains("bad-path"));

        // Creating the temp file inside a non-directory fails as CreateTemp
        // (the create_dir_all of a file path fails first on most systems,
        // so park the obstruction one level down).
        let dir = std::env::temp_dir().join(format!("flowc-report-wt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("occupied"), "not a dir").unwrap();
        let err = write_atomic_typed(&dir.join("occupied").join("x.json"), "x").unwrap_err();
        assert!(
            matches!(err.step, WriteStep::CreateDir | WriteStep::CreateTemp),
            "{err}"
        );
        let io: io::Error = err.into();
        assert!(io.to_string().contains("atomic write"));
        let _ = fs::remove_dir_all(&dir);
    }
}
