//! A deliberately small HTTP/1.1 subset over any byte stream (the server
//! hands it a [`std::net::TcpStream`]): enough for the service's JSON
//! request/response endpoints, hand-rolled so the server stays
//! dependency-free.
//!
//! Supported: request line + headers + `Content-Length` bodies, one
//! request per connection (`Connection: close` semantics). Not supported
//! (and rejected with typed status codes): chunked transfer encoding,
//! pipelining, bodies beyond [`MAX_BODY`].

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};

/// Upper bound on a request body; larger submissions are rejected with
/// `413` instead of buffering without bound.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// Upper bound on the header block (request line + all headers).
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// A parsed request: method, path, query parameters, and the raw body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased as received).
    pub method: String,
    /// The path component, query string stripped (e.g. `/status`).
    pub path: String,
    /// Decoded `?key=value` pairs (no percent-decoding: the API only uses
    /// numeric ids and bare words).
    pub query: HashMap<String, String>,
    /// The request body (empty when no `Content-Length`).
    pub body: String,
}

/// Why a request could not be parsed, mapped to a status code.
#[derive(Debug)]
pub struct HttpError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Short machine-readable error tag.
    pub tag: &'static str,
}

impl HttpError {
    fn new(status: u16, tag: &'static str) -> Self {
        HttpError { status, tag }
    }
}

/// Reads one `\n`-terminated line and charges it to the header block.
/// At most `MAX_HEADER_BYTES + 1 - used` bytes are ever buffered, so a
/// client that never sends a newline costs a bounded allocation.
fn read_line(
    reader: &mut impl BufRead,
    used: &mut usize,
    tag: &'static str,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    reader
        .take((MAX_HEADER_BYTES + 1 - *used) as u64)
        .read_until(b'\n', &mut line)
        .map_err(|_| HttpError::new(400, tag))?;
    *used += line.len();
    if *used > MAX_HEADER_BYTES {
        return Err(HttpError::new(413, "headers_too_large"));
    }
    String::from_utf8(line).map_err(|_| HttpError::new(400, tag))
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// [`HttpError`] with `400` on malformed syntax, `413` on oversized
/// bodies or header blocks, `501` on transfer encodings we don't speak.
pub fn read_request(stream: impl Read) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut header_bytes = 0usize;

    let line = read_line(&mut reader, &mut header_bytes, "bad_request_line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "bad_request_line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "bad_request_line"))?
        .to_string();

    let mut content_length = 0usize;
    let mut chunked = false;
    loop {
        let header = read_line(&mut reader, &mut header_bytes, "bad_header")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::new(400, "bad_content_length"))?;
            } else if name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity") {
                chunked = true;
            }
        }
    }
    if chunked {
        return Err(HttpError::new(501, "transfer_encoding_unsupported"));
    }
    if content_length > MAX_BODY {
        return Err(HttpError::new(413, "body_too_large"));
    }

    let mut body_bytes = vec![0u8; content_length];
    reader
        .read_exact(&mut body_bytes)
        .map_err(|_| HttpError::new(400, "truncated_body"))?;
    let body = String::from_utf8(body_bytes).map_err(|_| HttpError::new(400, "body_not_utf8"))?;

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target, ""),
    };
    let mut query = HashMap::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => query.insert(k.to_string(), v.to_string()),
            None => query.insert(pair.to_string(), String::new()),
        };
    }

    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// The reason phrase for the handful of status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response in one write and flushes; head and
/// body leave in one segment, so Nagle's algorithm never holds the body
/// back waiting for the client's delayed ACK of the head. Errors are
/// swallowed: a client that hung up mid-response is its own problem, not
/// the server's.
pub fn write_response(stream: &mut impl Write, status: u16, body: &str) {
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(raw.as_bytes())
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req =
            parse("POST /submit?x=1&flag HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/submit");
        assert_eq!(req.query.get("x").map(String::as_str), Some("1"));
        assert_eq!(req.query.get("flag").map(String::as_str), Some(""));
        assert_eq!(req.body, "body");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_chunked_and_oversize() {
        let e = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 501);
        let e = parse(&format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        ))
        .unwrap_err();
        assert_eq!(e.status, 413);
    }

    /// A reader that counts the bytes it hands out, so a test can show
    /// the parser stopped pulling from a client that never ends a line.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn a_request_line_without_newline_is_cut_off_at_the_cap() {
        let endless = vec![b'a'; 1 << 20];
        let mut stream = Counting {
            inner: endless.as_slice(),
            read: 0,
        };
        let e = read_request(&mut stream).unwrap_err();
        assert_eq!((e.status, e.tag), (413, "headers_too_large"));
        // Only the cap plus one buffer's worth is ever pulled in.
        assert!(
            stream.read <= MAX_HEADER_BYTES + 8 * 1024,
            "{}",
            stream.read
        );
    }

    #[test]
    fn the_header_block_cap_counts_every_byte_through_the_blank_line() {
        // Request line + one padded header + the blank line, `total` bytes.
        let block = |total: usize| {
            let fixed = "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
            format!(
                "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "p".repeat(total - fixed)
            )
        };
        assert_eq!(block(MAX_HEADER_BYTES).len(), MAX_HEADER_BYTES);
        assert!(parse(&block(MAX_HEADER_BYTES)).is_ok());
        let e = parse(&block(MAX_HEADER_BYTES + 1)).unwrap_err();
        assert_eq!((e.status, e.tag), (413, "headers_too_large"));
    }

    #[test]
    fn a_response_is_one_write() {
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = Writes(Vec::new());
        write_response(&mut out, 200, "{\"ok\":true}");
        assert_eq!(out.0.len(), 1);
        let text = String::from_utf8(out.0.remove(0)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.ends_with("Content-Length: 11\r\nConnection: close\r\n\r\n{\"ok\":true}"));
    }
}
