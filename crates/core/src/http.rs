//! The HTTP/1.1 codec under [`crate::server`]: one framing parser for
//! the server's requests and the [`Client`](crate::server::Client)'s
//! responses, and the encoders for both. It holds no socket, clock or
//! thread: [`Conn::fill`] reads from any [`Read`], and bytes past one
//! message stay buffered for the next (pipelined) one.
//!
//! Every framing limit is enforced here. A head (start line, headers and
//! the blank line) over [`MAX_HEAD_BYTES`] is 431, and no read buffers
//! past it. A `Content-Length` that is not `1*DIGIT`, or repeats with
//! another value, is 400; a `Transfer-Encoding` is 501; a request body
//! over the caller's cap is 413; a head or body that is not UTF-8 is
//! 400. Lines end in CRLF or a bare LF. A head is judged line by line as
//! its lines complete, so how the bytes are split across reads never
//! changes the parsed message or the rejection.

use std::io::{Read, Write};

/// The most bytes a message head may take, its blank line included.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The most bytes one [`Conn::fill`] reads into a body, so a declared
/// length allocates only as its bytes arrive.
const READ_CHUNK: usize = 64 * 1024;

/// One parsed HTTP request, as the server's handler sees it.
#[derive(Debug, PartialEq)]
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) body: String,
    /// The version's default (HTTP/1.0 closes), or the last
    /// `Connection: close|keep-alive` header.
    pub(crate) keep_alive: bool,
}

/// A message breaking a framing rule: the status a server answers and
/// why. Nothing after it on the connection can be framed.
#[derive(Debug, PartialEq)]
pub(crate) struct Reject {
    pub(crate) status: u16,
    pub(crate) message: String,
}

fn reject(status: u16, message: String) -> Reject {
    Reject { status, message }
}

/// The bytes read from one connection and not yet framed.
pub(crate) struct Conn {
    /// `buf[..len]` is read and unconsumed; the rest is read space.
    buf: Vec<u8>,
    len: usize,
    /// How many buffered bytes the message being framed can use.
    need: usize,
}

impl Conn {
    pub(crate) fn new() -> Conn {
        Conn {
            buf: Vec::new(),
            len: 0,
            need: MAX_HEAD_BYTES,
        }
    }

    /// One read from `src`, never past what the message being framed can
    /// use. `Ok(0)` is end of input.
    pub(crate) fn fill(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let end = self.need.min(self.len + READ_CHUNK);
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        let n = src.read(&mut self.buf[self.len..end])?;
        self.len += n;
        Ok(n)
    }

    /// The next request, `Ok(None)` until all of it is buffered.
    pub(crate) fn request(&mut self, max_body: usize) -> Result<Option<Request>, Reject> {
        let message = self.next(request_line, |len| match len {
            Some(len) if len > max_body => Err(reject(
                413,
                format!("body of {len} bytes exceeds the {max_body}-byte limit"),
            )),
            len => Ok(len.unwrap_or(0)),
        })?;
        Ok(
            message.map(|((method, path, keep_alive), connection, body)| Request {
                method,
                path,
                body,
                keep_alive: connection.unwrap_or(keep_alive),
            }),
        )
    }

    /// The next response as `(status, body)`, `Ok(None)` until all of it
    /// is buffered. Bodies are framed by `Content-Length` alone.
    pub(crate) fn response(&mut self) -> Result<Option<(u16, String)>, Reject> {
        let message = self.next(status_line, |len| {
            len.ok_or_else(|| reject(400, "response missing content-length".into()))
        })?;
        Ok(message.map(|(status, _, body)| (status, body)))
    }

    /// Frames the next message: the start line through `start`, the
    /// headers, then a body of the length `body_len` admits for the
    /// declared `Content-Length`. Yields the start line, the
    /// `Connection` header's keep-alive verdict and the body.
    fn next<S>(
        &mut self,
        start: fn(&str) -> Result<S, Reject>,
        body_len: impl FnOnce(Option<usize>) -> Result<usize, Reject>,
    ) -> Result<Option<(S, Option<bool>, String)>, Reject> {
        let window = &self.buf[..self.len.min(MAX_HEAD_BYTES)];
        let (mut first, mut length, mut connection) = (None, None, None);
        let mut at = 0;
        let head_len = loop {
            let Some(end) = window[at..].iter().position(|&b| b == b'\n') else {
                if self.len >= MAX_HEAD_BYTES {
                    let why = format!("head exceeds the {MAX_HEAD_BYTES}-byte limit");
                    return Err(reject(431, why));
                }
                self.need = MAX_HEAD_BYTES;
                return Ok(None);
            };
            let line = std::str::from_utf8(&window[at..at + end])
                .map_err(|_| reject(400, "head is not valid UTF-8".into()))?
                .trim_end();
            at += end + 1;
            if first.is_none() {
                first = Some(start(line)?);
                continue;
            }
            if line.is_empty() {
                break at;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(reject(400, format!("malformed header {line:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                // `1*DIGIT` only: `usize::from_str` would also take a `+`.
                let len = match value.parse::<usize>() {
                    Ok(len) if value.bytes().all(|b| b.is_ascii_digit()) => len,
                    _ => return Err(reject(400, format!("bad content-length {value:?}"))),
                };
                if length.is_some_and(|first| first != len) {
                    let why = format!("conflicting content-length headers ({value:?})");
                    return Err(reject(400, why));
                }
                length = Some(len);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Reading on would take the chunk lines for the next message.
                return Err(reject(
                    501,
                    format!(
                        "transfer-encoding {value:?} is not supported; send a content-length body"
                    ),
                ));
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    connection = Some(false);
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    connection = Some(true);
                }
            }
        };
        let end = head_len
            .checked_add(body_len(length)?)
            .ok_or_else(|| reject(400, "content-length overflows".into()))?;
        if self.len < end {
            self.need = end;
            return Ok(None);
        }
        let body = std::str::from_utf8(&self.buf[head_len..end])
            .map_err(|_| reject(400, "body is not valid UTF-8".into()))?
            .to_owned();
        self.buf.copy_within(end..self.len, 0);
        self.len -= end;
        self.need = MAX_HEAD_BYTES;
        let first = first.expect("the start line precedes the blank line");
        Ok(Some((first, connection, body)))
    }
}

/// `METHOD PATH HTTP/1.x` → method, path, and the version's default
/// keep-alive.
fn request_line(line: &str) -> Result<(String, String, bool), Reject> {
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(reject(400, format!("malformed request line {line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(reject(400, format!("unsupported protocol {version:?}")));
    }
    Ok((method.into(), path.into(), version != "HTTP/1.0"))
}

/// `HTTP/1.x STATUS REASON` → the status.
fn status_line(line: &str) -> Result<u16, Reject> {
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    status.ok_or_else(|| reject(400, format!("malformed status line {line:?}")))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Appends one JSON response, head then `body`, to `out`. `Retry-After`
/// is whole seconds on the wire: the hint rounds up, never to zero.
pub(crate) fn encode_response(
    out: &mut Vec<u8>,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after_ms: Option<u64>,
) {
    let retry_after = retry_after_ms
        .map(|ms| format!("retry-after: {}\r\n", ms.div_ceil(1000).max(1)))
        .unwrap_or_default();
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\
         {retry_after}connection: {}\r\n\r\n{body}",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
}

/// Appends one request, head then `body`, to `out`.
pub(crate) fn encode_request(out: &mut Vec<u8>, method: &str, path: &str, body: &str) {
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nhost: uxm\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every message `next` frames from `wire` when its bytes arrive in
    /// pieces ending at `cuts`, read the way the server and the client
    /// read a socket; then the rejection that stopped framing, if any.
    fn frame<T>(
        wire: &[u8],
        cuts: &[usize],
        next: &mut impl FnMut(&mut Conn) -> Result<Option<T>, Reject>,
    ) -> (Vec<T>, Option<Reject>) {
        let (mut conn, mut framed, mut from) = (Conn::new(), Vec::new(), 0);
        for &to in cuts.iter().chain([&wire.len()]) {
            let mut piece = &wire[from..to];
            from = to;
            loop {
                match next(&mut conn) {
                    Ok(Some(message)) => framed.push(message),
                    Ok(None) if conn.fill(&mut piece).expect("slices read") == 0 => break,
                    Ok(None) => {}
                    Err(reject) => return (framed, Some(reject)),
                }
            }
        }
        (framed, None)
    }

    /// Frames `wire` in one piece, split at every byte, and one byte at
    /// a time; every feed must give what the one-piece feed gives.
    fn split_invariant<T: PartialEq + std::fmt::Debug>(
        wire: &[u8],
        mut next: impl FnMut(&mut Conn) -> Result<Option<T>, Reject>,
    ) -> (Vec<T>, Option<Reject>) {
        let whole = frame(wire, &[], &mut next);
        for cut in 0..=wire.len() {
            assert_eq!(frame(wire, &[cut], &mut next), whole, "split at byte {cut}");
        }
        let bytes: Vec<usize> = (1..wire.len()).collect();
        assert_eq!(frame(wire, &bytes, &mut next), whole, "one byte at a time");
        whole
    }

    fn requests(wire: impl AsRef<[u8]>) -> (Vec<Request>, Option<Reject>) {
        split_invariant(wire.as_ref(), |conn| conn.request(256))
    }

    fn request(method: &str, path: &str, body: &str, keep_alive: bool) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.into(),
            keep_alive,
        }
    }

    fn rejected(status: u16, message: &str) -> Option<Reject> {
        Some(reject(status, message.into()))
    }

    #[test]
    fn every_served_request_shape_frames_alike_at_every_split() {
        let mut sent = Vec::new();
        encode_request(
            &mut sent,
            "POST",
            "/query/po",
            r#"{"type":"ptq","pattern":"//Qty"}"#,
        );
        assert_eq!(
            requests(&sent),
            (
                vec![request(
                    "POST",
                    "/query/po",
                    r#"{"type":"ptq","pattern":"//Qty"}"#,
                    true
                )],
                None
            )
        );
        let cases: [(&str, Vec<Request>); 6] = [
            (
                "GET /healthz HTTP/1.1\r\nhost: uxm\r\n\r\n",
                vec![request("GET", "/healthz", "", true)],
            ),
            (
                "GET /healthz HTTP/1.0\r\n\r\n",
                vec![request("GET", "/healthz", "", false)],
            ),
            (
                "GET /stats HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
                vec![request("GET", "/stats", "", true)],
            ),
            (
                "POST /batch HTTP/1.1\r\ncontent-length: 2\r\nconnection: close\r\n\r\n[]",
                vec![request("POST", "/batch", "[]", false)],
            ),
            (
                "POST /batch HTTP/1.1\ncontent-length: 2\n\n[]",
                vec![request("POST", "/batch", "[]", true)],
            ),
            (
                "POST /batch HTTP/1.1\r\ncontent-length: 2\r\n\r\n[]GET /healthz HTTP/1.1\r\n\r\n",
                vec![
                    request("POST", "/batch", "[]", true),
                    request("GET", "/healthz", "", true),
                ],
            ),
        ];
        for (wire, expected) in cases {
            assert_eq!(requests(wire), (expected, None), "{wire:?}");
        }
    }

    #[test]
    fn every_hostile_request_shape_is_rejected_alike_at_every_split() {
        let head_over = format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "x".repeat(MAX_HEAD_BYTES)
        );
        let cap = "head exceeds the 16384-byte limit";
        let cases: [(Vec<u8>, Option<Reject>); 8] = [
            (
                b"POST /batch HTTP/1.1\r\ncontent-length: +2\r\n\r\n[]".to_vec(),
                rejected(400, r#"bad content-length "+2""#),
            ),
            (
                b"POST /batch HTTP/1.1\r\ncontent-length: 100\r\ncontent-length: 2\r\n\r\n[]"
                    .to_vec(),
                rejected(400, r#"conflicting content-length headers ("2")"#),
            ),
            (
                b"POST /q HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n2\r\n[]\r\n0\r\n\r\n"
                    .to_vec(),
                rejected(
                    501,
                    r#"transfer-encoding "chunked" is not supported; send a content-length body"#,
                ),
            ),
            (head_over.into_bytes(), rejected(431, cap)),
            (
                format!(
                    "POST /batch HTTP/1.1\r\ncontent-length: 257\r\n\r\n{}",
                    "[".repeat(257)
                )
                .into_bytes(),
                rejected(413, "body of 257 bytes exceeds the 256-byte limit"),
            ),
            (
                b"GET / HTTP/1.1\r\nx-name: \xff\xfe\r\n\r\n".to_vec(),
                rejected(400, "head is not valid UTF-8"),
            ),
            (
                b"POST /batch HTTP/1.1\r\ncontent-length: 2\r\n\r\n\xc3(".to_vec(),
                rejected(400, "body is not valid UTF-8"),
            ),
            (
                b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz\r\n\r\n".to_vec(),
                rejected(400, r#"malformed request line "GET /healthz""#),
            ),
        ];
        for (wire, rejection) in cases {
            let (framed, got) = requests(&wire);
            assert_eq!(got, rejection, "{:?}", String::from_utf8_lossy(&wire));
            assert!(framed.len() <= 1, "{framed:?}");
        }
        // A request line cut short frames nothing and rejects nothing:
        // the connection waits for the rest.
        assert_eq!(requests("GET /healthz HT"), (vec![], None));
        assert_eq!(
            requests("POST /batch HTTP/1.1\r\ncontent-length: 2\r\n\r\n["),
            (vec![], None)
        );
    }

    /// The cap counts the whole head, blank line included: a head of
    /// exactly `MAX_HEAD_BYTES` is served, one byte more is 431.
    #[test]
    fn head_cap_is_exact() {
        let head = |len: usize| {
            let pad = "x".repeat(len - "GET / HTTP/1.1\r\nx: \r\n\r\n".len());
            format!("GET / HTTP/1.1\r\nx: {pad}\r\n\r\n")
        };
        let exact = frame(head(MAX_HEAD_BYTES).as_bytes(), &[], &mut |c| c.request(0));
        assert_eq!(exact, (vec![request("GET", "/", "", true)], None));
        let over = frame(head(MAX_HEAD_BYTES + 1).as_bytes(), &[], &mut |c| {
            c.request(0)
        });
        assert_eq!(over.1.map(|r| r.status), Some(431));
        let line_over = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        let over = frame(line_over.as_bytes(), &[], &mut |c| c.request(0));
        assert_eq!(over.1.map(|r| r.status), Some(431));
        // Reads stop at the cap: nothing past it is ever buffered.
        let (mut conn, mut endless) = (Conn::new(), std::io::repeat(b'x'));
        while conn.request(0) == Ok(None) {
            conn.fill(&mut endless).expect("repeat reads");
        }
        assert_eq!(conn.len, MAX_HEAD_BYTES);
    }

    #[test]
    fn responses_frame_alike_at_every_split_and_need_a_length() {
        let mut sent = Vec::new();
        encode_response(&mut sent, 200, r#"{"status":"ok"}"#, true, None);
        encode_response(&mut sent, 503, "{}", false, Some(1800));
        let framed = split_invariant(&sent, Conn::response);
        assert_eq!(
            framed,
            (
                vec![(200, r#"{"status":"ok"}"#.into()), (503, "{}".into())],
                None
            )
        );
        for (wire, rejection) in [
            (
                "HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n{}",
                rejected(400, "response missing content-length"),
            ),
            (
                "HTTP/1.1 200 OK\r\ncontent-length: +5\r\n\r\n{\"a\"}",
                rejected(400, r#"bad content-length "+5""#),
            ),
            (
                "HTTP/1.1 OK\r\ncontent-length: 0\r\n\r\n",
                rejected(400, r#"malformed status line "HTTP/1.1 OK""#),
            ),
        ] {
            assert_eq!(
                split_invariant(wire.as_bytes(), Conn::response),
                (vec![], rejection)
            );
        }
    }
}
