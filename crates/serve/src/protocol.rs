//! Wire protocol: length-prefixed JSON frames and typed requests.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! little-endian payload length followed by that many bytes of UTF-8
//! JSON. Length prefixes above [`MAX_FRAME`] are rejected before any
//! allocation happens, so a hostile 4-GiB prefix costs nothing; framing
//! violations (oversized prefix, truncated payload) are unrecoverable —
//! the stream has lost sync — so the server answers with a final error
//! frame where possible and drops the connection. Payload-level problems
//! (invalid UTF-8, malformed JSON, unknown `op`) leave the stream in
//! sync and get a typed error response on a still-usable connection.
//!
//! Requests are objects with an `op` field:
//!
//! ```json
//! {"op":"health"}
//! {"op":"stats"}
//! {"op":"reload","path":"model.clvy"}
//! {"op":"shutdown"}
//! {"op":"score","name":"app","source":"fn main(){}","dialect":"c"}
//! {"op":"score","name":"app","features":{"loc.code":120.0}}
//! {"op":"explain","name":"app","source":"fn main(){}","dialect":"c","top_k":5}
//! {"op":"compare","a":{"name":"x","source":"…"},"b":{"name":"y","features":{…}}}
//! ```
//!
//! Responses always carry `"ok"`: `{"ok":true,...}` on success,
//! `{"ok":false,"error":{"type":...,"message":...}}` on failure. Error
//! types are part of the protocol: `busy` (admission control rejected
//! the request; retry later), `bad_request`, `shutting_down`, and
//! `internal`.

use crate::json;
use clairvoyant::report::Json;
use minilang::Dialect;
use static_analysis::FeatureVector;
use std::io::{ErrorKind, Read, Write};

/// Hard cap on a frame payload. Large enough for any report batch or
/// source submission we expect; small enough that a forged length prefix
/// cannot balloon memory.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Why reading a frame stopped.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The peer disappeared mid-frame, or the frame violates the
    /// protocol (oversized prefix). The stream is out of sync and must
    /// be dropped.
    Desync(String),
    /// An I/O error other than a read timeout.
    Io(std::io::Error),
}

/// Write one frame: length prefix plus payload.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidInput, "frame larger than u32::MAX"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Serialize `value` as one frame appended to `out` — the zero-copy
/// response path. Four placeholder bytes are reserved, the JSON renders
/// *directly into the buffer* through a `fmt::Write` adapter (no
/// intermediate `String`), and the length prefix is patched afterwards.
/// Callers keep one `out` buffer per connection and reuse it across
/// responses, so a busy pipelined connection serializes without
/// allocating once the buffer has warmed up.
pub fn frame_into(out: &mut Vec<u8>, value: &Json) {
    use std::fmt::Write as _;
    struct VecWriter<'a>(&'a mut Vec<u8>);
    impl std::fmt::Write for VecWriter<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.extend_from_slice(s.as_bytes());
            Ok(())
        }
    }
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    write!(VecWriter(out), "{value}").expect("writing into a Vec cannot fail");
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// A computed response: either a structured [`Json`] value, or JSON text
/// a streaming fast path already serialized (the hot `score` endpoint
/// renders reports straight into a `String`, skipping the tree-building
/// a [`Json`] value costs per response).
pub enum Payload {
    Value(Json),
    Raw(String),
}

impl Payload {
    /// True for `{"ok":true,...}` responses. `Raw` payloads exist only
    /// on success fast paths — error responses always carry the typed
    /// [`Json`] value — so they count as ok by construction.
    pub fn is_ok(&self) -> bool {
        match self {
            Payload::Value(v) => {
                matches!(v, Json::Object(o) if o.get("ok") == Some(&Json::Bool(true)))
            }
            Payload::Raw(_) => true,
        }
    }

    /// Frame this response (length prefix + body) into `out`.
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Value(value) => frame_into(out, value),
            Payload::Raw(text) => {
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
        }
    }
}

/// Incremental frame accumulator for non-blocking reads: bytes land in a
/// reused buffer via [`FrameBuffer::space`]/[`FrameBuffer::advance`],
/// and complete frames are *borrowed* out of it ([`FrameBuffer::payload`])
/// instead of copied into per-frame allocations. The reactor's
/// connection state machine drives one of these per connection.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` holding received data.
    filled: usize,
    /// Start of the first unconsumed byte (everything before it has been
    /// parsed and will be reclaimed by `compact`).
    cursor: usize,
}

/// How much writable tail `space()` guarantees per call.
const READ_CHUNK: usize = 16 * 1024;

impl FrameBuffer {
    /// Writable tail to read into; always at least [`READ_CHUNK`] bytes.
    pub fn space(&mut self) -> &mut [u8] {
        if self.buf.len() - self.filled < READ_CHUNK {
            self.buf.resize(self.filled + READ_CHUNK, 0);
        }
        &mut self.buf[self.filled..]
    }

    /// Record `n` bytes read into the tail returned by [`space`].
    ///
    /// [`space`]: FrameBuffer::space
    pub fn advance(&mut self, n: usize) {
        debug_assert!(self.filled + n <= self.buf.len());
        self.filled += n;
    }

    /// The next complete frame's payload range, if one is buffered.
    /// `Err` means the stream is out of sync (length prefix above
    /// [`MAX_FRAME`]) and the connection must die.
    pub fn next_frame(&self) -> Result<Option<std::ops::Range<usize>>, String> {
        let avail = self.filled - self.cursor;
        if avail < 4 {
            return Ok(None);
        }
        let header: [u8; 4] = self.buf[self.cursor..self.cursor + 4]
            .try_into()
            .expect("4-byte slice");
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME {
            return Err(format!(
                "frame length {len} exceeds the {MAX_FRAME}-byte limit"
            ));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let start = self.cursor + 4;
        Ok(Some(start..start + len))
    }

    /// Borrow a payload range returned by [`next_frame`].
    ///
    /// [`next_frame`]: FrameBuffer::next_frame
    pub fn payload(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.buf[range]
    }

    /// Mark the frame ending at `payload_end` consumed.
    pub fn consume(&mut self, payload_end: usize) {
        debug_assert!(payload_end <= self.filled);
        self.cursor = payload_end;
    }

    /// Reclaim consumed bytes by shifting the unparsed tail to the
    /// front. Called once per read event, after the parse loop — a
    /// single `copy_within` instead of per-frame allocation.
    pub fn compact(&mut self) {
        if self.cursor == 0 {
            return;
        }
        self.buf.copy_within(self.cursor..self.filled, 0);
        self.filled -= self.cursor;
        self.cursor = 0;
        // A one-off burst should not pin a huge buffer forever.
        if self.buf.len() > 4 * READ_CHUNK && self.filled < READ_CHUNK {
            self.buf.truncate(self.filled.max(READ_CHUNK));
            self.buf.shrink_to(4 * READ_CHUNK);
        }
    }

    /// True when bytes of an incomplete frame are buffered — EOF here is
    /// a mid-frame truncation, not a clean close.
    pub fn has_partial(&self) -> bool {
        self.filled > self.cursor
    }
}

/// Read one frame into a caller-owned reused buffer (resized, not
/// reallocated, once warm) and return the payload length, tolerating read
/// timeouts: on `WouldBlock`/`TimedOut` the `keep_waiting` callback
/// decides whether to keep blocking. Returning `false` mid-frame counts
/// as a desync, between frames as a clean close. The pipelined client
/// reads hundreds of responses per connection; the reused buffer keeps
/// that loop allocation-free.
pub fn read_frame_into(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    keep_waiting: &mut impl FnMut() -> bool,
) -> Result<usize, FrameError> {
    let mut header = [0u8; 4];
    read_exactly(stream, &mut header, true, keep_waiting)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Desync(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    if buf.len() < len {
        buf.resize(len, 0);
    }
    read_exactly(stream, &mut buf[..len], false, keep_waiting)?;
    Ok(len)
}

/// `read_exact` with timeout polling. `at_boundary` marks whether EOF
/// before the first byte is a clean close (frame boundary) or a
/// truncation (mid-frame).
fn read_exactly(
    stream: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    keep_waiting: &mut impl FnMut() -> bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if at_boundary && filled == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Desync("connection closed mid-frame".into()))
                };
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !keep_waiting() {
                    return if at_boundary && filled == 0 {
                        Err(FrameError::Closed)
                    } else {
                        Err(FrameError::Desync("shutdown mid-frame".into()))
                    };
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// A parsed protocol request.
#[derive(Debug)]
pub enum Request {
    Health,
    Stats,
    Reload {
        path: Option<String>,
    },
    Shutdown,
    Score {
        name: String,
        input: ScoreInput,
    },
    /// Like `score`, but the response carries the full explanation:
    /// per-model exact attributions, and (for source submissions)
    /// function hotspots capped at `top_k`.
    Explain {
        name: String,
        input: ScoreInput,
        top_k: usize,
    },
    /// Explain two candidates in one batch and return the
    /// attribution-backed comparison.
    Compare {
        a: (String, ScoreInput),
        b: (String, ScoreInput),
    },
}

/// What a scoring-family request submits: program source to run through
/// the testbed, or a pre-extracted feature vector.
#[derive(Debug)]
pub enum ScoreInput {
    Source { text: String, dialect: Dialect },
    Features(FeatureVector),
}

/// Default hotspot count for `explain` requests without `top_k`.
pub const DEFAULT_TOP_K: usize = 5;

/// Parse the `source`/`features`/`dialect` triple shared by `score`,
/// `explain`, and each side of `compare`. `what` names the request in
/// error messages.
fn parse_score_input(
    obj: &mut std::collections::BTreeMap<String, Json>,
    captured: Option<Result<FeatureVector, String>>,
    what: &str,
) -> Result<ScoreInput, String> {
    // `remove` moves the already-parsed strings and feature names out of
    // the document instead of cloning them — the score hot path runs
    // this once per request. A top-level features object arrives already
    // streamed into a vector (`captured`, from `json::parse_request`);
    // compare sides and non-object `features` values take the generic
    // path here. `feats`: absent / Ok(vector) / Err(shape diagnostic).
    let feats: Option<Result<FeatureVector, String>> = match captured {
        Some(result) => Some(result),
        None => match obj.remove("features") {
            None => None,
            Some(Json::Object(map)) => Some((|| {
                let mut fv = FeatureVector::new();
                for (k, v) in map {
                    match v {
                        Json::Number(n) => fv.set(k, n),
                        _ => return Err(format!("feature `{k}` must be a number")),
                    }
                }
                Ok(fv)
            })()),
            Some(_) => Some(Err("`features` must be an object".into())),
        },
    };
    match (obj.remove("source"), feats) {
        (Some(Json::String(text)), None) => Ok(ScoreInput::Source {
            text,
            dialect: parse_dialect(json::get_str(obj, "dialect"))?,
        }),
        (None, Some(Ok(fv))) => Ok(ScoreInput::Features(fv)),
        (None, Some(Err(message))) => Err(message),
        (Some(_), None) => Err("`source` must be a string".into()),
        (Some(_), Some(_)) => Err("give either `source` or `features`, not both".into()),
        (None, None) => Err(format!("{what} needs `source` or `features`")),
    }
}

impl Request {
    /// Parse a request payload. Errors are client-facing `bad_request`
    /// messages.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let (value, captured) =
            json::parse_request(text).map_err(|e| format!("payload is not valid JSON: {e}"))?;
        let Json::Object(mut obj) = value else {
            return Err("request must be a JSON object".into());
        };
        let Some(op) = json::get_str(&obj, "op").map(str::to_string) else {
            return Err("request has no `op` field".into());
        };
        match op.as_str() {
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "reload" => Ok(Request::Reload {
                path: json::get_str(&obj, "path").map(str::to_string),
            }),
            "score" => {
                let name = json::get_str(&obj, "name").unwrap_or("app").to_string();
                let input = parse_score_input(&mut obj, captured, "score")?;
                Ok(Request::Score { name, input })
            }
            "explain" => {
                let name = json::get_str(&obj, "name").unwrap_or("app").to_string();
                let input = parse_score_input(&mut obj, captured, "explain")?;
                let top_k = match obj.get("top_k") {
                    None => DEFAULT_TOP_K,
                    Some(Json::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as usize,
                    Some(_) => return Err("`top_k` must be a non-negative integer".into()),
                };
                Ok(Request::Explain { name, input, top_k })
            }
            "compare" => {
                let mut side = |key: &str| -> Result<(String, ScoreInput), String> {
                    match obj.remove(key) {
                        Some(Json::Object(mut sub)) => {
                            let name = json::get_str(&sub, "name").unwrap_or(key).to_string();
                            Ok((name, parse_score_input(&mut sub, None, key)?))
                        }
                        Some(_) => Err(format!("`{key}` must be an object")),
                        None => Err(format!("compare needs an `{key}` object")),
                    }
                };
                Ok(Request::Compare {
                    a: side("a")?,
                    b: side("b")?,
                })
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

fn parse_dialect(name: Option<&str>) -> Result<Dialect, String> {
    match name.unwrap_or("c") {
        "c" => Ok(Dialect::C),
        "cpp" | "c++" | "cc" => Ok(Dialect::Cpp),
        "python" | "py" => Ok(Dialect::Python),
        "java" => Ok(Dialect::Java),
        other => Err(format!("unknown dialect `{other}`")),
    }
}

/// Build a typed error response.
pub fn error_response(kind: &str, message: &str) -> Json {
    Json::object(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::object(vec![
                ("type", Json::String(kind.to_string())),
                ("message", Json::String(message.to_string())),
            ]),
        ),
    ])
}

/// Build a success response from `op`-specific fields.
pub fn ok_response(op: &str, mut fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::String(op.to_string())),
    ];
    pairs.append(&mut fields);
    Json::object(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One blocking read, the payload copied out.
    fn read_one(cursor: &mut std::io::Cursor<Vec<u8>>) -> Result<Vec<u8>, FrameError> {
        let mut buf = Vec::new();
        let n = read_frame_into(cursor, &mut buf, &mut || true)?;
        buf.truncate(n);
        Ok(buf)
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"health\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_one(&mut cursor).unwrap(), b"{\"op\":\"health\"}");
        assert_eq!(read_one(&mut cursor).unwrap(), b"");
        assert!(matches!(read_one(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_prefix_is_desync_without_allocation() {
        let mut buf = Vec::from(u32::MAX.to_le_bytes());
        buf.extend_from_slice(b"xx");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_one(&mut cursor), Err(FrameError::Desync(_))));
    }

    #[test]
    fn truncated_payload_is_desync() {
        let mut buf = Vec::from(10u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_one(&mut cursor), Err(FrameError::Desync(_))));
    }

    #[test]
    fn frame_buffer_decodes_incrementally_and_zero_copy() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"health\"}").unwrap();
        write_frame(&mut wire, b"second").unwrap();

        let mut fb = FrameBuffer::default();
        // Feed the bytes one at a time: no frame until the last byte of
        // the first payload lands.
        let mut seen = Vec::new();
        for (i, byte) in wire.iter().enumerate() {
            fb.space()[0] = *byte;
            fb.advance(1);
            while let Some(range) = fb.next_frame().unwrap() {
                seen.push(fb.payload(range.clone()).to_vec());
                fb.consume(range.end);
            }
            if i + 1 < 4 + 15 {
                assert!(seen.is_empty(), "frame surfaced too early at byte {i}");
            }
        }
        fb.compact();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], b"{\"op\":\"health\"}");
        assert_eq!(seen[1], b"second");
        assert!(!fb.has_partial());
    }

    #[test]
    fn frame_buffer_rejects_oversized_prefix() {
        let mut fb = FrameBuffer::default();
        let header = (MAX_FRAME as u32 + 1).to_le_bytes();
        fb.space()[..4].copy_from_slice(&header);
        fb.advance(4);
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn frame_into_matches_write_frame() {
        let value = ok_response("health", vec![("status", Json::String("serving".into()))]);
        let mut via_write = Vec::new();
        write_frame(&mut via_write, value.to_string().as_bytes()).unwrap();
        let mut via_into = Vec::new();
        frame_into(&mut via_into, &value);
        assert_eq!(via_write, via_into);
        // Appending reuses the same buffer.
        frame_into(&mut via_into, &value);
        assert_eq!(via_into.len(), 2 * via_write.len());
    }

    #[test]
    fn read_frame_into_reuses_the_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"a longer first frame").unwrap();
        write_frame(&mut wire, b"short").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let mut wait = || true;
        let n = read_frame_into(&mut cursor, &mut buf, &mut wait).unwrap();
        assert_eq!(&buf[..n], b"a longer first frame");
        let cap = buf.capacity();
        let n = read_frame_into(&mut cursor, &mut buf, &mut wait).unwrap();
        assert_eq!(&buf[..n], b"short");
        assert_eq!(buf.capacity(), cap, "second read must not reallocate");
    }

    #[test]
    fn requests_parse() {
        assert!(matches!(
            Request::parse(b"{\"op\":\"health\"}"),
            Ok(Request::Health)
        ));
        assert!(matches!(
            Request::parse(b"{\"op\":\"reload\"}"),
            Ok(Request::Reload { path: None })
        ));
        let r = Request::parse(b"{\"op\":\"score\",\"name\":\"x\",\"features\":{\"a\":1}}");
        match r {
            Ok(Request::Score { name, input }) => {
                assert_eq!(name, "x");
                match input {
                    ScoreInput::Features(fv) => assert_eq!(fv.get("a"), Some(1.0)),
                    _ => panic!("expected features"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn explain_and_compare_parse() {
        let r = Request::parse(b"{\"op\":\"explain\",\"name\":\"x\",\"features\":{\"a\":1}}");
        match r {
            Ok(Request::Explain { name, top_k, .. }) => {
                assert_eq!(name, "x");
                assert_eq!(top_k, DEFAULT_TOP_K);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let r = Request::parse(b"{\"op\":\"explain\",\"source\":\"s\",\"top_k\":3}");
        assert!(matches!(r, Ok(Request::Explain { top_k: 3, .. })));
        let r = Request::parse(
            b"{\"op\":\"compare\",\"a\":{\"name\":\"x\",\"features\":{\"f\":1}},\
              \"b\":{\"name\":\"y\",\"source\":\"s\",\"dialect\":\"py\"}}",
        );
        match r {
            Ok(Request::Compare { a, b }) => {
                assert_eq!(a.0, "x");
                assert!(matches!(a.1, ScoreInput::Features(_)));
                assert_eq!(b.0, "y");
                assert!(matches!(
                    b.1,
                    ScoreInput::Source {
                        dialect: Dialect::Python,
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Sub-objects default their side's key as the name.
        let r = Request::parse(
            b"{\"op\":\"compare\",\"a\":{\"source\":\"s\"},\"b\":{\"source\":\"s\"}}",
        );
        match r {
            Ok(Request::Compare { a, b }) => {
                assert_eq!(a.0, "a");
                assert_eq!(b.0, "b");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        for bad in [
            &b"\xff\xfe"[..],
            b"[]",
            b"{\"op\":\"frobnicate\"}",
            b"{}",
            b"{\"op\":\"score\"}",
            b"{\"op\":\"score\",\"source\":\"x\",\"features\":{}}",
            b"{\"op\":\"score\",\"source\":\"x\",\"dialect\":\"cobol\"}",
            b"{\"op\":\"score\",\"features\":{\"a\":\"one\"}}",
            b"{\"op\":\"explain\"}",
            b"{\"op\":\"explain\",\"source\":\"x\",\"top_k\":-1}",
            b"{\"op\":\"explain\",\"source\":\"x\",\"top_k\":1.5}",
            b"{\"op\":\"compare\"}",
            b"{\"op\":\"compare\",\"a\":{\"source\":\"x\"}}",
            b"{\"op\":\"compare\",\"a\":\"x\",\"b\":\"y\"}",
            b"{\"op\":\"compare\",\"a\":{\"source\":\"x\"},\"b\":{}}",
        ] {
            assert!(
                Request::parse(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }
}
