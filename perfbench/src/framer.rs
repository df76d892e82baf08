//! Incremental HTTP/1.1 response framer for the open-loop generator.
//!
//! The generator reads its pipelined keep-alive connection without
//! blocking, so a read may end anywhere inside a response. The framer
//! buffers bytes and yields each response once its headers and
//! `content-length` body have fully arrived.

/// One complete response.
#[derive(Debug, PartialEq)]
pub struct Frame {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Responses cut from a byte stream that arrives in arbitrary pieces.
#[derive(Debug, Default)]
pub struct ResponseFramer {
    buf: Vec<u8>,
    start: usize,
}

/// Headers larger than this are a framing error, not a slow peer.
const MAX_HEAD: usize = 16 * 1024;

impl ResponseFramer {
    /// Buffer freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` until one has arrived.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, String> {
        let avail = &self.buf[self.start..];
        let Some(head_len) = avail.windows(4).position(|w| w == b"\r\n\r\n") else {
            if avail.len() > MAX_HEAD {
                return Err(format!("response head exceeds {MAX_HEAD} bytes"));
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&avail[..head_len])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = match status_line.split(' ').collect::<Vec<_>>().as_slice() {
            [version, code, ..] if version.starts_with("HTTP/1.") => code
                .parse::<u16>()
                .map_err(|_| format!("bad status line {status_line:?}"))?,
            _ => return Err(format!("bad status line {status_line:?}")),
        };
        let mut length = None;
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("bad header line {line:?}"))?;
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad content-length {value:?}"))?,
                );
            }
        }
        let length = length.ok_or("response without content-length")?;
        let body_start = head_len + 4;
        if avail.len() < body_start + length {
            return Ok(None);
        }
        let body = avail[body_start..body_start + length].to_vec();
        self.start += body_start + length;
        Ok(Some(Frame { status, body }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> Vec<u8> {
        let mut out = Vec::new();
        lopc_serve::http::write_response(&mut out, status, "application/json", body, true)
            .expect("in-memory write");
        out
    }

    #[test]
    fn frames_pipelined_responses_split_at_every_byte() {
        let mut stream = response(200, r#"{"r":1.5}"#);
        stream.extend(response(422, r#"{"error":"x"}"#));
        stream.extend(response(200, ""));
        for cut in 0..stream.len() {
            let mut f = ResponseFramer::default();
            let mut got = Vec::new();
            for piece in [&stream[..cut], &stream[cut..]] {
                f.push(piece);
                while let Some(frame) = f.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            let statuses: Vec<u16> = got.iter().map(|fr| fr.status).collect();
            assert_eq!(statuses, [200, 422, 200], "cut at {cut}");
            assert_eq!(got[0].body, br#"{"r":1.5}"#);
            assert!(got[2].body.is_empty());
            assert_eq!(f.buf.len(), f.start);
        }
    }

    #[test]
    fn byte_at_a_time_and_partial_body() {
        let stream = response(200, "0123456789");
        let mut f = ResponseFramer::default();
        for (i, b) in stream.iter().enumerate() {
            f.push(std::slice::from_ref(b));
            let frame = f.next_frame().unwrap();
            assert_eq!(frame.is_some(), i + 1 == stream.len());
        }
    }

    #[test]
    fn rejects_malformed_heads() {
        let mut f = ResponseFramer::default();
        f.push(b"SMTP 200 OK\r\ncontent-length: 0\r\n\r\n");
        assert!(f.next_frame().is_err());
        let mut f = ResponseFramer::default();
        f.push(b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n");
        assert!(f.next_frame().is_err());
        let mut f = ResponseFramer::default();
        f.push(&vec![b'a'; MAX_HEAD + 1]);
        assert!(f.next_frame().is_err());
    }
}
