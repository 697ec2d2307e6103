//! NDJSON socket framing: one JSON document per `\n`-terminated line.
//!
//! [`LineReader`] deals with everything a TCP byte stream does to a
//! line protocol: reads that deliver half a frame, frames split across
//! arbitrarily many segments, several frames arriving in one read, and
//! hostile lines that never terminate. An oversized line is reported as
//! a recoverable [`FrameError::Oversized`] — the reader then discards
//! bytes until the next newline and keeps framing, so the server can
//! answer with an error frame instead of dying (or buffering without
//! bound).

use std::io::Read;

/// Longest accepted line, in bytes. Submissions embed whole scenario
/// plans or resolved `SimulationConfig` documents, so the cap is
/// generous — but it exists, because a newline-less peer must not make
/// the server buffer forever.
pub const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// A framing failure. Only `Io` ends the connection; the other variants
/// leave the reader in a consistent state and the caller may keep
/// reading.
#[derive(Debug)]
pub enum FrameError {
    /// A line exceeded the reader's limit. The offending bytes are
    /// dropped; the reader resynchronizes at the next newline.
    Oversized {
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// The underlying read timed out (server sockets poll with a read
    /// timeout so shutdown is prompt). No bytes were lost; retry.
    TimedOut,
    /// The transport failed; the connection is done.
    Io(String),
    /// A complete line arrived but was not valid UTF-8.
    NotUtf8,
}

impl FrameError {
    /// Human-readable message (mirrors what goes into an error frame).
    pub fn message(&self) -> String {
        match self {
            FrameError::Oversized { limit } => {
                format!("line exceeds the {limit}-byte frame limit")
            }
            FrameError::TimedOut => "read timed out".to_owned(),
            FrameError::Io(e) => format!("read failed: {e}"),
            FrameError::NotUtf8 => "line is not valid UTF-8".to_owned(),
        }
    }
}

/// Incremental NDJSON line reader over any [`Read`].
#[derive(Debug)]
pub struct LineReader<R: Read> {
    inner: R,
    /// Bytes received but not yet returned as lines.
    buf: Vec<u8>,
    max: usize,
    /// Set after an oversized line: drop everything up to and including
    /// the next newline before framing resumes.
    discarding: bool,
    /// The inner stream reached EOF.
    eof: bool,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner` with the default [`MAX_LINE_BYTES`] limit.
    pub fn new(inner: R) -> Self {
        LineReader::with_max(inner, MAX_LINE_BYTES)
    }

    /// Wraps `inner` with an explicit line-length limit (min 1).
    pub(crate) fn with_max(inner: R, max: usize) -> Self {
        LineReader { inner, buf: Vec::new(), max: max.max(1), discarding: false, eof: false }
    }

    /// Returns the next complete line without its terminating newline,
    /// `Ok(None)` on clean end of stream. A trailing unterminated chunk
    /// at EOF is returned as a final line (lenient: peers that close
    /// without a final `\n` still get their last frame processed).
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] and [`FrameError::NotUtf8`] are
    /// recoverable — call again to keep reading. [`FrameError::TimedOut`]
    /// means retry. [`FrameError::Io`] ends the stream.
    pub fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        loop {
            // Serve whatever is already buffered first.
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).take(pos).collect();
                if self.discarding {
                    // Tail of an oversized line: swallow and resume.
                    self.discarding = false;
                    continue;
                }
                if pos > self.max {
                    // The whole oversized line (newline included) was
                    // already buffered — e.g. several frames arrived in
                    // one burst — so it is consumed in full and no
                    // discard phase is needed.
                    return Err(FrameError::Oversized { limit: self.max });
                }
                return match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => Err(FrameError::NotUtf8),
                };
            }
            if self.discarding {
                // Still inside the oversized line: keep dropping.
                self.buf.clear();
            } else if self.buf.len() > self.max {
                self.buf.clear();
                self.discarding = true;
                return Err(FrameError::Oversized { limit: self.max });
            }
            if self.eof {
                if self.buf.is_empty() || self.discarding {
                    return Ok(None);
                }
                let line = std::mem::take(&mut self.buf);
                return match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => Err(FrameError::NotUtf8),
                };
            }
            let mut chunk = [0u8; 8192];
            match self.inner.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(FrameError::TimedOut)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out a scripted byte stream in fixed-size
    /// chunks, so tests control exactly how frames are split across
    /// "TCP segments".
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Chunked {
        fn new(data: &[u8], chunk: usize) -> Self {
            Chunked { data: data.to_vec(), pos: 0, chunk: chunk.max(1) }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn collect_lines(data: &[u8], chunk: usize) -> Vec<String> {
        let mut r = LineReader::new(Chunked::new(data, chunk));
        let mut out = Vec::new();
        while let Some(line) = r.next_line().expect("clean stream") {
            out.push(line);
        }
        out
    }

    #[test]
    fn frames_survive_any_segmentation() {
        let stream = b"{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";
        let whole = collect_lines(stream, usize::MAX);
        assert_eq!(whole, ["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]);
        // Byte-at-a-time delivery (the worst segmentation TCP can do)
        // and every chunk size in between produce the same frames.
        for chunk in 1..stream.len() {
            assert_eq!(collect_lines(stream, chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn partial_line_at_eof_is_returned() {
        assert_eq!(collect_lines(b"{\"a\":1}\n{\"b\":2}", 3), ["{\"a\":1}", "{\"b\":2}"]);
        assert!(collect_lines(b"", 1).is_empty());
        // A lone newline is an empty line (the server skips those).
        assert_eq!(collect_lines(b"\n", 1), [""]);
    }

    #[test]
    fn oversized_line_is_an_error_then_resyncs() {
        let mut data = vec![b'x'; 100];
        data.extend_from_slice(b"\n{\"ok\":1}\n");
        let mut r = LineReader::with_max(Chunked::new(&data, 7), 16);
        match r.next_line() {
            Err(FrameError::Oversized { limit: 16 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The reader resynchronizes at the newline and keeps framing.
        assert_eq!(r.next_line().expect("recovered"), Some("{\"ok\":1}".to_owned()));
        assert_eq!(r.next_line().expect("eof"), None);
    }

    #[test]
    fn oversized_line_fully_buffered_before_the_call_is_still_an_error() {
        // Everything — oversized line, its newline, and the next frame —
        // lands in the buffer in a single read, so the newline scan sees
        // the terminator before the length check would trip.
        let mut data = vec![b'x'; 100];
        data.extend_from_slice(b"\n{\"ok\":1}\n");
        let mut r = LineReader::with_max(Chunked::new(&data, usize::MAX), 16);
        match r.next_line() {
            Err(FrameError::Oversized { limit: 16 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert_eq!(r.next_line().expect("recovered"), Some("{\"ok\":1}".to_owned()));
        assert_eq!(r.next_line().expect("eof"), None);
    }

    #[test]
    fn oversized_line_without_newline_ends_cleanly() {
        let data = vec![b'x'; 64];
        let mut r = LineReader::with_max(Chunked::new(&data, 5), 8);
        assert!(matches!(r.next_line(), Err(FrameError::Oversized { .. })));
        assert_eq!(r.next_line().expect("eof while discarding"), None);
    }

    #[test]
    fn invalid_utf8_is_recoverable() {
        let data = [0xFFu8, 0xFE, b'\n', b'o', b'k', b'\n'];
        let mut r = LineReader::new(Chunked::new(&data, 2));
        assert!(matches!(r.next_line(), Err(FrameError::NotUtf8)));
        assert_eq!(r.next_line().expect("recovered"), Some("ok".to_owned()));
    }
}
