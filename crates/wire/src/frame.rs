//! Length-prefixed frame transport.
//!
//! Every protocol message travels as one frame:
//!
//! ```text
//! [ u32 LE payload length | payload bytes ... ]
//! ```
//!
//! The payload itself begins with [`PROTOCOL_VERSION`] and an opcode
//! byte (see [`crate::message`]); the frame layer only cares about
//! delimiting it. A hard payload cap ([`MAX_FRAME_BYTES`]) guards both
//! sides against hostile or corrupt lengths — a server must never
//! allocate gigabytes because four bytes on the wire said so.
//!
//! Both ends read with the one blocking [`read_frame`]: the client, the
//! server's connection workers and the benchmark. A socket timeout that
//! fires inside a frame loses its bytes, so every caller treats a read
//! error as the end of the connection.

use std::io::{self, Read, Write};

/// Version byte carried as the first payload byte of every frame.
/// Decoders reject frames from a different major protocol version
/// outright, so a version bump can never be silently misparsed.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard cap on a frame payload in bytes (8 MiB): far above any
/// legitimate message (the largest are `Stats` JSON snapshots and
/// batched record updates), far below an allocation-of-death.
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// Errors from the frame transport.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes clean EOF mid-frame).
    Io(io::Error),
    /// The peer announced a payload over the cap.
    TooLarge {
        /// Announced payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (length prefix + payload) and flushes the stream.
///
/// The [`MAX_FRAME_BYTES`] cap is enforced here too (not only on
/// reads): an oversized payload is rejected with
/// [`io::ErrorKind::InvalidInput`] *before* any bytes hit the wire,
/// instead of being written whole only for the peer to kill the
/// connection — or, past `u32::MAX`, silently truncating the length
/// prefix and corrupting the stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            FrameError::TooLarge {
                len: payload.len(),
                max: MAX_FRAME_BYTES,
            },
        ));
    }
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one complete frame payload. Returns `Ok(None)` on a clean EOF
/// *at a frame boundary* (the peer closed an idle connection); EOF in
/// the middle of a frame is an [`io::ErrorKind::UnexpectedEof`] error.
/// A small frame already in the socket buffer costs two reads: the
/// length prefix, then the payload.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    // the first read distinguishes clean close from torn frame
    let got = loop {
        match r.read(&mut len_buf) {
            Ok(0) => return Ok(None),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    };
    r.read_exact(&mut len_buf[got..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        write_frame(&mut buf, &[7u8; 1000]).expect("write big");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).expect("read").as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).expect("read"), Some(vec![7u8; 1000]),);
        // clean EOF at a frame boundary
        assert!(read_frame(&mut r).expect("eof").is_none());
    }

    #[test]
    fn a_buffered_frame_costs_two_reads() {
        struct Counting<'a>(&'a [u8], usize);
        impl Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 += 1;
                self.0.read(buf)
            }
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, &[3u8; 40]).expect("write");
        let mut r = Counting(&buf, 0);
        assert_eq!(read_frame(&mut r).expect("read"), Some(vec![3u8; 40]));
        // on a socket, one read per request waits: the length prefix's
        assert_eq!(r.1, 2, "the length prefix, then the payload");
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_is_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full frame").expect("write");
        buf.truncate(buf.len() - 3); // tear the payload
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn torn_length_prefix_is_an_error() {
        let buf = [0x05u8, 0x00]; // two of four length bytes
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn oversized_outbound_frame_is_rejected_before_writing() {
        let mut buf = Vec::new();
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        let err = write_frame(&mut buf, &huge).expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing may reach the wire");
        // exactly at the cap is fine
        write_frame(&mut io::sink(), &huge[..MAX_FRAME_BYTES]).expect("at-cap frame");
    }
}
