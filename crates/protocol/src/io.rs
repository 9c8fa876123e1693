//! Framed transport: blocking [`read_frame`] / [`read_frame_into`] /
//! [`write_frame`] over any `std::io` stream (in practice a `TcpStream`).

use crate::frame::Frame;
use crate::wire::DecodeError;
use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload size (32 MiB).
///
/// A peer announcing a longer frame is treated as malformed and the
/// connection dropped — the cap bounds per-connection memory no matter
/// what arrives on the socket.  Legitimate frames stay far below it:
/// the server chunks result streams into bounded [`Frame::Rows`]
/// batches.
pub const MAX_FRAME: usize = 32 * 1024 * 1024;

/// Read one frame from `stream`, blocking until it is complete.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer closed
/// the connection between frames).  EOF in the middle of a frame,
/// oversized announcements and undecodable payloads are all
/// `Err(InvalidData)`.
pub fn read_frame<R: Read>(stream: &mut R) -> io::Result<Option<Frame>> {
    read_frame_into(stream, &mut Vec::new())
}

/// [`read_frame`] with the payload read into `payload`, so a reader of
/// many frames reuses one buffer. `payload`'s contents on return are
/// unspecified.
pub fn read_frame_into<R: Read>(
    stream: &mut R,
    payload: &mut Vec<u8>,
) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    payload.clear();
    payload.resize(len, 0);
    stream.read_exact(payload)?;
    Frame::decode_payload(payload)
        .map(Some)
        .map_err(|e: DecodeError| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Encode one frame, write it to `stream` and flush `stream`.
///
/// What reaches the peer when is the caller's choice of `stream`. Given
/// the socket itself — the client's requests, both sides of the handshake
/// — each frame is one send, out before the call returns. The server
/// instead gathers a reply's frames by passing a `Vec<u8>` (whose `flush`
/// does nothing) and writes that buffer to the socket at two points: when
/// a [`Frame::Rows`] batch fills, and when the reply ends. Rows therefore
/// still reach the client as batches complete, a small reply is a single
/// send, and a disconnected peer still surfaces as a prompt write error
/// (which is how the server notices a mid-query disconnect and drops the
/// cursor, releasing its pump slots).
pub fn write_frame<W: Write>(stream: &mut W, frame: &Frame) -> io::Result<()> {
    let bytes = frame
        .try_encode()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    stream.write_all(&bytes)?;
    stream.flush()
}
