//! Reads FSRV response frames off a raw socket, for the suites that check
//! the server's framing byte for byte. Included by `tests/serve.rs`,
//! `tests/event.rs`, `tests/live.rs` and `tests/properties.rs` with
//! `#[path]`; it is not a test target.

use fistful::serve::protocol::FRAME_HEADER_LEN;
use fistful::serve::{PROTOCOL_MAGIC, PROTOCOL_VERSION};
use std::io::Read;
use std::net::TcpStream;

/// Reads one response frame and returns `(epoch, payload)`, or `None` on a
/// clean EOF before the frame's first byte. Panics on a bad magic or
/// version, or on a frame torn after its first byte.
pub(super) fn read_frame(stream: &mut TcpStream) -> Option<(u64, Vec<u8>)> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0;
    while filled < FRAME_HEADER_LEN {
        match stream.read(&mut header[filled..]).expect("read header") {
            0 if filled == 0 => return None,
            0 => panic!("connection closed mid-frame"),
            n => filled += n,
        }
    }
    assert_eq!(header[..4], PROTOCOL_MAGIC, "bad magic");
    assert_eq!(header[4], PROTOCOL_VERSION, "bad version");
    let len = u32::from_le_bytes(header[5..].try_into().unwrap()) as usize;
    // Version-2 frames carry the artifact epoch between header and payload.
    let mut epoch = [0u8; 8];
    stream.read_exact(&mut epoch).expect("read epoch");
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("read payload");
    Some((u64::from_le_bytes(epoch), payload))
}
