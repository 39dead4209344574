//! The crc frame both durable byte formats are built from:
//!
//! ```text
//! [payload len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! The redo log ([`crate::wal`]) is a sequence of frames, a checkpoint
//! image ([`crate::checkpoint`]) is one frame behind a magic prefix.
//! Torn tails and bit rot are detected here, once: [`take`] never
//! panics, whatever the bytes.

use crate::wal::{crc32, FRAME_HEADER};

/// Why the front of a byte string is not a whole, intact frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// The header or the payload it announces is cut short (a torn tail).
    Short,
    /// The payload does not match its crc (bit rot or a torn header).
    BadCrc,
}

/// Appends `payload` to `out` as one frame.
pub(crate) fn put(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Splits the frame at the front of `bytes` into its crc-verified
/// payload and the bytes after it.
pub(crate) fn take(bytes: &[u8]) -> Result<(&[u8], &[u8]), FrameError> {
    if bytes.len() < FRAME_HEADER {
        return Err(FrameError::Short);
    }
    let (header, rest) = bytes.split_at(FRAME_HEADER);
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if rest.len() < len {
        return Err(FrameError::Short);
    }
    let (payload, rest) = rest.split_at(len);
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok((payload, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put(&mut out, payload);
        out
    }

    #[test]
    fn take_undoes_put_and_hands_back_the_rest() {
        let mut bytes = framed(b"first");
        put(&mut bytes, b"");
        bytes.extend_from_slice(b"tail");
        assert_eq!(bytes.len(), 2 * FRAME_HEADER + 5 + 4);
        let (payload, rest) = take(&bytes).unwrap();
        assert_eq!(payload, b"first");
        // A zero-length payload is a whole frame of its own.
        let (payload, rest) = take(rest).unwrap();
        assert_eq!((payload, rest), (&b""[..], &b"tail"[..]));
        assert_eq!(take(rest), Err(FrameError::Short));
    }

    #[test]
    fn defects_are_told_apart() {
        let good = framed(b"payload bytes");
        let flip = |at: usize, bit: u8| {
            let mut bytes = good.clone();
            bytes[at] ^= bit;
            bytes
        };
        let cases: [(&str, Vec<u8>, FrameError); 6] = [
            ("empty", Vec::new(), FrameError::Short),
            (
                "short header",
                good[..FRAME_HEADER - 1].to_vec(),
                FrameError::Short,
            ),
            (
                "header only",
                good[..FRAME_HEADER].to_vec(),
                FrameError::Short,
            ),
            (
                "short payload",
                good[..good.len() - 1].to_vec(),
                FrameError::Short,
            ),
            (
                "flipped payload bit",
                flip(FRAME_HEADER + 3, 0x10),
                FrameError::BadCrc,
            ),
            ("flipped crc bit", flip(5, 0x10), FrameError::BadCrc),
        ];
        for (name, bytes, want) in cases {
            assert_eq!(take(&bytes), Err(want), "{name}");
        }
        // A flipped length bit (13 = 0b1101 bytes) reads as a torn tail
        // (longer) or as the wrong payload (shorter) — never as a frame.
        assert_eq!(take(&flip(0, 0x10)), Err(FrameError::Short));
        assert_eq!(take(&flip(0, 0x04)), Err(FrameError::BadCrc));
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        for len in 0..96usize {
            for mul in [1u8, 37, 255] {
                let junk: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(mul)).collect();
                if let Ok((payload, rest)) = take(&junk) {
                    assert_eq!(FRAME_HEADER + payload.len() + rest.len(), len);
                }
            }
        }
        // The largest announced length cannot overflow the bounds check.
        assert_eq!(take(&[0xFF; 12]), Err(FrameError::Short));
    }
}
