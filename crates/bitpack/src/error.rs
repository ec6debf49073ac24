//! The shared typed error for every decode path in the workspace.
//!
//! All decoders — bit-level primitives here in `bitpack`, the BOS block
//! format in `bos`, the PFOR family, the outer encodings, float codecs,
//! general-purpose decompressors, and the `tsfile`/`query` readers — report
//! failure through this one enum. A decoder must never panic on malformed
//! input; clippy holds the decode crates to no `unwrap`/`expect`/`panic!`
//! and their decode modules to no unchecked indexing, and
//! the adversarial proptests feed random, truncated, and bit-flipped buffers
//! to confirm every failure surfaces as a `DecodeError`.

use std::fmt;

/// Why a decode failed. Carried unchanged from the innermost primitive
/// (e.g. [`crate::BitReader`]) to the outermost API (`tsfile`, `query`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the declared payload did.
    Truncated,
    /// A mode/tag byte holds a value the format does not define.
    BadModeByte {
        /// The unrecognised byte as read from the stream.
        mode: u8,
    },
    /// A bit-width field exceeds 64 and can never describe a `u64` payload.
    WidthOverflow {
        /// The out-of-range width as read from the stream.
        width: u32,
    },
    /// A varint ran past 10 bytes / 64 bits of payload.
    VarintOverflow,
    /// A count field (block length, run length, part count, …) exceeds the
    /// decoder's sanity cap ([`crate::MAX_BLOCK_VALUES`]) or its context.
    CountOverflow {
        /// The implausible count as read from the stream.
        claimed: u64,
    },
    /// The position bitmap's per-part counts disagree with the block header.
    BitmapCountMismatch {
        /// Lower-outlier count claimed by the header.
        header_lower: usize,
        /// Upper-outlier count claimed by the header.
        header_upper: usize,
        /// Lower-outlier positions actually present in the bitmap.
        bitmap_lower: usize,
        /// Upper-outlier positions actually present in the bitmap.
        bitmap_upper: usize,
    },
    /// Reconstructing a value overflowed its integer type (e.g. base +
    /// packed offset left `i64` range).
    ValueOverflow,
    /// A section's decoded size disagrees with the size its header declared.
    LengthMismatch {
        /// Size the header promised.
        expected: usize,
        /// Size actually produced or consumed.
        got: usize,
    },
    /// A varint-claimed length exceeds what its context can possibly hold
    /// (bytes remaining in the buffer, values remaining in the block, …).
    /// Raised by [`crate::zigzag::read_len_bounded`] before any allocation
    /// is sized from the claim, so a corrupt 8-byte varint can never drive
    /// a multi-gigabyte `Vec` reservation.
    LengthOverrun {
        /// The length as read from the stream.
        claimed: u64,
        /// The largest length the surrounding context allows.
        bound: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Truncated => write!(f, "input truncated mid-field"),
            DecodeError::BadModeByte { mode } => {
                write!(f, "unrecognised mode byte {mode:#04x}")
            }
            DecodeError::WidthOverflow { width } => {
                write!(f, "bit width {width} exceeds 64")
            }
            DecodeError::VarintOverflow => {
                write!(f, "varint exceeds 64 bits")
            }
            DecodeError::CountOverflow { claimed } => {
                write!(f, "count field {claimed} exceeds decoder limits")
            }
            DecodeError::BitmapCountMismatch {
                header_lower,
                header_upper,
                bitmap_lower,
                bitmap_upper,
            } => write!(
                f,
                "position bitmap holds {bitmap_lower} lower / {bitmap_upper} upper \
                 outliers but header claims {header_lower} / {header_upper}"
            ),
            DecodeError::ValueOverflow => {
                write!(f, "reconstructed value overflows its integer type")
            }
            DecodeError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "section length mismatch: header says {expected}, got {got}"
                )
            }
            DecodeError::LengthOverrun { claimed, bound } => {
                write!(
                    f,
                    "length field {claimed} exceeds its context bound {bound}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Shorthand for decode results throughout the workspace.
pub type DecodeResult<T> = Result<T, DecodeError>;

/// Why an encode failed. Encoders see trusted in-memory values, so the only
/// failure class today is infrastructure: a worker thread (or the codec it
/// ran) panicking inside the parallel block driver. The driver contains the
/// panic with `catch_unwind` and reports it as a value instead of poisoning
/// the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A codec panicked while encoding the given block index. The output
    /// buffer is left exactly as it was on entry.
    WorkerPanicked {
        /// Zero-based index of the first block whose encode panicked.
        block: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EncodeError::WorkerPanicked { block } => {
                write!(
                    f,
                    "codec panicked while encoding block {block}; output rolled back"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            DecodeError::Truncated.to_string(),
            "input truncated mid-field"
        );
        assert!(DecodeError::BadModeByte { mode: 0xAB }
            .to_string()
            .contains("0xab"));
        assert!(DecodeError::WidthOverflow { width: 65 }
            .to_string()
            .contains("65"));
        assert!(DecodeError::CountOverflow { claimed: 1 << 40 }
            .to_string()
            .contains(&(1u64 << 40).to_string()));
        let m = DecodeError::BitmapCountMismatch {
            header_lower: 1,
            header_upper: 2,
            bitmap_lower: 3,
            bitmap_upper: 4,
        };
        let s = m.to_string();
        for part in ["1", "2", "3", "4"] {
            assert!(s.contains(part), "{s} missing {part}");
        }
        assert!(DecodeError::LengthMismatch {
            expected: 9,
            got: 7
        }
        .to_string()
        .contains('9'));
        let s = DecodeError::LengthOverrun {
            claimed: 1 << 50,
            bound: 4096,
        }
        .to_string();
        assert!(
            s.contains(&(1u64 << 50).to_string()) && s.contains("4096"),
            "{s}"
        );
        let s = EncodeError::WorkerPanicked { block: 17 }.to_string();
        assert!(s.contains("17"), "{s}");
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(DecodeError::VarintOverflow);
        assert!(e.to_string().contains("varint"));
    }
}
