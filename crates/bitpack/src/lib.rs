//! Bit-level substrate for the BOS reproduction.
//!
//! This crate provides everything below the compression algorithms:
//!
//! * [`BitWriter`] / [`BitReader`] — MSB-first bit streams over byte buffers.
//! * [`mod@width`] — bit-width arithmetic (`⌈log2(x+1)⌉` and friends) used by the
//!   cost model of the paper (Definition 1 / 5).
//! * [`zigzag`] — zigzag mapping between signed and unsigned integers and
//!   LEB128 varints, used by block headers and delta encoders.
//! * [`kernels`] — word-at-a-time pack/unpack kernels for the hot
//!   uniform-width paths.
//! * [`unrolled`] — width-specialized fully unrolled lane kernels plus
//!   fused frame-of-reference pack/unpack, bit-identical to [`kernels`]
//!   and dispatched through a `[fn; 65]` width table (DESIGN.md §8).
//! * [`codec`] — the unified [`BlockCodec`] trait every integer block
//!   codec in the workspace implements (re-exported by `pfor` and
//!   `encodings`), plus the shared multi-block parallel encode driver.
//! * [`bitmap`] — the `0` / `10` / `11` outlier-position bitmap of Figure 2,
//!   written a byte at a time and decoded a byte at a time through a
//!   compile-time table.
//! * [`simple8b`] — the word-aligned Simple8b codec used to store PFOR
//!   exception streams (stand-in for Simple16; see DESIGN.md §2).
//!
//! All codecs are lossless and panic-free on untrusted input lengths: readers
//! return `Err(`[`DecodeError`]`)` instead of reading out of bounds. The
//! [`error`] module defines that single shared error enum; every decoder in
//! the workspace (bos, pfor, encodings, floatcodec, gpcomp, tsfile, query)
//! propagates it unchanged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod bitmap;
pub mod bits;
pub mod codec;
pub mod error;
pub mod kernels;
pub mod simple8b;
pub mod unrolled;
pub mod width;
pub mod zigzag;

pub use bitmap::{BitmapWriter, OutlierBitmap, Part};
pub use bits::{BitReader, BitWriter};
pub use codec::{BlockCodec, EncodeSession};
pub use error::{DecodeError, DecodeResult, EncodeError};
pub use width::{bit_width, width, width1};
pub use zigzag::{zigzag_decode, zigzag_encode};

/// Decoder sanity limit: a single block claiming more than this many values
/// is rejected as corrupt before any allocation happens.
///
/// Zero-width payloads make the claimed count impossible to validate
/// against the buffer length (a constant block of a billion values is one
/// header), so every decoder in this workspace enforces this cap instead of
/// trusting the length prefix. 2^24 values (128 MiB of `i64`) is three
/// orders of magnitude above the paper's largest block (2^13).
pub const MAX_BLOCK_VALUES: usize = 1 << 24;
