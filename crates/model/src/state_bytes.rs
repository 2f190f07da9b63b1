//! The workspace's one little-endian byte codec.
//!
//! Every byte layout the workspace writes goes out through [`StateWriter`]
//! and comes back through [`StateReader`]: policy checkpoint blobs
//! ([`DispatchPolicy::save_state`](crate::DispatchPolicy::save_state) /
//! [`DispatchPolicy::restore_state`](crate::DispatchPolicy::restore_state)),
//! the simulator's engine checkpoints and its process-fabric frames.
//! Integers are little-endian, floats travel as their IEEE-754 bit patterns
//! (NaN payloads and infinities round-trip), flags as one `0`/`1` byte, and
//! every sequence carries a length prefix. The prefix width belongs to the
//! layout: policy blobs use `u64` ([`StateWriter::new`]), frames and engine
//! checkpoints `u32` ([`StateWriter::with_u32_lengths`]).
//!
//! Decoding is strict and never panics. Truncation, a flag byte other than
//! 0 or 1, a length prefix claiming more elements than bytes remain (every
//! element takes at least one byte, so a lying prefix cannot trigger a huge
//! allocation) and unread trailing bytes are all a [`ByteError`].

use std::error::Error;
use std::fmt;

/// Why a byte sequence was refused by a [`StateReader`], or a value by a
/// [`StateWriter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByteError {
    /// The input ends before the field being read, or a length prefix
    /// claims more elements than bytes remain.
    Truncated {
        /// Bytes the reader needed.
        needed: usize,
        /// Bytes the input holds.
        got: usize,
    },
    /// A value the layout does not allow: a flag byte other than 0 or 1,
    /// a length too wide for its prefix, unread trailing bytes.
    Malformed(String),
}

impl fmt::Display for ByteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByteError::Truncated { needed, got } => {
                write!(f, "truncated input: needed {needed} bytes, got {got}")
            }
            ByteError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl Error for ByteError {}

impl From<ByteError> for String {
    fn from(error: ByteError) -> String {
        error.to_string()
    }
}

/// The width of a layout's length prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LenWidth {
    U32,
    U64,
}

/// Little-endian append-only writer.
#[derive(Debug)]
pub struct StateWriter {
    buf: Vec<u8>,
    width: LenWidth,
    /// The first length too wide for a `u32` prefix; reported by
    /// [`finish`](StateWriter::finish).
    overflow: Option<usize>,
}

impl Default for StateWriter {
    fn default() -> Self {
        StateWriter::new()
    }
}

impl StateWriter {
    /// Creates an empty writer with `u64` length prefixes, the layout of
    /// policy state blobs.
    pub fn new() -> Self {
        StateWriter {
            buf: Vec::new(),
            width: LenWidth::U64,
            overflow: None,
        }
    }

    /// Creates an empty writer with `u32` length prefixes, the layout of
    /// fabric frames and engine checkpoints.
    pub fn with_u32_lengths() -> Self {
        StateWriter {
            width: LenWidth::U32,
            ..StateWriter::new()
        }
    }

    /// Consumes the writer, returning the accumulated bytes. A `u64`-prefix
    /// writer cannot overflow; a `u32`-prefix writer should end with
    /// [`finish`](StateWriter::finish) instead.
    pub fn into_bytes(self) -> Vec<u8> {
        assert!(self.overflow.is_none(), "a length overflowed its prefix");
        self.buf
    }

    /// Consumes the writer, returning the accumulated bytes, or
    /// [`ByteError::Malformed`] if a length did not fit its prefix width.
    pub fn finish(self) -> Result<Vec<u8>, ByteError> {
        match self.overflow {
            Some(len) => Err(ByteError::Malformed(format!(
                "length {len} exceeds the u32 wire width"
            ))),
            None => Ok(self.buf),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian bit pattern (NaN-safe: the
    /// exact bits round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a flag as one `0`/`1` byte.
    pub fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length prefix, or any other `usize`, at the layout's
    /// prefix width (the wire form is architecture-independent).
    pub fn len(&mut self, v: usize) {
        match self.width {
            LenWidth::U64 => self.u64(v as u64),
            LenWidth::U32 => {
                let narrow = u32::try_from(v).unwrap_or_else(|_| {
                    self.overflow.get_or_insert(v);
                    u32::MAX
                });
                self.u32(narrow);
            }
        }
    }

    /// Appends raw bytes, without a length prefix.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed byte string.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.len(bytes.len());
        self.bytes(bytes);
    }

    /// Appends a length-prefixed sequence, each item written by `put`.
    pub fn seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.len(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64s(&mut self, values: &[u64]) {
        self.seq(values, |w, &v| w.u64(v));
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn u32s(&mut self, values: &[u32]) {
        self.seq(values, |w, &v| w.u32(v));
    }

    /// Appends a length-prefixed `f64` slice (bit patterns).
    pub fn f64s(&mut self, values: &[f64]) {
        self.seq(values, |w, &v| w.f64(v));
    }

    /// Appends a length-prefixed flag slice (one byte per flag).
    pub fn bools(&mut self, values: &[bool]) {
        self.seq(values, |w, &v| w.flag(v));
    }

    /// Appends an `Option<u64>` as a presence flag plus, when present, the
    /// value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        self.flag(v.is_some());
        if let Some(x) = v {
            self.u64(x);
        }
    }
}

/// Little-endian reader: the inverse of [`StateWriter`], built with the
/// same prefix width the bytes were written with.
///
/// Every accessor returns a [`ByteError`] instead of panicking —
/// [`ByteError::Truncated`] when the input ends first — because a blob
/// that fails to parse must surface as a classified error, never abort the
/// orchestrator.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    width: LenWidth,
}

impl<'a> StateReader<'a> {
    /// Creates a reader over `bytes` with `u64` length prefixes (policy
    /// state blobs).
    pub fn new(bytes: &'a [u8]) -> Self {
        StateReader {
            bytes,
            pos: 0,
            width: LenWidth::U64,
        }
    }

    /// Creates a reader over `bytes` with `u32` length prefixes (fabric
    /// frames and engine checkpoints).
    pub fn with_u32_lengths(bytes: &'a [u8]) -> Self {
        StateReader {
            width: LenWidth::U32,
            ..StateReader::new(bytes)
        }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless at least `n` bytes remain.
    fn need(&self, n: usize) -> Result<(), ByteError> {
        if n > self.remaining() {
            return Err(ByteError::Truncated {
                needed: self.pos.saturating_add(n),
                got: self.bytes.len(),
            });
        }
        Ok(())
    }

    /// Reads the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        self.need(n)?;
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ByteError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ByteError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ByteError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ByteError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, ByteError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, ByteError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a flag byte; a byte other than 0 or 1 is
    /// [`ByteError::Malformed`].
    pub fn flag(&mut self) -> Result<bool, ByteError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ByteError::Malformed(format!(
                "flag byte at offset {} must be 0 or 1, got {other}",
                self.pos - 1
            ))),
        }
    }

    /// Reads a `usize` written by [`StateWriter::len`] that is a size, not
    /// the length of what follows (a server count, a shard index); a value
    /// this platform's `usize` cannot hold is [`ByteError::Malformed`].
    pub fn usize(&mut self) -> Result<usize, ByteError> {
        match self.width {
            LenWidth::U32 => Ok(self.u32()? as usize),
            LenWidth::U64 => {
                let v = self.u64()?;
                usize::try_from(v).map_err(|_| {
                    ByteError::Malformed(format!("length {v} exceeds this platform's usize"))
                })
            }
        }
    }

    /// Reads a length prefix, refusing a count larger than the bytes left
    /// as [`ByteError::Truncated`]: every element takes at least one byte,
    /// so a lying prefix in a corrupt blob is caught here, before anything
    /// is allocated for it.
    pub fn length_prefix(&mut self) -> Result<usize, ByteError> {
        let n = self.usize()?;
        self.need(n)?;
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn blob(&mut self) -> Result<&'a [u8], ByteError> {
        let n = self.length_prefix()?;
        self.take(n)
    }

    /// Reads a length-prefixed sequence, each item read by `item`.
    pub fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ByteError>,
    ) -> Result<Vec<T>, ByteError> {
        let n = self.length_prefix()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, ByteError> {
        self.seq(Self::u64)
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn u32s(&mut self) -> Result<Vec<u32>, ByteError> {
        self.seq(Self::u32)
    }

    /// Reads a length-prefixed `f64` vector (bit patterns).
    pub fn f64s(&mut self) -> Result<Vec<f64>, ByteError> {
        self.seq(Self::f64)
    }

    /// Reads a length-prefixed flag vector.
    pub fn bools(&mut self) -> Result<Vec<bool>, ByteError> {
        self.seq(Self::flag)
    }

    /// Reads an `Option<u64>` written by [`StateWriter::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, ByteError> {
        self.flag()?.then(|| self.u64()).transpose()
    }

    /// Fails with [`ByteError::Malformed`] unless every byte has been
    /// consumed: trailing bytes mean the input was written by a different
    /// (newer or corrupt) layout.
    pub fn finish(self) -> Result<(), ByteError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(ByteError::Malformed(format!(
                "{extra} unread bytes after the last field"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = StateWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(f64::NAN);
        w.len(42);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.u64().unwrap(), 42);
        r.finish().unwrap();
    }

    #[test]
    fn vectors_round_trip_including_nan_bits() {
        let mut w = StateWriter::new();
        w.u64s(&[1, 2, u64::MAX]);
        w.u32s(&[9, 8]);
        w.f64s(&[0.5, f64::INFINITY, f64::from_bits(0x7FF8_0000_0000_0001)]);
        w.bools(&[true, false, true]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u64s().unwrap(), vec![1, 2, u64::MAX]);
        assert_eq!(r.u32s().unwrap(), vec![9, 8]);
        let floats = r.f64s().unwrap();
        assert_eq!(floats[0], 0.5);
        assert_eq!(floats[1], f64::INFINITY);
        assert_eq!(floats[2].to_bits(), 0x7FF8_0000_0000_0001);
        assert_eq!(r.bools().unwrap(), vec![true, false, true]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_lies_are_errors_not_panics() {
        let mut w = StateWriter::new();
        w.u64(5);
        let bytes = w.into_bytes();
        // Truncated primitive.
        assert!(StateReader::new(&bytes[..3]).u64().is_err());
        // Lying length prefix: declares more elements than bytes remain.
        let mut w = StateWriter::new();
        w.len(1 << 40);
        let bytes = w.into_bytes();
        assert!(StateReader::new(&bytes).u64s().is_err());
        // A size is not a length prefix: it may exceed the bytes left.
        let lie = u32::MAX.to_le_bytes();
        assert!(StateReader::with_u32_lengths(&lie).blob().is_err());
        assert!(StateReader::with_u32_lengths(&lie).usize().is_ok());
        // A length too wide for a u32 prefix is reported, not truncated.
        let mut w = StateWriter::with_u32_lengths();
        w.len(1 << 32);
        assert!(w.finish().is_err());
        // Bad bool byte.
        let mut w = StateWriter::new();
        w.len(1);
        w.u8(9);
        let bytes = w.into_bytes();
        assert!(StateReader::new(&bytes).bools().is_err());
        // Trailing bytes are refused.
        let mut w = StateWriter::new();
        w.u8(1);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let _ = r.u8();
        r.finish().unwrap();
        let r2 = StateReader::new(&bytes);
        assert!(r2.finish().is_err());
    }
}
