//! Little-endian binary codec with length-prefixed containers.
//!
//! Every multi-byte integer is fixed-width little-endian; every container
//! is prefixed by a `u64` element count. There is no schema negotiation —
//! readers and writers agree on field order per payload kind, and the
//! envelope's version tag is bumped whenever that order changes.

use crate::CkptError;
use lbist_tpg::Gf2Vec;

/// Append-only byte sink for checkpoint payloads.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder and returns the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Writes a GF(2) vector: bit length, then its packed `u64` words.
    pub fn put_gf2(&mut self, v: &Gf2Vec) {
        self.put_usize(v.len());
        let words = v.len().div_ceil(64);
        for w in 0..words {
            let mut word = 0u64;
            for b in 0..64 {
                let i = w * 64 + b;
                if i < v.len() && v.get(i) {
                    word |= 1u64 << b;
                }
            }
            self.put_u64(word);
        }
    }

    /// Writes a length-prefixed list of GF(2) vectors.
    pub fn put_gf2s(&mut self, vs: &[Gf2Vec]) {
        self.put_usize(vs.len());
        for v in vs {
            self.put_gf2(v);
        }
    }
}

/// Bounds-checked cursor over a checkpoint payload.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

/// Caps decoded container lengths so a corrupted length prefix cannot
/// provoke a huge allocation before the read fails.
const MAX_ELEMS: u64 = 1 << 32;

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Malformed("trailing bytes after payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn take_len(&mut self, what: &'static str) -> Result<usize, CkptError> {
        let n = self.take_u64()?;
        if n > MAX_ELEMS {
            return Err(CkptError::Malformed(what));
        }
        Ok(n as usize)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0 or 1 is malformed.
    pub fn take_bool(&mut self) -> Result<bool, CkptError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Malformed("bool out of range")),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn take_usize(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.take_u64()?).map_err(|_| CkptError::Malformed("usize overflow"))
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, CkptError> {
        let n = self.take_len("byte string length")?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn take_u32s(&mut self) -> Result<Vec<u32>, CkptError> {
        let n = self.take_len("u32 list length")?;
        (0..n).map(|_| self.take_u32()).collect()
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn take_u64s(&mut self) -> Result<Vec<u64>, CkptError> {
        let n = self.take_len("u64 list length")?;
        (0..n).map(|_| self.take_u64()).collect()
    }

    /// Reads a GF(2) vector written by [`Encoder::put_gf2`].
    pub fn take_gf2(&mut self) -> Result<Gf2Vec, CkptError> {
        let bits = self.take_len("gf2 vector length")?;
        let words: Vec<u64> =
            (0..bits.div_ceil(64)).map(|_| self.take_u64()).collect::<Result<_, _>>()?;
        // Reject set bits beyond the vector length: they could silently
        // change `count_ones`-style invariants after a round trip.
        if bits % 64 != 0 {
            if let Some(&last) = words.last() {
                if last >> (bits % 64) != 0 {
                    return Err(CkptError::Malformed("gf2 vector has bits past its length"));
                }
            }
        }
        Ok(Gf2Vec::from_fn(bits, |i| (words[i / 64] >> (i % 64)) & 1 == 1))
    }

    /// Reads a length-prefixed list of GF(2) vectors.
    pub fn take_gf2s(&mut self) -> Result<Vec<Gf2Vec>, CkptError> {
        let n = self.take_len("gf2 list length")?;
        (0..n).map(|_| self.take_gf2()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_bool(true);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(0x0123_4567_89AB_CDEF);
        e.put_usize(42);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 0xAB);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_u16().unwrap(), 0xBEEF);
        assert_eq!(d.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(d.take_usize().unwrap(), 42);
        d.expect_end().unwrap();
    }

    #[test]
    fn container_round_trip() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello");
        e.put_u32s(&[1, 2, 3]);
        e.put_u64s(&[u64::MAX, 0]);
        let v = Gf2Vec::from_fn(70, |i| i % 3 == 0);
        e.put_gf2(&v);
        e.put_gf2s(&[Gf2Vec::zeros(0), v.clone()]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_bytes().unwrap(), b"hello");
        assert_eq!(d.take_u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.take_u64s().unwrap(), vec![u64::MAX, 0]);
        assert_eq!(d.take_gf2().unwrap(), v);
        assert_eq!(d.take_gf2s().unwrap(), vec![Gf2Vec::zeros(0), v]);
        d.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.put_u64s(&[7, 8, 9]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(d.take_u64s(), Err(CkptError::Truncated)));
    }

    #[test]
    fn gf2_stray_high_bits_rejected() {
        let mut e = Encoder::new();
        e.put_usize(3); // 3-bit vector ...
        e.put_u64(0b1111); // ... with bit 3 set past the end
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.take_gf2(), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn bool_out_of_range_rejected() {
        let mut d = Decoder::new(&[2]);
        assert!(matches!(d.take_bool(), Err(CkptError::Malformed(_))));
    }
}
