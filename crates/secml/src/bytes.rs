//! Minimal serde-free binary encoding for compiled models.
//!
//! The workspace builds offline with no registry access, so model
//! persistence is a hand-rolled little-endian format: fixed-width
//! integers, `f64::to_le_bytes` floats, and length-prefixed slices and
//! strings. [`ByteWriter`] appends to a buffer ([`ByteWriter::exact`]
//! sizes it once, by a measuring pass); [`ByteReader`]
//! walks a borrowed buffer with bounds checks, returning `Err(String)`
//! on truncated or malformed input instead of panicking.

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    /// `Some(n)` for a measuring writer: it writes nothing and counts
    /// the `n` bytes it would have written.
    measured: Option<usize>,
}

impl ByteWriter {
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Run `encode` twice — once measuring, once writing into a buffer
    /// allocated at exactly the measured size — and return the bytes.
    /// Slices measure by length alone, so the first pass costs one step
    /// per field, not per byte, and the buffer never regrows.
    pub fn exact(encode: impl Fn(&mut ByteWriter)) -> Vec<u8> {
        let mut sizer = ByteWriter {
            buf: Vec::new(),
            measured: Some(0),
        };
        encode(&mut sizer);
        let len = sizer.len();
        let mut w = ByteWriter {
            buf: Vec::with_capacity(len),
            measured: None,
        };
        encode(&mut w);
        debug_assert_eq!(w.buf.len(), len, "both passes encode the same bytes");
        w.buf
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written (or, measuring, counted) so far.
    pub fn len(&self) -> usize {
        self.measured.unwrap_or(self.buf.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_bytes(&v.to_le_bytes());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        match &mut self.measured {
            Some(n) => *n += v.len(),
            None => self.buf.extend_from_slice(v),
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.put_bytes(v.as_bytes());
    }

    /// Length-prefixed `f64` slice.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        if let Some(n) = &mut self.measured {
            *n += 8 * v.len();
            return;
        }
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, v: &[u32]) {
        self.put_u32_iter(v.len(), v.iter().copied());
    }

    /// Length-prefixed run of `len` `u32`s drawn from `v` — a slice the
    /// caller derives instead of storing.
    pub fn put_u32_iter(&mut self, len: usize, v: impl Iterator<Item = u32>) {
        self.put_usize(len);
        if let Some(n) = &mut self.measured {
            *n += 4 * len;
            return;
        }
        for x in v {
            self.put_u32(x);
        }
    }
}

/// Bounds-checked little-endian decoder over a borrowed buffer.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated input: need {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn get_usize(&mut self) -> Result<usize, String> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| format!("length {v} overflows usize"))
    }

    pub fn get_f64(&mut self) -> Result<f64, String> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length from the stream, sanity-checked against the bytes left so
    /// a corrupt header cannot trigger an enormous allocation.
    fn get_len(&mut self, elem_size: usize) -> Result<usize, String> {
        let n = self.get_usize()?;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(format!(
                "corrupt length {n} at offset {}: only {} bytes left",
                self.pos,
                self.remaining()
            ));
        }
        Ok(n)
    }

    pub fn get_str(&mut self) -> Result<String, String> {
        let n = self.get_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    pub fn get_f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    pub fn get_u32s(&mut self) -> Result<Vec<u32>, String> {
        let n = self.get_len(4)?;
        (0..n).map(|_| self.get_u32()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_slices() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_str("naïve");
        w.put_f64s(&[1.5, f64::NAN, f64::INFINITY]);
        w.put_u32s(&[0, u32::MAX]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str().unwrap(), "naïve");
        let fs = r.get_f64s().unwrap();
        assert_eq!(fs[0], 1.5);
        assert!(fs[1].is_nan());
        assert_eq!(fs[2], f64::INFINITY);
        assert_eq!(r.get_u32s().unwrap(), vec![0, u32::MAX]);
        assert!(r.is_done());
    }

    #[test]
    fn exact_writer_measures_then_fills_without_slack() {
        let encode = |w: &mut ByteWriter| {
            w.put_u8(1);
            w.put_str("abc");
            w.put_f64s(&[0.5; 9]);
            w.put_u32_iter(3, [4, 5, 6].into_iter());
            w.put_u32s(&[7; 5]);
        };
        let mut grown = ByteWriter::new();
        encode(&mut grown);
        let bytes = ByteWriter::exact(encode);
        assert_eq!(bytes, grown.into_bytes());
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = ByteWriter::new();
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(r.get_f64().is_err());
    }

    #[test]
    fn corrupt_length_errors_without_allocating() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64s().is_err());
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str().is_err());
    }
}
