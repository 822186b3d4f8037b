//! Hand-rolled wire primitives.
//!
//! The build environment vendors no serialization crate, so every durable
//! byte in this workspace goes through these helpers: little-endian
//! integers, `f64` via its IEEE-754 bit pattern (bit-exact round-trip, the
//! property the digest oracles depend on), length-prefixed UTF-8 strings,
//! and CRC32 (IEEE polynomial) for frame validation. Three combinators
//! build every composite: [`put_seq`] (a `u64` count, then the items),
//! [`put_opt`] (a `bool` flag, then the value if present) and [`put_tag`]
//! (a fieldless enum as its `u8` index in a table of its variants), each
//! with its `Cursor::take_*` twin.

use crate::error::StorageError;

// --- encoding -------------------------------------------------------------

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// `f64` as its raw bit pattern: round-trips every value (including NaN
/// payloads and signed zeros) bit-exactly.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, v as u8);
}

pub fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_usize(buf, v.len());
    buf.extend_from_slice(v.as_bytes());
}

/// A length-prefixed list: the item count, then each item via `put`.
pub fn put_seq<I>(buf: &mut Vec<u8>, items: I, mut put: impl FnMut(&mut Vec<u8>, I::Item))
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
{
    let items = items.into_iter();
    put_usize(buf, items.len());
    for item in items {
        put(buf, item);
    }
}

/// An optional value: a presence flag, then the value via `put`.
pub fn put_opt<T>(buf: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    put_bool(buf, v.is_some());
    if let Some(v) = v {
        put(buf, v);
    }
}

/// A fieldless enum value as its `u8` index in `table`, which lists every
/// variant once.
pub fn put_tag<T: PartialEq>(buf: &mut Vec<u8>, table: &[T], v: T) {
    let tag = table.iter().position(|t| *t == v);
    put_u8(buf, tag.expect("the tag table lists every variant") as u8);
}

// --- decoding -------------------------------------------------------------

/// A bounds-checked reader over a payload slice.
///
/// Every `take_*` returns a typed [`StorageError::Decode`] carrying the
/// caller-supplied value name and the byte offset of the failure, so a
/// corrupt payload reports *what* stopped parsing, not just that bytes ran
/// out.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every payload byte was consumed — catches codecs that
    /// silently drift out of sync with their encoder.
    pub fn finish(self, what: &'static str) -> Result<(), StorageError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StorageError::Decode {
                what,
                offset: self.pos,
            })
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(StorageError::Decode {
                what,
                offset: self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, StorageError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, StorageError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, StorageError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    pub fn take_usize(&mut self, what: &'static str) -> Result<usize, StorageError> {
        let v = self.take_u64(what)?;
        usize::try_from(v).map_err(|_| StorageError::Decode {
            what,
            offset: self.pos,
        })
    }

    /// A `usize` that will be used as a collection length: additionally
    /// bounded by the bytes remaining so a corrupt length cannot trigger
    /// an OOM-sized allocation before the decode fails.
    fn take_len(&mut self, what: &'static str) -> Result<usize, StorageError> {
        let v = self.take_usize(what)?;
        if v > self.remaining() {
            return Err(StorageError::Decode {
                what,
                offset: self.pos,
            });
        }
        Ok(v)
    }

    pub fn take_f64(&mut self, what: &'static str) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    pub fn take_bool(&mut self, what: &'static str) -> Result<bool, StorageError> {
        match self.take_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StorageError::Decode {
                what,
                offset: self.pos - 1,
            }),
        }
    }

    pub fn take_str(&mut self, what: &'static str) -> Result<String, StorageError> {
        let len = self.take_len(what)?;
        let start = self.pos;
        let s = self.take(len, what)?;
        String::from_utf8(s.to_vec()).map_err(|_| StorageError::Decode {
            what,
            offset: start,
        })
    }

    /// A list written by [`put_seq`]; `what` names its count. The first
    /// reservation is capped by the bytes left, so a forged count costs
    /// memory in proportion to the payload, not to the count times the
    /// item size.
    pub fn take_seq<T>(
        &mut self,
        what: &'static str,
        mut take: impl FnMut(&mut Self) -> Result<T, StorageError>,
    ) -> Result<Vec<T>, StorageError> {
        let n = self.take_len(what)?;
        let cap = n.min(self.remaining() / std::mem::size_of::<T>().max(1));
        let mut items = Vec::with_capacity(cap);
        for _ in 0..n {
            items.push(take(self)?);
        }
        Ok(items)
    }

    /// An optional value written by [`put_opt`]; `what` names its flag.
    pub fn take_opt<T>(
        &mut self,
        what: &'static str,
        take: impl FnOnce(&mut Self) -> Result<T, StorageError>,
    ) -> Result<Option<T>, StorageError> {
        if self.take_bool(what)? {
            take(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A fieldless enum written by [`put_tag`] with the same `table`.
    pub fn take_tag<T: Copy>(
        &mut self,
        what: &'static str,
        table: &[T],
    ) -> Result<T, StorageError> {
        let at = self.pos;
        let tag = self.take_u8(what)?;
        table
            .get(tag as usize)
            .copied()
            .ok_or(StorageError::Decode { what, offset: at })
    }
}

// --- crc32 ----------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Incremental CRC32 (IEEE 802.3 polynomial).
#[derive(Debug, Clone)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, data: &[u8]) {
        let mut c = self.0;
        for &b in data {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    pub(crate) fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), crc32(b"123456789"));
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_bool(&mut buf, true);
        put_str(&mut buf, "hällo");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.take_u8("t").unwrap(), 7);
        assert_eq!(c.take_u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.take_u64("t").unwrap(), u64::MAX - 3);
        let z = c.take_f64("t").unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
        assert!(c.take_f64("t").unwrap().is_nan());
        assert!(c.take_bool("t").unwrap());
        assert_eq!(c.take_str("t").unwrap(), "hällo");
        c.finish("t").unwrap();
    }

    #[test]
    fn combinators_round_trip_and_name_their_field() {
        const TAGS: [char; 3] = ['a', 'b', 'c'];
        let mut buf = Vec::new();
        put_seq(&mut buf, [3u32, 4], put_u32);
        put_opt(&mut buf, Some("x"), put_str);
        put_opt(&mut buf, None::<&str>, put_str);
        put_tag(&mut buf, &TAGS, 'c');
        put_u8(&mut buf, 3);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.take_seq("n", |c| c.take_u32("v")).unwrap(), [3, 4]);
        let s = c.take_opt("o", |c| c.take_str("s")).unwrap();
        assert_eq!(s.as_deref(), Some("x"));
        assert_eq!(c.take_opt("o", |c| c.take_str("s")).unwrap(), None);
        assert_eq!(c.take_tag("t", &TAGS).unwrap(), 'c');
        let at = c.pos();
        let err = c.take_tag("t", &TAGS).unwrap_err();
        assert_eq!(
            err,
            StorageError::Decode {
                what: "t",
                offset: at
            }
        );
        c.finish("t").unwrap();
    }

    #[test]
    fn short_buffer_reports_offset() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        let mut c = Cursor::new(&buf);
        c.take_u32("a").unwrap();
        let err = c.take_u64("b").unwrap_err();
        assert_eq!(
            err,
            StorageError::Decode {
                what: "b",
                offset: 4
            }
        );
    }

    #[test]
    fn oversized_len_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_usize(&mut buf, usize::MAX / 2);
        let mut c = Cursor::new(&buf);
        assert!(c.take_len("huge").is_err());
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let buf = [0u8; 3];
        let mut c = Cursor::new(&buf);
        c.take_u8("t").unwrap();
        assert!(c.finish("t").is_err());
    }
}
