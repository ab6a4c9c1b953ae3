//! The one binary codec under every stored format.
//!
//! Seven little-endian binary formats outlive the process that wrote
//! them:
//!
//! | magic | written by | checksum |
//! |---|---|---|
//! | `PPJS` | `JobSpec::encode` (pp-core) | — |
//! | `PPEG` / `PPSS` | `Engine::save` / `Session::save` manifests (pp-core) | — |
//! | `PPTS` | the trainer's resume state (pp-core) | FNV-1a trailer |
//! | `PPCK` | `save_checkpoint` (pp-diffusion) | FNV-1a trailer |
//! | `PPDM` | `DiffusionModel::save_weights` (pp-diffusion) | — |
//! | `PPSQ v1\n` | [`crate::write_squish_library`] | — |
//!
//! Each format owns its magic (a byte string of any length), its
//! version field and its semantic limits. This module owns the rest:
//!
//! * [`ByteWriter`] appends fields to one buffer, which a format hands
//!   to its `io::Write` in one call; checksummed formats finish with
//!   [`ByteWriter::seal`].
//! * [`ByteReader`] decodes a byte slice and is total: every read
//!   checks the bytes remaining; every length or count read from the
//!   input ([`ByteReader::count`], [`ByteReader::str`],
//!   [`ByteReader::f32s`]) is checked against the bytes remaining
//!   before it sizes an allocation; flags accept exactly 0 or 1;
//!   [`ByteReader::verify_trailer`] checks the checksum before the
//!   fields after the header are read; [`ByteReader::expect_end`]
//!   rejects trailing bytes. With these rules a format accepts only
//!   the bytes its writer produces.
//! * [`CodecError`] is the one error: it names the section and tells
//!   truncation from bad content. Each format converts it once, onto
//!   the public error it returns.
//! * [`fnv1a`] is the one 64-bit FNV-1a, shared by the checksums and
//!   (fed incrementally) [`crate::Signature`].

use std::fmt;
use std::io;
use std::ops::RangeInclusive;

/// Why a [`ByteReader`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside `section`, or before all that a length or
    /// count in it declares.
    Truncated {
        /// The field being read.
        section: String,
        /// Where it starts and how many bytes it needs and had.
        detail: String,
    },
    /// `section` holds an invalid value.
    Corrupt {
        /// The field that failed validation.
        section: String,
        /// What was wrong with it.
        detail: String,
    },
}

impl CodecError {
    /// A [`CodecError::Corrupt`]; formats raise their own semantic
    /// checks (tags, limits, cross-field rules) through it too.
    pub fn corrupt(section: impl Into<String>, detail: impl Into<String>) -> CodecError {
        CodecError::Corrupt {
            section: section.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { section, detail } => {
                write!(f, "truncated at {section} ({detail})")
            }
            CodecError::Corrupt { section, detail } => write!(f, "{section}: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Truncation becomes `UnexpectedEof`, bad content `InvalidData`.
impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> io::Error {
        let kind = match e {
            CodecError::Truncated { .. } => io::ErrorKind::UnexpectedEof,
            CodecError::Corrupt { .. } => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    }
}

/// The 64-bit FNV-1a hash, fed incrementally. Stable across runs and
/// platforms; it detects accidental corruption but is not a MAC, so a
/// blob sealed by hand with a valid trailer still decodes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Little-endian encoder into one growing buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Raw bytes, e.g. a magic.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A flag: one byte, 0 or 1.
    pub fn flag(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f32`, bit for bit.
    pub fn f32(&mut self, v: f32) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64`, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An optional `u64`: a flag, then the value when present.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        self.flag(v.is_some());
        if let Some(v) = v {
            self.u64(v);
        }
    }

    /// A string: its byte length as a `u32`, then its bytes. The format
    /// checks its own length limit first.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// An `f32` vector: its length as a `u32`, then the values.
    pub fn f32s(&mut self, v: &[f32]) {
        self.u32(v.len() as u32);
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.bytes(&x.to_le_bytes());
        }
    }

    /// The finished buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The finished buffer, then the FNV-1a of all of it as a `u64`
    /// trailer.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.u64(sum);
        self.buf
    }
}

/// Bounded little-endian decoder over a byte slice.
///
/// Each read consumes exactly its field or returns a [`CodecError`]
/// naming `section`, the caller's name for the field: truncation when
/// the bytes run out, bad content otherwise.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet read (a verified trailer no longer counts).
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, need: usize, section: &str) -> CodecError {
        CodecError::Truncated {
            section: section.to_string(),
            detail: format!(
                "offset {}, need {need} bytes, have {}",
                self.pos,
                self.remaining()
            ),
        }
    }

    /// The next `n` bytes.
    pub(crate) fn bytes(&mut self, n: usize, section: &str) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(self.truncated(n, section));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn array<const N: usize>(&mut self, section: &str) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N, section)?);
        Ok(out)
    }

    /// Checks that the next bytes are `magic`.
    pub fn magic(&mut self, magic: &[u8], section: &str) -> Result<(), CodecError> {
        let got = self.bytes(magic.len(), section)?;
        if got != magic {
            let text = String::from_utf8_lossy;
            let detail = format!("expected {:?}, got {:?}", text(magic), text(got));
            return Err(CodecError::corrupt(section, detail));
        }
        Ok(())
    }

    /// A `u32` format version, which must lie in `known`.
    pub fn version(
        &mut self,
        known: RangeInclusive<u32>,
        section: &str,
    ) -> Result<u32, CodecError> {
        match self.u32(section)? {
            v if known.contains(&v) => Ok(v),
            v => Err(CodecError::corrupt(
                section,
                format!("unsupported version {v} (this build reads {known:?})"),
            )),
        }
    }

    /// One byte.
    pub fn u8(&mut self, section: &str) -> Result<u8, CodecError> {
        Ok(self.array::<1>(section)?[0])
    }

    /// A flag byte: 0 or 1, anything else is bad content.
    pub fn flag(&mut self, section: &str) -> Result<bool, CodecError> {
        match self.u8(section)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::corrupt(
                section,
                format!("flag byte {b} is not 0 or 1"),
            )),
        }
    }

    /// A `u32`.
    pub fn u32(&mut self, section: &str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(section)?))
    }

    /// A `u64`.
    pub fn u64(&mut self, section: &str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(section)?))
    }

    /// An `f32`, bit for bit.
    pub fn f32(&mut self, section: &str) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.array(section)?))
    }

    /// An `f64`, bit for bit.
    pub fn f64(&mut self, section: &str) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.array(section)?))
    }

    /// What [`ByteWriter::opt_u64`] wrote.
    pub fn opt_u64(&mut self, section: &str) -> Result<Option<u64>, CodecError> {
        Ok(if self.flag(section)? {
            Some(self.u64(section)?)
        } else {
            None
        })
    }

    /// A `u32` count of elements that take at least `elem_bytes` each,
    /// so the caller may size an allocation by it: a count the bytes
    /// remaining cannot hold is a truncation.
    pub fn count(&mut self, elem_bytes: usize, section: &str) -> Result<usize, CodecError> {
        let n = self.u32(section)? as usize;
        match n.checked_mul(elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(self.truncated(n.saturating_mul(elem_bytes), section)),
        }
    }

    /// What [`ByteWriter::str`] wrote, at most `max` bytes long; a
    /// longer length is bad content naming `"<section> length"`.
    pub fn str(&mut self, max: usize, section: &str) -> Result<String, CodecError> {
        let len = self.u32(section)? as usize;
        if len > max {
            let detail = format!("{len} exceeds limit {max}");
            return Err(CodecError::corrupt(format!("{section} length"), detail));
        }
        let raw = self.bytes(len, section)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::corrupt(section, "not UTF-8"))
    }

    /// What [`ByteWriter::f32s`] wrote; nothing is allocated unless the
    /// bytes hold every value the length claims.
    pub fn f32s(&mut self, section: &str) -> Result<Vec<f32>, CodecError> {
        let n = self.count(4, section)?;
        let raw = self.bytes(n * 4, section)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Checks the [`ByteWriter::seal`] trailer against the FNV-1a of
    /// every byte before it, read or not, and drops it from the input.
    /// Checksummed formats call it right after the magic and version.
    pub fn verify_trailer(&mut self, section: &str) -> Result<(), CodecError> {
        if self.remaining() < 8 {
            return Err(self.truncated(8, section));
        }
        let (body, tail) = self.buf.split_at(self.buf.len() - 8);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(tail);
        let (stored, computed) = (u64::from_le_bytes(stored), fnv1a(body));
        if stored != computed {
            let detail = format!("stored {stored:016x}, computed {computed:016x}");
            return Err(CodecError::corrupt(section, detail));
        }
        self.buf = body;
        Ok(())
    }

    /// Every byte not yet read, for a nested format that reads to the
    /// end (a PPCK's PPDM payload).
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Ends the decode: bytes left after `section` are bad content.
    pub fn expect_end(self, section: &str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::corrupt(section, format!("{n} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truncated(e: &CodecError) -> bool {
        matches!(e, CodecError::Truncated { .. })
    }

    #[test]
    fn byte_cursor_roundtrip_and_truncation() {
        let mut w = ByteWriter::new();
        w.bytes(b"HDR");
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(1 << 40);
        w.f32(1.5);
        w.f64(-2.25);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.bytes(3, "hdr").unwrap(), b"HDR");
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), 1 << 40);
        assert_eq!(r.f32("d").unwrap(), 1.5);
        assert_eq!(r.f64("e").unwrap(), -2.25);
        r.expect_end("manifest").unwrap();
        let mut r = ByteReader::new(&buf[..5]);
        let _ = r.bytes(3, "hdr").unwrap();
        let _ = r.u8("a").unwrap();
        let err = r.u32("b").unwrap_err();
        assert!(truncated(&err));
        assert!(err.to_string().contains("truncated at b"), "got: {err}");
    }

    #[test]
    fn fields_roundtrip_and_reject_bad_content() {
        let mut w = ByteWriter::new();
        w.flag(true);
        w.opt_u64(None);
        w.opt_u64(Some(9));
        w.str("héllo");
        w.f32s(&[1.0, -0.5]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(r.flag("f").unwrap());
        assert_eq!(r.opt_u64("a").unwrap(), None);
        assert_eq!(r.opt_u64("b").unwrap(), Some(9));
        assert_eq!(r.str(16, "s").unwrap(), "héllo");
        assert_eq!(r.f32s("v").unwrap(), vec![1.0, -0.5]);
        r.expect_end("fields").unwrap();

        let err = ByteReader::new(&[2]).flag("f").unwrap_err();
        assert!(
            matches!(&err, CodecError::Corrupt { section, .. } if section == "f"),
            "{err}"
        );
        let err = ByteReader::new(&buf[1..])
            .magic(b"\x01", "magic")
            .unwrap_err();
        assert!(!truncated(&err), "{err}");
        // Over-limit strings and non-UTF-8 bytes are bad content.
        let mut w = ByteWriter::new();
        w.str("toolong");
        let err = ByteReader::new(&w.into_vec()).str(3, "key").unwrap_err();
        assert!(
            err.to_string().starts_with("key length: 7 exceeds"),
            "{err}"
        );
        let mut w = ByteWriter::new();
        w.u32(1);
        w.u8(0xff);
        assert!(!truncated(
            &ByteReader::new(&w.into_vec()).str(3, "key").unwrap_err()
        ));
        // Trailing bytes are rejected.
        let err = ByteReader::new(&5u32.to_le_bytes())
            .version(1..=4, "version")
            .unwrap_err();
        assert!(err.to_string().contains("unsupported version 5"), "{err}");
        let err = ByteReader::new(&[0, 0]).expect_end("blob").unwrap_err();
        assert!(err.to_string().contains("2 trailing bytes"), "{err}");
    }

    #[test]
    fn lengths_are_bounded_by_the_bytes_remaining() {
        // A count of u32::MAX with nothing behind it is a truncation,
        // reported before anything is allocated.
        let blob = u32::MAX.to_le_bytes();
        let err = ByteReader::new(&blob).count(1, "n").unwrap_err();
        assert!(truncated(&err), "{err}");
        let err = ByteReader::new(&blob).f32s("v").unwrap_err();
        assert!(truncated(&err), "{err}");
        let mut w = ByteWriter::new();
        w.u32(2);
        w.bytes(&[0; 8]);
        assert_eq!(ByteReader::new(&w.into_vec()).count(4, "n").unwrap(), 2);
    }

    #[test]
    fn trailer_is_verified_before_the_body_is_read() {
        let mut w = ByteWriter::new();
        w.bytes(b"SEAL");
        w.u32(5);
        let sealed = w.seal();
        let mut r = ByteReader::new(&sealed);
        r.magic(b"SEAL", "magic").unwrap();
        r.verify_trailer("checksum").unwrap();
        assert_eq!(r.remaining(), 4, "the trailer is dropped");
        assert_eq!(r.u32("v").unwrap(), 5);
        r.expect_end("sealed").unwrap();
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut r = ByteReader::new(&bad);
            let checked = r
                .bytes(4, "magic")
                .and_then(|_| r.verify_trailer("checksum"));
            assert!(checked.is_err(), "bit {bit} passed the checksum");
        }
        let err = ByteReader::new(&sealed[..7])
            .verify_trailer("checksum")
            .unwrap_err();
        assert!(truncated(&err), "{err}");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
