//! Pattern-library serialisation.
//!
//! Pattern libraries outlive a process: DFM teams hand generated
//! libraries to OPC/hotspot flows as files. Real flows use GDSII/OASIS;
//! this reproduction ships one format, `PPSQ v1`
//! ([`write_squish_library`] / [`read_squish_library`]): a compact
//! little-endian binary format over *squish* patterns (topology bits
//! packed 8-per-byte plus the Δx/Δy width vectors), the durable
//! representation the engine's artifact layer persists: squish → raster
//! → squish is lossless, so libraries resume with identical signatures
//! and statistics. Written and read through [`crate::codec`], so the
//! reader is total and canonical.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::squish::SquishPattern;
use crate::topology::TopologyMatrix;
use std::io::{self, Write};

/// Magic line opening every `PPSQ v1` stream.
const PPSQ_MAGIC: &[u8; 8] = b"PPSQ v1\n";

/// Upper bound on topology rows and columns per stored pattern (2¹²
/// per axis, 2²⁴ cells — far beyond any clip this system rasterises,
/// and small enough that `rows × cols` cannot overflow).
const PPSQ_MAX_DIM: usize = 1 << 12;

/// The fewest bytes a stored pattern takes: `rows`, `cols`, one packed
/// topology byte, one Δx and one Δy.
const PPSQ_MIN_PATTERN: usize = 4 + 4 + 1 + 4 + 4;

/// Writes squish patterns in the binary `PPSQ v1` format.
///
/// Layout per pattern: `rows: u32`, `cols: u32`, topology cells in
/// row-major order packed 8-per-byte (most significant bit first,
/// zero-padded), then `cols` Δx and `rows` Δy entries as `u32`. A
/// `count: u32` follows the magic.
///
/// # Errors
///
/// Propagates I/O errors from `writer` (a `&mut W` may be passed).
pub fn write_squish_library<W: Write>(patterns: &[SquishPattern], mut writer: W) -> io::Result<()> {
    let mut w = ByteWriter::new();
    w.bytes(PPSQ_MAGIC);
    w.u32(patterns.len() as u32);
    for p in patterns {
        let t = p.topology();
        w.u32(t.rows() as u32);
        w.u32(t.cols() as u32);
        for cells in t.as_cells().chunks(8) {
            w.u8(cells
                .iter()
                .enumerate()
                .fold(0, |byte, (i, &cell)| byte | u8::from(cell) << (7 - i)));
        }
        for &d in p.dx().iter().chain(p.dy()) {
            w.u32(d);
        }
    }
    writer.write_all(&w.into_vec())
}

/// Reads a library written by [`write_squish_library`]; only the exact
/// bytes the writer produces decode. Degenerate-but-valid patterns (a
/// single row or column) round-trip like any other.
///
/// # Errors
///
/// `UnexpectedEof` when the bytes end early; `InvalidData` on a bad
/// magic, zero or out-of-bound dimensions, set padding bits, zero Δ
/// entries or trailing bytes.
pub fn read_squish_library(bytes: &[u8]) -> io::Result<Vec<SquishPattern>> {
    Ok(decode_squish_library(bytes)?)
}

fn decode_squish_library(bytes: &[u8]) -> Result<Vec<SquishPattern>, CodecError> {
    let mut r = ByteReader::new(bytes);
    r.magic(PPSQ_MAGIC, "magic")?;
    let count = r.count(PPSQ_MIN_PATTERN, "pattern count")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let rows = r.u32("rows")? as usize;
        let cols = r.u32("cols")? as usize;
        if !(1..=PPSQ_MAX_DIM).contains(&rows) || !(1..=PPSQ_MAX_DIM).contains(&cols) {
            return Err(CodecError::corrupt(
                "topology",
                format!("{rows}×{cols} cells is outside 1..={PPSQ_MAX_DIM} per axis"),
            ));
        }
        let cells = rows * cols;
        let packed = r.bytes(cells.div_ceil(8), "topology")?;
        let padding = packed.len() * 8 - cells;
        if packed
            .last()
            .is_some_and(|&b| b & ((1u8 << padding) - 1) != 0)
        {
            return Err(CodecError::corrupt("topology", "non-zero padding bits"));
        }
        let cells = (0..cells)
            .map(|i| (packed[i / 8] >> (7 - i % 8)) & 1 == 1)
            .collect();
        let topology = TopologyMatrix::from_cells(rows, cols, cells);
        let mut deltas = |n, section| {
            (0..n)
                .map(|_| r.u32(section))
                .collect::<Result<Vec<_>, _>>()
        };
        let (dx, dy) = (deltas(cols, "dx")?, deltas(rows, "dy")?);
        if dx.iter().chain(&dy).any(|&d| d == 0) {
            return Err(CodecError::corrupt("deltas", "zero delta entry"));
        }
        out.push(SquishPattern::new(topology, dx, dy));
    }
    r.expect_end("squish library")?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::rect::Rect;
    use crate::signature::Signature;

    fn sample_lib() -> Vec<Layout> {
        let mut a = Layout::new(8, 6);
        a.fill_rect(Rect::new(1, 1, 3, 4));
        let mut b = Layout::new(5, 5);
        b.fill_rect(Rect::new(0, 0, 5, 2));
        vec![a, b]
    }

    #[test]
    fn squish_roundtrip_preserves_signatures() {
        let patterns: Vec<SquishPattern> = sample_lib()
            .iter()
            .map(SquishPattern::from_layout)
            .collect();
        let mut buf = Vec::new();
        write_squish_library(&patterns, &mut buf).unwrap();
        let back = read_squish_library(buf.as_slice()).unwrap();
        assert_eq!(back, patterns);
        for (a, b) in patterns.iter().zip(&back) {
            assert_eq!(Signature::of_squish(a), Signature::of_squish(b));
            assert_eq!(Signature::of_deltas(a), Signature::of_deltas(b));
            assert_eq!(a.to_layout(), b.to_layout());
        }
    }

    #[test]
    fn squish_roundtrip_handles_degenerate_patterns() {
        // 1-row, 1-col, 1x1 empty and 1x1 full: the smallest squish
        // forms a layout can canonicalise to.
        let one_row = SquishPattern::new(
            TopologyMatrix::from_cells(1, 3, vec![true, false, true]),
            vec![2, 5, 1],
            vec![7],
        );
        let one_col = SquishPattern::new(
            TopologyMatrix::from_cells(3, 1, vec![false, true, false]),
            vec![4],
            vec![1, 2, 3],
        );
        let empty = SquishPattern::new(TopologyMatrix::new(1, 1), vec![9], vec![9]);
        let mut full_t = TopologyMatrix::new(1, 1);
        full_t.set(0, 0, true);
        let full = SquishPattern::new(full_t, vec![3], vec![3]);
        let patterns = vec![one_row, one_col, empty, full];
        let mut buf = Vec::new();
        write_squish_library(&patterns, &mut buf).unwrap();
        assert_eq!(read_squish_library(buf.as_slice()).unwrap(), patterns);
    }

    #[test]
    fn squish_reader_rejects_corruption() {
        let patterns = vec![SquishPattern::from_layout(&sample_lib()[0])];
        let mut buf = Vec::new();
        write_squish_library(&patterns, &mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_squish_library(bad.as_slice()).is_err());
        // Truncation at every prefix must error, never panic.
        for cut in 0..buf.len() {
            assert!(read_squish_library(&buf[..cut]).is_err(), "cut {cut}");
        }
        // Absurd dimension fields must be rejected *before* any
        // dimension-sized allocation happens (a corrupt artifact must
        // surface InvalidData, not abort the process).
        let mut huge = Vec::new();
        huge.extend_from_slice(b"PPSQ v1\n");
        huge.extend_from_slice(&1u32.to_le_bytes()); // count
        huge.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        huge.extend_from_slice(&u32::MAX.to_le_bytes()); // cols
        assert!(read_squish_library(huge.as_slice()).is_err());
        // Empty library round-trips.
        let mut empty = Vec::new();
        write_squish_library(&[], &mut empty).unwrap();
        assert!(read_squish_library(empty.as_slice()).unwrap().is_empty());
    }

    /// Bytes the writer would never produce do not decode: a count
    /// that leaves patterns unread, bytes after the last pattern, and
    /// set padding bits in the packed topology.
    #[test]
    fn squish_reader_accepts_only_canonical_bytes() {
        let patterns: Vec<SquishPattern> = sample_lib()
            .iter()
            .map(SquishPattern::from_layout)
            .collect();
        let mut buf = Vec::new();
        write_squish_library(&patterns, &mut buf).unwrap();
        let mut fewer = buf.clone();
        fewer[8] -= 1;
        let err = read_squish_library(&fewer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let mut longer = buf.clone();
        longer.push(0);
        assert!(read_squish_library(&longer).is_err());
        // One 1×3 pattern packs its three cells into one byte whose
        // five low bits are padding.
        let one = SquishPattern::new(
            TopologyMatrix::from_cells(1, 3, vec![true, false, true]),
            vec![1, 1, 1],
            vec![1],
        );
        let mut buf = Vec::new();
        write_squish_library(std::slice::from_ref(&one), &mut buf).unwrap();
        assert_eq!(buf[20], 0b1010_0000, "topology byte where the layout says");
        assert_eq!(read_squish_library(&buf).unwrap(), vec![one]);
        buf[20] |= 1;
        assert!(read_squish_library(&buf).is_err());
    }
}
