//! Stable content signatures for pattern uniqueness and H2 classes.

use crate::codec::Fnv1a;
use crate::layout::Layout;
use crate::squish::SquishPattern;
use serde::{Deserialize, Serialize};

/// A 64-bit content hash identifying a pattern (or part of one).
///
/// Signatures use the shared FNV-1a ([`crate::codec::fnv1a`]) over a
/// canonical byte encoding, so they are stable across runs, platforms
/// and process restarts — unlike `std::collections` hashes, which are
/// randomised. Two signature flavours are used by the metrics crate:
///
/// * [`Signature::of_squish`] — full identity (topology + Δx + Δy); defines
///   "unique patterns" in Table I.
/// * [`Signature::of_deltas`] — geometry only (Δx + Δy); defines the
///   equivalence classes whose distribution is the H2 entropy.
///
/// # Example
///
/// ```
/// use pp_geometry::{Layout, Rect, Signature, SquishPattern};
///
/// let mut a = Layout::new(8, 8);
/// a.fill_rect(Rect::new(2, 0, 3, 8));
/// let sa = Signature::of_layout(&a);
/// assert_eq!(sa, Signature::of_layout(&a.clone()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Signature(pub u64);

impl Signature {
    /// Signature of a raw layout raster.
    pub fn of_layout(layout: &Layout) -> Signature {
        let mut h = Fnv1a::default();
        h.write(&layout.width().to_le_bytes());
        h.write(&layout.height().to_le_bytes());
        // Pack bits 8-per-byte for speed and canonical form.
        let mut byte = 0u8;
        let mut nbits = 0;
        for b in layout.iter() {
            byte = (byte << 1) | u8::from(b);
            nbits += 1;
            if nbits == 8 {
                h.write(&[byte]);
                byte = 0;
                nbits = 0;
            }
        }
        if nbits > 0 {
            h.write(&[byte]);
        }
        Signature(h.finish())
    }

    /// Full squish identity: topology cells plus both Δ vectors.
    pub fn of_squish(pattern: &SquishPattern) -> Signature {
        let mut h = Fnv1a::default();
        h.write(&(pattern.topology().rows() as u32).to_le_bytes());
        h.write(&(pattern.topology().cols() as u32).to_le_bytes());
        for &c in pattern.topology().as_cells() {
            h.write(&[u8::from(c)]);
        }
        for &d in pattern.dx() {
            h.write(&d.to_le_bytes());
        }
        h.write(b"|");
        for &d in pattern.dy() {
            h.write(&d.to_le_bytes());
        }
        Signature(h.finish())
    }

    /// Geometry-only signature over `(Δx, Δy)` — the H2 class key.
    pub fn of_deltas(pattern: &SquishPattern) -> Signature {
        let mut h = Fnv1a::default();
        for &d in pattern.dx() {
            h.write(&d.to_le_bytes());
        }
        h.write(b"|");
        for &d in pattern.dy() {
            h.write(&d.to_le_bytes());
        }
        Signature(h.finish())
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::fmt::LowerHex for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    fn wire(x: u32) -> Layout {
        let mut l = Layout::new(16, 16);
        l.fill_rect(Rect::new(x, 2, 3, 12));
        l
    }

    #[test]
    fn stable_across_clones() {
        let l = wire(2);
        assert_eq!(Signature::of_layout(&l), Signature::of_layout(&l.clone()));
    }

    #[test]
    fn distinguishes_layouts() {
        assert_ne!(
            Signature::of_layout(&wire(2)),
            Signature::of_layout(&wire(3))
        );
    }

    #[test]
    fn dimension_feeds_hash() {
        let a = Layout::new(4, 2);
        let b = Layout::new(2, 4);
        assert_ne!(Signature::of_layout(&a), Signature::of_layout(&b));
    }

    #[test]
    fn delta_signature_ignores_topology() {
        // Same scan-line structure, different fill: shift which track is
        // present while keeping identical line coordinates.
        let mut a = Layout::new(12, 8);
        a.fill_rect(Rect::new(2, 2, 2, 4));
        a.fill_rect(Rect::new(6, 2, 2, 4));
        let mut b = Layout::new(12, 8);
        b.fill_rect(Rect::new(2, 2, 2, 4));
        b.fill_rect(Rect::new(6, 2, 2, 4));
        // b keeps the same edges but removes the interior of one wire's
        // middle cell is impossible without changing lines; instead verify
        // equal layouts share both signatures.
        let sa = SquishPattern::from_layout(&a);
        let sb = SquishPattern::from_layout(&b);
        assert_eq!(Signature::of_deltas(&sa), Signature::of_deltas(&sb));
        assert_eq!(Signature::of_squish(&sa), Signature::of_squish(&sb));
    }

    #[test]
    fn squish_signature_separates_topology() {
        // Two patterns engineered to share Δ vectors but differ in fill.
        use crate::topology::TopologyMatrix;
        let mut t1 = TopologyMatrix::new(3, 3);
        t1.set(1, 1, true);
        let mut t2 = TopologyMatrix::new(3, 3);
        t2.set(0, 0, true);
        let s1 = SquishPattern::new(t1, vec![2, 3, 2], vec![1, 4, 1]);
        let s2 = SquishPattern::new(t2, vec![2, 3, 2], vec![1, 4, 1]);
        assert_eq!(Signature::of_deltas(&s1), Signature::of_deltas(&s2));
        assert_ne!(Signature::of_squish(&s1), Signature::of_squish(&s2));
    }

    #[test]
    fn delta_separator_prevents_concat_collisions() {
        use crate::topology::TopologyMatrix;
        // dx=[1,2], dy=[3] vs dx=[1], dy=[2,3]: byte-concatenation of the
        // Δ streams would collide without the separator.
        let s1 = SquishPattern::new(TopologyMatrix::new(1, 2), vec![1, 2], vec![3]);
        let s2 = SquishPattern::new(TopologyMatrix::new(2, 1), vec![1], vec![2, 3]);
        assert_ne!(Signature::of_deltas(&s1), Signature::of_deltas(&s2));
    }

    #[test]
    fn display_is_hex() {
        let s = Signature(0xdead_beef);
        assert_eq!(s.to_string(), "00000000deadbeef");
    }
}
