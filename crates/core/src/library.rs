//! The growing pattern library.

use pp_geometry::{read_squish_library, write_squish_library, Layout, Signature, SquishPattern};
use pp_metrics::{entropy_base2, LibraryStats};
use std::collections::{HashMap, HashSet};
use std::io;

/// A deduplicated collection of DR-clean layout patterns.
///
/// Identity is the full squish signature (topology + Δx + Δy), matching
/// the paper's "unique patterns" column.
///
/// # Example
///
/// ```
/// use patternpaint_core::PatternLibrary;
/// use pp_pdk::SynthNode;
///
/// let mut lib = PatternLibrary::new();
/// for p in SynthNode::default().starter_patterns() {
///     assert!(lib.insert(p));
/// }
/// assert_eq!(lib.len(), 20);
/// let stats = lib.stats();
/// assert_eq!(stats.unique, 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatternLibrary {
    patterns: Vec<Layout>,
    signatures: HashSet<Signature>,
    /// Histogram of complexity tuples `(Cx, Cy)` over stored patterns —
    /// the H1 distribution, maintained incrementally on insert so
    /// [`PatternLibrary::stats`] never re-squishes the library.
    complexity_hist: HashMap<(u32, u32), usize>,
    /// Histogram of geometry classes (delta signatures) — the H2
    /// distribution, maintained incrementally like the above.
    geometry_hist: HashMap<Signature, usize>,
}

impl PatternLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds a library from existing patterns (duplicates dropped).
    pub fn from_patterns<I: IntoIterator<Item = Layout>>(patterns: I) -> Self {
        let mut lib = Self::new();
        for p in patterns {
            lib.insert(p);
        }
        lib
    }

    /// Inserts a pattern; returns `true` when it was new.
    pub fn insert(&mut self, pattern: Layout) -> bool {
        let squish = SquishPattern::from_layout(&pattern);
        let sig = Signature::of_squish(&squish);
        self.insert_squished(sig, &squish, move || pattern)
    }

    /// Inserts a pattern whose squish form and full signature the caller
    /// already computed (the round tail computes both for DRC and
    /// deduplication, so re-deriving them here was pure waste).
    ///
    /// `layout` is only invoked when the pattern is new — duplicate
    /// admissions never rasterise. Returns `true` when it was new.
    ///
    /// The caller must uphold `signature == Signature::of_squish(squish)`
    /// and `squish == SquishPattern::from_layout(&layout())`; the library
    /// trusts them, and a mismatch corrupts deduplication and the
    /// incremental H1/H2 statistics.
    pub fn insert_squished(
        &mut self,
        signature: Signature,
        squish: &SquishPattern,
        layout: impl FnOnce() -> Layout,
    ) -> bool {
        if self.signatures.insert(signature) {
            *self.complexity_hist.entry(squish.complexity()).or_insert(0) += 1;
            *self
                .geometry_hist
                .entry(Signature::of_deltas(squish))
                .or_insert(0) += 1;
            self.patterns.push(layout());
            true
        } else {
            false
        }
    }

    /// Whether a pattern with this full squish signature is present.
    pub fn contains_signature(&self, signature: Signature) -> bool {
        self.signatures.contains(&signature)
    }

    /// Whether an identical pattern is already present.
    pub fn contains(&self, pattern: &Layout) -> bool {
        let sig = Signature::of_squish(&SquishPattern::from_layout(pattern));
        self.signatures.contains(&sig)
    }

    /// Number of unique patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The stored patterns, in insertion order.
    pub fn patterns(&self) -> &[Layout] {
        &self.patterns
    }

    /// Serialises the library in the durable squish form (`PPSQ v1`),
    /// the representation [`crate::Session::save`] persists. Squish →
    /// raster → squish is lossless, so a write/read cycle preserves
    /// pattern contents, insertion order, signatures and statistics
    /// exactly.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_squish<W: io::Write>(&self, writer: W) -> io::Result<()> {
        let squishes: Vec<SquishPattern> = self
            .patterns
            .iter()
            .map(SquishPattern::from_layout)
            .collect();
        write_squish_library(&squishes, writer)
    }

    /// Reads a library of `clip × clip` patterns written by
    /// [`PatternLibrary::write_squish`].
    ///
    /// # Errors
    ///
    /// As [`read_squish_library`], plus `InvalidData` when a stored
    /// pattern's Δx or Δy entries do not sum to `clip` (checked before
    /// the pattern is rasterised, so a corrupt width costs no raster),
    /// when a pattern is not in the canonical squish form
    /// [`PatternLibrary::write_squish`] writes, or when the stored
    /// library contains duplicate patterns (a library is deduplicated
    /// by construction, so duplicates mean the artifact was tampered
    /// with).
    pub fn read_squish(bytes: &[u8], clip: u32) -> io::Result<PatternLibrary> {
        let invalid = |msg| io::Error::new(io::ErrorKind::InvalidData, msg);
        let side = |deltas: &[u32]| deltas.iter().map(|&d| u64::from(d)).sum::<u64>();
        let squishes = read_squish_library(bytes)?;
        let mut library = PatternLibrary::new();
        for s in &squishes {
            if side(s.dx()) != u64::from(clip) || side(s.dy()) != u64::from(clip) {
                return Err(invalid("stored pattern is not clip-sized"));
            }
            if s.canonicalize() != *s {
                return Err(invalid("stored pattern is not in canonical squish form"));
            }
            if !library.insert(s.to_layout()) {
                return Err(invalid("stored library contains duplicate patterns"));
            }
        }
        Ok(library)
    }

    /// Diversity statistics (H1, H2, uniqueness) of the library.
    ///
    /// Computed from the histograms maintained on insert — O(classes),
    /// not O(patterns × clip²) — so per-iteration stats reporting costs
    /// nothing even on large libraries. Entropy terms are summed in
    /// sorted-count order, making the floats deterministic run to run
    /// (hash-map iteration order is not); values agree with
    /// `LibraryStats::from_layouts` to float rounding.
    pub fn stats(&self) -> LibraryStats {
        let mut complexity: Vec<usize> = self.complexity_hist.values().copied().collect();
        complexity.sort_unstable();
        let mut geometry: Vec<usize> = self.geometry_hist.values().copied().collect();
        geometry.sort_unstable();
        LibraryStats {
            count: self.patterns.len(),
            // Stored patterns are deduplicated by full signature.
            unique: self.patterns.len(),
            h1: entropy_base2(&complexity),
            h2: entropy_base2(&geometry),
        }
    }
}

impl Extend<Layout> for PatternLibrary {
    fn extend<T: IntoIterator<Item = Layout>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl FromIterator<Layout> for PatternLibrary {
    fn from_iter<T: IntoIterator<Item = Layout>>(iter: T) -> Self {
        Self::from_patterns(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_geometry::Rect;
    use proptest::prelude::*;

    fn wire(x: u32) -> Layout {
        let mut l = Layout::new(16, 16);
        l.fill_rect(Rect::new(x, 2, 3, 10));
        l
    }

    #[test]
    fn deduplicates() {
        let mut lib = PatternLibrary::new();
        assert!(lib.insert(wire(2)));
        assert!(!lib.insert(wire(2)));
        assert!(lib.insert(wire(5)));
        assert_eq!(lib.len(), 2);
    }

    #[test]
    fn contains_query() {
        let mut lib = PatternLibrary::new();
        lib.insert(wire(2));
        assert!(lib.contains(&wire(2)));
        assert!(!lib.contains(&wire(7)));
    }

    #[test]
    fn from_iterator_collects() {
        let lib: PatternLibrary = (0..4).map(|i| wire(2 + i)).collect();
        assert_eq!(lib.len(), 4);
        assert_eq!(lib.stats().unique, 4);
    }

    #[test]
    fn extend_merges() {
        let mut lib = PatternLibrary::from_patterns([wire(2)]);
        lib.extend([wire(2), wire(3)]);
        assert_eq!(lib.len(), 2);
    }

    #[test]
    fn incremental_stats_match_full_recompute() {
        let mut lib = PatternLibrary::new();
        for p in pp_pdk::SynthNode::default().starter_patterns() {
            lib.insert(p);
        }
        lib.insert(wire(2));
        lib.insert(wire(2)); // duplicate: must not touch the histograms
        let inc = lib.stats();
        let full = pp_metrics::LibraryStats::from_layouts(lib.patterns());
        assert_eq!(inc.count, full.count);
        assert_eq!(inc.unique, full.unique);
        assert!((inc.h1 - full.h1).abs() < 1e-9, "{} vs {}", inc.h1, full.h1);
        assert!((inc.h2 - full.h2).abs() < 1e-9, "{} vs {}", inc.h2, full.h2);
    }

    #[test]
    fn squish_persistence_roundtrip_exact() {
        let node = pp_pdk::SynthNode::default();
        let clip = node.clip();
        let mut lib = PatternLibrary::new();
        for p in node.starter_patterns() {
            lib.insert(p);
        }
        let mut extra = Layout::new(clip, clip);
        extra.fill_rect(Rect::new(2, 2, 3, 10));
        lib.insert(extra);
        let mut bytes = Vec::new();
        lib.write_squish(&mut bytes).unwrap();
        let back = PatternLibrary::read_squish(bytes.as_slice(), clip).unwrap();
        // Patterns of another size are rejected before rasterising.
        assert!(PatternLibrary::read_squish(bytes.as_slice(), clip + 1).is_err());
        assert_eq!(back.patterns(), lib.patterns());
        let (a, b) = (lib.stats(), back.stats());
        assert_eq!((a.count, a.unique), (b.count, b.unique));
        assert_eq!(a.h1.to_bits(), b.h1.to_bits());
        assert_eq!(a.h2.to_bits(), b.h2.to_bits());
        // Tampered streams (duplicated pattern payload) are rejected.
        let solo = PatternLibrary::from_patterns([wire(3)]);
        let mut dup = Vec::new();
        solo.write_squish(&mut dup).unwrap();
        let body = dup[12..].to_vec(); // past "PPSQ v1\n" + count
        dup[8..12].copy_from_slice(&2u32.to_le_bytes());
        dup.extend_from_slice(&body);
        assert!(PatternLibrary::read_squish(dup.as_slice(), 16).is_err());
    }

    proptest::proptest! {
        /// Persistence round-trips bit-exactly for arbitrary rect-soup
        /// libraries *including* degenerate squish forms: full-width /
        /// full-height bars collapse to 1-column or 1-row topologies
        /// (and the loop below forces both plus their combination).
        #[test]
        fn prop_squish_persistence_roundtrips(rects in proptest::collection::vec(
            (0u32..14, 0u32..14, 1u32..16, 1u32..16), 1..8),
            degenerate in proptest::collection::vec(0u32..3, 1..2)) {
            let mut lib = PatternLibrary::new();
            for (x, y, w, h) in rects {
                let mut l = Layout::new(16, 16);
                l.fill_rect(Rect::new(x, y, w.min(16 - x), h.min(16 - y)));
                lib.insert(l);
            }
            // Degenerate members: 1-row, 1-col and 1x1 squish patterns.
            let mut bar_h = Layout::new(16, 16);
            bar_h.fill_rect(Rect::new(0, degenerate[0] % 13, 16, 3));
            lib.insert(bar_h);
            let mut bar_v = Layout::new(16, 16);
            bar_v.fill_rect(Rect::new(degenerate[0] % 13, 0, 3, 16));
            lib.insert(bar_v);
            lib.insert(Layout::new(16, 16)); // empty: 1x1 topology
            let mut full = Layout::new(16, 16);
            full.fill_rect(Rect::new(0, 0, 16, 16)); // full: 1x1 topology
            lib.insert(full);

            let mut bytes = Vec::new();
            lib.write_squish(&mut bytes).unwrap();
            let back = PatternLibrary::read_squish(bytes.as_slice(), 16).unwrap();
            prop_assert_eq!(back.patterns(), lib.patterns());
            for (a, b) in lib.patterns().iter().zip(back.patterns()) {
                let sa = SquishPattern::from_layout(a);
                let sb = SquishPattern::from_layout(b);
                prop_assert_eq!(Signature::of_squish(&sa), Signature::of_squish(&sb));
                prop_assert_eq!(Signature::of_deltas(&sa), Signature::of_deltas(&sb));
            }
            let (sa, sb) = (lib.stats(), back.stats());
            prop_assert_eq!(sa.count, sb.count);
            prop_assert_eq!(sa.unique, sb.unique);
            prop_assert_eq!(sa.h1.to_bits(), sb.h1.to_bits());
            prop_assert_eq!(sa.h2.to_bits(), sb.h2.to_bits());
        }
    }

    #[test]
    fn insert_squished_skips_rasterise_on_duplicates() {
        let mut lib = PatternLibrary::new();
        let l = wire(4);
        let squish = SquishPattern::from_layout(&l);
        let sig = Signature::of_squish(&squish);
        assert!(lib.insert_squished(sig, &squish, || l.clone()));
        assert!(lib.contains_signature(sig));
        // The duplicate path must never invoke the layout closure.
        assert!(!lib.insert_squished(sig, &squish, || panic!("rasterised a duplicate")));
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.patterns()[0], l);
    }
}
