//! The SynthNode-3 node definition.

use pp_drc::{RuleDeck, SpacingTable, SpacingWindow};
use serde::{Deserialize, Serialize};

/// Narrow wire width (`Wa` of the paper's advanced rule set), in pixels.
pub const WIDTH_NARROW: u32 = 3;
/// Wide wire width (`Wb`), in pixels.
pub const WIDTH_WIDE: u32 = 5;

/// A synthetic sub-3nm-style technology node.
///
/// The node fixes a clip size, a vertical routing-track grid and the rule
/// decks. All PatternPaint experiments run on `SynthNode::default()`
/// (32×32 clips, track pitch 8); tests use [`SynthNode::small`].
///
/// # Example
///
/// ```
/// use pp_pdk::SynthNode;
///
/// let node = SynthNode::default();
/// assert_eq!(node.clip(), 32);
/// assert_eq!(node.track_centers(), vec![4, 12, 20, 28]);
/// assert!(node.rules().is_advanced());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthNode {
    clip: u32,
    pitch: u32,
    first_track: u32,
    rules: RuleDeck,
    basic_rules: RuleDeck,
}

impl SynthNode {
    /// Creates a node with the given clip size and track pitch.
    ///
    /// # Panics
    ///
    /// Panics where [`SynthNode::try_new`] fails: a bad literal node is
    /// a programming error.
    pub fn new(clip: u32, pitch: u32) -> Self {
        SynthNode::try_new(clip, pitch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a node from parameters read from a stored manifest.
    ///
    /// # Errors
    ///
    /// When the pitch cannot host a wide wire plus minimum spacing, or
    /// the clip cannot fit two [`SynthNode::track_centers`].
    pub fn try_new(clip: u32, pitch: u32) -> Result<Self, String> {
        if pitch < WIDTH_WIDE + 3 {
            return Err(format!("pitch {pitch} too small for wide wires"));
        }
        // Track 1's centre plus half a pitch, in u64 against overflow.
        if u64::from(pitch / 2) * 2 + u64::from(pitch) > u64::from(clip) {
            return Err(format!("clip {clip} must fit at least two tracks"));
        }
        Ok(SynthNode {
            clip,
            pitch,
            first_track: pitch / 2,
            rules: Self::advanced_deck(),
            basic_rules: Self::basic_deck(),
        })
    }

    /// A 16×16 node for fast tests (two tracks).
    pub fn small() -> Self {
        SynthNode::new(16, 8)
    }

    /// The advanced (sign-off) rule deck shared by all node sizes.
    ///
    /// Mirrors the paper's advanced set: discrete widths {3, 5}, spacing
    /// windows conditioned on neighbour widths, E2E and area bounds.
    pub fn advanced_deck() -> RuleDeck {
        let mut deck = RuleDeck::basic("synthnode3-advanced", 3, 3, 4, 12);
        deck.discrete_widths = Some(vec![WIDTH_NARROW, WIDTH_WIDE]);
        deck.wire_min_len = 8;
        deck.max_area = Some(300);
        deck.spacing_table = Some(SpacingTable {
            width_a: WIDTH_NARROW,
            width_b: WIDTH_WIDE,
            windows: [
                // left A            left A vs right B
                [SpacingWindow::new(3, 26), SpacingWindow::new(4, 26)],
                // left B vs right A, left B vs right B
                [SpacingWindow::new(4, 26), SpacingWindow::new(5, 26)],
            ],
        });
        deck.validate().expect("advanced deck is consistent");
        deck
    }

    /// The basic (academic-style) deck used by prior-work comparisons.
    pub fn basic_deck() -> RuleDeck {
        let deck = RuleDeck::basic("synthnode3-basic", 3, 3, 4, 12);
        deck.validate().expect("basic deck is consistent");
        deck
    }

    /// Clip side length in pixels (clips are square).
    pub fn clip(&self) -> u32 {
        self.clip
    }

    /// Track pitch in pixels.
    pub fn pitch(&self) -> u32 {
        self.pitch
    }

    /// The sign-off (advanced) rule deck.
    pub fn rules(&self) -> &RuleDeck {
        &self.rules
    }

    /// The basic rule deck.
    pub fn basic_rules(&self) -> &RuleDeck {
        &self.basic_rules
    }

    /// X coordinates of vertical track centres inside the clip.
    pub fn track_centers(&self) -> Vec<u32> {
        (0..)
            .map(|i| self.first_track + i * self.pitch)
            .take_while(|&x| x + self.pitch / 2 <= self.clip)
            .collect()
    }

    /// Number of routing tracks.
    pub fn track_count(&self) -> usize {
        self.track_centers().len()
    }

    /// Left edge of a wire of width `w` centred on track `t`.
    ///
    /// Wide wires are biased half a pixel left (integer grid), matching
    /// the builder and generators.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn wire_left_edge(&self, t: usize, w: u32) -> u32 {
        let c = self.track_centers()[t];
        c - w.div_ceil(2) + 1
    }
}

impl Default for SynthNode {
    /// The reference 32×32, pitch-8 node used throughout the evaluation.
    fn default() -> Self {
        SynthNode::new(32, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_node_has_four_tracks() {
        let n = SynthNode::default();
        assert_eq!(n.track_count(), 4);
        assert_eq!(n.track_centers(), vec![4, 12, 20, 28]);
    }

    #[test]
    fn small_node_has_two_tracks() {
        let n = SynthNode::small();
        assert_eq!(n.track_count(), 2);
    }

    #[test]
    fn decks_validate() {
        assert!(SynthNode::advanced_deck().validate().is_ok());
        assert!(SynthNode::basic_deck().validate().is_ok());
        assert!(SynthNode::advanced_deck().is_advanced());
        assert!(!SynthNode::basic_deck().is_advanced());
    }

    #[test]
    fn wire_edges_fit_pitch() {
        let n = SynthNode::default();
        // Narrow wire on track 0: [3, 6); narrow on track 1: [11, 14).
        assert_eq!(n.wire_left_edge(0, WIDTH_NARROW), 3);
        assert_eq!(n.wire_left_edge(1, WIDTH_NARROW), 11);
        // Gap between adjacent narrow wires is pitch - width = 5 >= 3.
        // Wide wire on track 0: [2, 7).
        assert_eq!(n.wire_left_edge(0, WIDTH_WIDE), 2);
    }

    #[test]
    fn adjacent_narrow_wide_gap_is_four() {
        let n = SynthNode::default();
        let a_right = n.wire_left_edge(0, WIDTH_NARROW) + WIDTH_NARROW; // 6
        let b_left = n.wire_left_edge(1, WIDTH_WIDE); // 10
        assert_eq!(b_left - a_right, 4); // satisfies the (A,B) window min
    }

    #[test]
    #[should_panic(expected = "at least two tracks")]
    fn tiny_clip_rejected() {
        let _ = SynthNode::new(8, 8);
    }

    /// `try_new` accepts exactly the nodes whose pitch hosts a wide
    /// wire and whose clip holds the two tracks the starter patterns
    /// index; the presets stay valid.
    #[test]
    fn try_new_accepts_exactly_the_two_track_nodes() {
        assert_eq!(SynthNode::try_new(16, 8), Ok(SynthNode::small()));
        assert_eq!(SynthNode::try_new(32, 8), Ok(SynthNode::default()));
        for clip in 0..80 {
            for pitch in WIDTH_WIDE + 3..40 {
                // The `track_centers` rule, counted independently.
                let tracks = (0..)
                    .map(|i| pitch / 2 + i * pitch)
                    .take_while(|&x| x + pitch / 2 <= clip)
                    .count();
                let node = SynthNode::try_new(clip, pitch);
                assert_eq!(node.is_ok(), tracks >= 2, "clip {clip}, pitch {pitch}");
            }
            assert!(SynthNode::try_new(clip, WIDTH_WIDE + 2).is_err());
        }
        assert!(SynthNode::try_new(u32::MAX, u32::MAX).is_err());
    }
}
