//! Versioned, checksummed model checkpoints.
//!
//! [`DiffusionModel::save_weights`] is a raw weight payload: loading it
//! requires already holding a model of the right architecture, and a
//! flipped bit in the payload silently loads as different weights. This
//! module wraps that payload in a durable envelope suitable for
//! artifact stores:
//!
//! ```text
//! "PPCK"                magic
//! u32  version          format version (currently 2)
//! manifest              the full DiffusionConfig (architecture +
//!                       schedule + sampling settings), so a checkpoint
//!                       is self-describing — load_checkpoint rebuilds
//!                       the model without out-of-band configuration
//! lineage (v2)          u8 parent flag; if 1, the u64 trailing
//!                       checksum of the parent checkpoint this one was
//!                       fine-tuned from; then u32 epoch — how many
//!                       training epochs produced these weights
//! PPDM payload          DiffusionModel::save_weights byte-for-byte
//! u64  checksum         FNV-1a over every preceding byte
//! ```
//!
//! All integers are little-endian (via [`pp_geometry::codec`]); the
//! layout is unchanged. [`load_checkpoint`] checks magic and version,
//! then the checksum, *before* any other field, so no manifest field
//! sizes an allocation unvouched; then it validates the manifest and
//! lineage and loads the payload through [`DiffusionModel::load_weights`].
//! Failures are [`ModelError::Corrupt`] / [`ModelError::Io`] naming the
//! section. Version-1 blobs (pre-lineage) load with
//! [`CheckpointLineage::default`].

use crate::error::ModelError;
use crate::model::{DiffusionConfig, DiffusionModel, Parameterization};
use crate::schedule::BetaSchedule;
use pp_geometry::codec::{ByteReader, ByteWriter, CodecError};
use std::io::Write;

/// First four bytes of every checkpoint stream.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"PPCK";

/// The checkpoint format version this build writes. [`load_checkpoint`]
/// also reads version 1 (pre-lineage), defaulting the lineage fields.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Where a checkpoint's weights came from: the training-provenance
/// fields added by format version 2.
///
/// `parent` is the trailing FNV-1a checksum of the checkpoint the run
/// was forked from (see [`checkpoint_checksum`]) — a content address,
/// so a fine-tune can be matched to its exact parent weights without
/// trusting file names. `epoch` counts completed training epochs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointLineage {
    /// Trailing checksum of the parent checkpoint, `None` for a root
    /// (from-scratch) model.
    pub parent: Option<u64>,
    /// Training epochs completed when these weights were written.
    pub epoch: u32,
}

/// The trailing FNV-1a checksum of a serialized checkpoint blob — the
/// content address [`CheckpointLineage::parent`] records. Validates
/// only the envelope (magic + minimum length), not the payload; use
/// [`load_checkpoint`] to verify integrity.
///
/// # Errors
///
/// [`ModelError::Corrupt`] when the blob is too short to carry the
/// envelope or does not start with the PPCK magic.
pub fn checkpoint_checksum(bytes: &[u8]) -> Result<u64, ModelError> {
    if bytes.len() < CHECKPOINT_MAGIC.len() + 4 + 8 || bytes[..4] != CHECKPOINT_MAGIC {
        return Err(ModelError::corrupt(
            "checkpoint: envelope",
            format!("{} bytes is not a PPCK stream", bytes.len()),
        ));
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[bytes.len() - 8..]);
    Ok(u64::from_le_bytes(sum))
}

/// Writes the manifest encoding of `cfg`: the architecture, schedule
/// and sampling fields, little-endian, with tagged enums.
///
/// This is the one binary codec for [`DiffusionConfig`] — checkpoints
/// embed it, and `pp-core`'s engine manifest reuses it, so adding a
/// field or enum variant is a single edit here.
pub fn write_config(cfg: &DiffusionConfig, w: &mut ByteWriter) {
    w.u32(cfg.image);
    w.u32(cfg.base_ch as u32);
    w.u32(cfg.time_dim as u32);
    w.u32(cfg.t_max as u32);
    w.u8(match cfg.schedule {
        BetaSchedule::Linear => 0,
        BetaSchedule::Cosine => 1,
    });
    w.u32(cfg.ddim_steps as u32);
    w.u8(match cfg.parameterization {
        Parameterization::X0 => 0,
        Parameterization::Epsilon => 1,
    });
}

/// Writes `model` as a self-describing, checksummed checkpoint with
/// default lineage (root model, epoch 0) — see
/// [`save_checkpoint_with`].
///
/// # Errors
///
/// [`ModelError::Io`] when the writer fails.
pub fn save_checkpoint<W: Write>(model: &mut DiffusionModel, writer: W) -> Result<(), ModelError> {
    save_checkpoint_with(model, writer, CheckpointLineage::default())
}

/// Writes `model` as a self-describing, checksummed checkpoint carrying
/// `lineage` (format version 2), in one write of the finished blob.
///
/// # Errors
///
/// [`ModelError::Io`] when the writer fails.
pub fn save_checkpoint_with<W: Write>(
    model: &mut DiffusionModel,
    mut writer: W,
    lineage: CheckpointLineage,
) -> Result<(), ModelError> {
    let mut w = ByteWriter::new();
    w.bytes(&CHECKPOINT_MAGIC);
    w.u32(CHECKPOINT_VERSION);
    write_config(&model.config(), &mut w);
    w.opt_u64(lineage.parent);
    w.u32(lineage.epoch);
    model.encode_weights(&mut w);
    writer
        .write_all(&w.seal())
        .map_err(ModelError::io("checkpoint"))
}

/// Reads the manifest encoding written by [`write_config`], with every
/// architecture field sanity-bounded an order of magnitude beyond
/// anything this system instantiates (a checkpoint's checksum has
/// already vouched for these bytes; an engine manifest has none).
///
/// # Errors
///
/// [`CodecError::Truncated`] when the bytes run out,
/// [`CodecError::Corrupt`] for unknown enum tags or implausible
/// dimensions.
pub fn read_config(r: &mut ByteReader<'_>) -> Result<DiffusionConfig, CodecError> {
    let image = r.u32("manifest: image")?;
    let base_ch = r.u32("manifest: base_ch")? as usize;
    let time_dim = r.u32("manifest: time_dim")? as usize;
    let t_max = r.u32("manifest: t_max")? as usize;
    let schedule = match r.u8("manifest: schedule")? {
        0 => BetaSchedule::Linear,
        1 => BetaSchedule::Cosine,
        other => {
            return Err(CodecError::corrupt(
                "manifest: schedule",
                format!("unknown schedule tag {other}"),
            ))
        }
    };
    let ddim_steps = r.u32("manifest: ddim_steps")? as usize;
    let parameterization = match r.u8("manifest: parameterization")? {
        0 => Parameterization::X0,
        1 => Parameterization::Epsilon,
        other => {
            return Err(CodecError::corrupt(
                "manifest: parameterization",
                format!("unknown parameterization tag {other}"),
            ))
        }
    };
    if image == 0 || !image.is_multiple_of(4) || image > 4096 {
        return Err(CodecError::corrupt(
            "manifest: image",
            format!("image side {image} is not a positive multiple of 4 (≤ 4096)"),
        ));
    }
    if base_ch == 0 || time_dim == 0 || t_max == 0 || ddim_steps == 0 {
        return Err(CodecError::corrupt(
            "manifest",
            "base_ch, time_dim, t_max and ddim_steps must be positive",
        ));
    }
    if base_ch > 4096 || time_dim > 65536 || t_max > 1_000_000 || ddim_steps > t_max {
        return Err(CodecError::corrupt(
            "manifest",
            format!(
                "implausible architecture (base_ch {base_ch}, time_dim {time_dim}, \
                 t_max {t_max}, ddim_steps {ddim_steps})"
            ),
        ));
    }
    Ok(DiffusionConfig {
        image,
        base_ch,
        time_dim,
        t_max,
        schedule,
        ddim_steps,
        parameterization,
    })
}

/// Reads a checkpoint written by [`save_checkpoint`], rebuilding the
/// model from the embedded manifest and discarding the lineage (see
/// [`load_checkpoint_with`] to keep it).
///
/// # Errors
///
/// See [`load_checkpoint_with`].
pub fn load_checkpoint(bytes: &[u8]) -> Result<DiffusionModel, ModelError> {
    load_checkpoint_with(bytes).map(|(model, _)| model)
}

/// Reads a checkpoint written by [`save_checkpoint_with`], rebuilding
/// the model from the embedded manifest and returning its lineage.
/// Version-1 blobs load with `parent: None, epoch: 0`.
///
/// # Errors
///
/// [`ModelError::Corrupt`] on bad magic, an unsupported version, a
/// checksum mismatch (a blob cut short included), an invalid manifest
/// or lineage flag, or a payload that disagrees with the manifest;
/// [`ModelError::Io`] when the blob cannot hold header and trailer.
pub fn load_checkpoint_with(
    bytes: &[u8],
) -> Result<(DiffusionModel, CheckpointLineage), ModelError> {
    let mut r = ByteReader::new(bytes);
    r.magic(&CHECKPOINT_MAGIC, "checkpoint: magic")?;
    let version = r.version(1..=CHECKPOINT_VERSION, "checkpoint: version")?;
    r.verify_trailer("checkpoint: checksum")?;
    let cfg = read_config(&mut r)?;
    let lineage = if version >= 2 {
        CheckpointLineage {
            parent: r.opt_u64("lineage: parent flag")?,
            epoch: r.u32("lineage: epoch")?,
        }
    } else {
        // Pre-lineage blobs: a root model with no epoch history.
        CheckpointLineage::default()
    };
    let mut model = DiffusionModel::new(cfg, 0);
    model.load_weights(r.rest())?;
    Ok((model, lineage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_geometry::codec::fnv1a;
    use pp_geometry::GrayImage;

    fn trained_tiny() -> DiffusionModel {
        let mut model = DiffusionModel::new(DiffusionConfig::tiny(16), 3);
        let corpus = vec![GrayImage::filled(16, 16, -1.0); 2];
        let _ = model.train(&corpus, 3, 2, 1e-3, 0).unwrap();
        model
    }

    #[test]
    fn roundtrip_rebuilds_identical_model() {
        let mut a = trained_tiny();
        let mut bytes = Vec::new();
        save_checkpoint(&mut a, &mut bytes).unwrap();
        let b = load_checkpoint(bytes.as_slice()).unwrap();
        assert_eq!(a.config(), b.config());
        let img = GrayImage::filled(16, 16, -1.0);
        let mask = GrayImage::filled(16, 16, 1.0);
        assert_eq!(
            a.sample_inpaint(&img, &mask, 5).unwrap(),
            b.sample_inpaint(&img, &mask, 5).unwrap()
        );
    }

    #[test]
    fn rejects_bad_magic_version_and_checksum() {
        let mut model = trained_tiny();
        let mut bytes = Vec::new();
        save_checkpoint(&mut model, &mut bytes).unwrap();

        let mut bad = bytes.clone();
        bad[0] = b'Q';
        let err = load_checkpoint(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "wrong error: {err}");

        let mut bad = bytes.clone();
        bad[4] = 99;
        let err = load_checkpoint(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "wrong error: {err}");

        // A flipped payload bit trips the checksum even though the
        // weight stream itself still parses.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x40;
        let err = load_checkpoint(bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, ModelError::Corrupt { .. }),
            "wrong error: {err}"
        );

        // A blob cut inside the payload fails the checksum: its last
        // eight bytes are no longer the trailer.
        let err = load_checkpoint(&bytes[..bytes.len() - 12]).unwrap_err();
        assert!(
            matches!(&err, ModelError::Corrupt { section, .. } if section == "checkpoint: checksum"),
            "wrong error: {err}"
        );
    }

    /// Serialises `model` in the retired version-1 layout (no lineage
    /// section) with a correct trailing checksum, byte-compatible with
    /// what pre-v2 builds wrote.
    fn v1_bytes(model: &mut DiffusionModel) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&CHECKPOINT_MAGIC);
        w.u32(1);
        write_config(&model.config(), &mut w);
        let mut body = w.into_vec();
        model.save_weights(&mut body).unwrap();
        let hash = fnv1a(&body);
        body.extend_from_slice(&hash.to_le_bytes());
        body
    }

    /// Rewrites the trailer after a test corrupts a field, so the
    /// decode gets past the checksum to the field's own validation.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn version_one_streams_load_with_default_lineage() {
        let mut model = trained_tiny();
        let old = v1_bytes(&mut model);
        let (back, lineage) = load_checkpoint_with(old.as_slice()).expect("v1 stream loads");
        assert_eq!(lineage, CheckpointLineage::default());
        assert_eq!(lineage.parent, None, "v1 blobs predate lineage");
        assert_eq!(lineage.epoch, 0);
        assert_eq!(back.config(), model.config());
        let img = GrayImage::filled(16, 16, -1.0);
        let mask = GrayImage::filled(16, 16, 1.0);
        assert_eq!(
            back.sample_inpaint(&img, &mask, 5).unwrap(),
            model.sample_inpaint(&img, &mask, 5).unwrap(),
            "v1 weights load bit-identically"
        );
    }

    #[test]
    fn lineage_roundtrips_and_checksum_addresses_the_blob() {
        let mut model = trained_tiny();
        let mut parent_blob = Vec::new();
        save_checkpoint(&mut model, &mut parent_blob).unwrap();
        let parent_sum = checkpoint_checksum(&parent_blob).unwrap();

        let lineage = CheckpointLineage {
            parent: Some(parent_sum),
            epoch: 7,
        };
        let mut child = Vec::new();
        save_checkpoint_with(&mut model, &mut child, lineage).unwrap();
        let (_, back) = load_checkpoint_with(child.as_slice()).unwrap();
        assert_eq!(back, lineage);

        // The content address is the stream's own trailing checksum.
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&parent_blob[parent_blob.len() - 8..]);
        assert_eq!(parent_sum, u64::from_le_bytes(tail));

        // Too-short or non-PPCK byte strings are typed errors, not
        // panics.
        assert!(matches!(
            checkpoint_checksum(b"PPCK"),
            Err(ModelError::Corrupt { .. })
        ));
        assert!(matches!(
            checkpoint_checksum(&child[1..]),
            Err(ModelError::Corrupt { .. })
        ));
    }

    /// The lineage section sits right after the 22-byte manifest
    /// (offset 30): a corrupt parent flag under a valid checksum is a
    /// typed `Corrupt` naming the field.
    #[test]
    fn corrupt_lineage_flag_is_rejected() {
        let mut model = trained_tiny();
        let mut bytes = Vec::new();
        save_checkpoint_with(
            &mut model,
            &mut bytes,
            CheckpointLineage {
                parent: Some(1),
                epoch: 3,
            },
        )
        .unwrap();
        assert_eq!(bytes[30], 1, "parent flag where the layout says");
        let mut bad = bytes.clone();
        bad[30] = 7;
        reseal(&mut bad);
        let err = load_checkpoint_with(bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, ModelError::Corrupt { .. }),
            "wrong error: {err}"
        );
        assert!(err.to_string().contains("parent flag"), "was: {err}");
    }

    /// Truncation at *every* prefix depth of the envelope + lineage
    /// region (and a sweep of payload/checksum depths) returns a typed
    /// error, never a panic and never a model.
    #[test]
    fn truncation_at_every_depth_is_a_typed_error() {
        let mut model = trained_tiny();
        let mut bytes = Vec::new();
        save_checkpoint_with(
            &mut model,
            &mut bytes,
            CheckpointLineage {
                parent: Some(0xfeed),
                epoch: 2,
            },
        )
        .unwrap();
        // Envelope + manifest + lineage (flag 1 + parent 8 + epoch 4)
        // ends at byte 43; cover every cut inside it, then sample the
        // weight payload and the trailing checksum.
        let header_end = 43.min(bytes.len());
        let mut cuts: Vec<usize> = (0..header_end).collect();
        cuts.extend([bytes.len() - 9, bytes.len() - 8, bytes.len() - 1]);
        for cut in cuts {
            let err = load_checkpoint_with(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ModelError::Io { .. } | ModelError::Corrupt { .. }),
                "cut at {cut}: wrong error {err}"
            );
        }
    }

    #[test]
    fn manifest_is_validated() {
        let mut model = trained_tiny();
        let mut bytes = Vec::new();
        save_checkpoint(&mut model, &mut bytes).unwrap();
        // Corrupt the image side (first manifest field, offset 8) to a
        // non-multiple of 4 under a valid checksum. The manifest check
        // fires before any weight allocation happens.
        let mut bad = bytes.clone();
        bad[8] = 17;
        reseal(&mut bad);
        let err = load_checkpoint(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("image"), "wrong error: {err}");
        // An absurd base_ch (offset 12) with a valid checksum must still
        // be rejected *before* DiffusionModel::new would try to allocate
        // a giant U-Net: FNV-1a is not a MAC.
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&0x4000_0000u32.to_le_bytes());
        reseal(&mut bad);
        let err = load_checkpoint(bad.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("implausible"),
            "wrong error: {err}"
        );
    }
}
