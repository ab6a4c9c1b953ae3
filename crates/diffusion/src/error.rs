//! Typed errors for the model's training, sampling and checkpoint
//! surface.

use pp_geometry::codec::CodecError;
use std::fmt;
use std::io;

/// What went wrong inside a [`crate::DiffusionModel`] call.
///
/// Every public training/sampling entry point validates its inputs up
/// front and returns one of these instead of panicking, so service-style
/// callers can surface bad requests without tearing the process down.
/// The checkpoint surface ([`crate::DiffusionModel::save_weights`],
/// [`crate::DiffusionModel::load_weights`], [`crate::save_checkpoint`],
/// [`crate::load_checkpoint`]) uses the [`ModelError::Io`] and
/// [`ModelError::Corrupt`] variants, which name the offending section so
/// a truncated or mismatched blob is diagnosable from the message
/// alone; decode failures arrive as one [`CodecError`] each and convert
/// through `From`. [`std::error::Error::source`] on [`ModelError::Io`]
/// exposes the underlying I/O failure, so error chains reach the root
/// cause.
#[derive(Debug)]
#[non_exhaustive]
pub enum ModelError {
    /// A call received an empty input set (`what` names it).
    Empty(&'static str),
    /// An image dimension disagrees with the configured model size.
    Shape {
        /// Which input was mis-shaped (e.g. `"inpainting image"`).
        what: &'static str,
        /// The side length the model expects.
        expected: u32,
        /// The side length it received.
        actual: u32,
    },
    /// Reading or writing a checkpoint stream failed.
    Io {
        /// The checkpoint section being transferred (e.g.
        /// `"weights: parameter tensor 3 of 42"`), so a truncated
        /// stream points at where it ran dry.
        section: String,
        /// The underlying I/O failure (also returned by
        /// [`std::error::Error::source`]).
        source: io::Error,
    },
    /// A checkpoint stream parsed but its contents are invalid: bad
    /// magic, unsupported version, a shape manifest that disagrees with
    /// this architecture, or a checksum mismatch. Nothing is applied to
    /// the model when this is returned — a corrupt stream never leaves
    /// garbage weights behind.
    Corrupt {
        /// The checkpoint section that failed validation.
        section: String,
        /// What was wrong with it.
        detail: String,
    },
}

impl ModelError {
    /// Builds an [`ModelError::Io`] tagged with `section`.
    pub(crate) fn io(section: impl Into<String>) -> impl FnOnce(io::Error) -> ModelError {
        let section = section.into();
        move |source| ModelError::Io { section, source }
    }

    /// Builds a [`ModelError::Corrupt`] for `section`.
    pub(crate) fn corrupt(section: impl Into<String>, detail: impl Into<String>) -> ModelError {
        ModelError::Corrupt {
            section: section.into(),
            detail: detail.into(),
        }
    }
}

/// Truncation becomes [`ModelError::Io`] with an `UnexpectedEof`
/// source, bad content [`ModelError::Corrupt`].
impl From<CodecError> for ModelError {
    fn from(e: CodecError) -> ModelError {
        let message = e.to_string();
        match e {
            CodecError::Truncated { section, .. } => ModelError::Io {
                section,
                source: io::Error::new(io::ErrorKind::UnexpectedEof, message),
            },
            CodecError::Corrupt { section, detail } => ModelError::Corrupt { section, detail },
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Empty(what) => write!(f, "{what} must be non-empty"),
            ModelError::Shape {
                what,
                expected,
                actual,
            } => write!(f, "{what} must be {expected}x{expected}, got {actual}"),
            ModelError::Io { section, source } => {
                write!(f, "checkpoint i/o failed at {section}: {source}")
            }
            ModelError::Corrupt { section, detail } => {
                write!(f, "corrupt checkpoint ({section}): {detail}")
            }
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn io_variant_chains_to_source() {
        let e = ModelError::io("weights: header")(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ran dry",
        ));
        assert!(e.to_string().contains("weights: header"));
        let root = e.source().expect("io variant must expose its source");
        assert!(root.to_string().contains("stream ran dry"));
    }

    #[test]
    fn corrupt_variant_names_section() {
        let e = ModelError::corrupt("magic", "expected PPCK");
        assert!(e.to_string().contains("magic"));
        assert!(e.source().is_none());
    }
}
