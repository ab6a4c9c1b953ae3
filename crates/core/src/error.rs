//! The pipeline's typed error surface.

use crate::artifact::ArtifactError;
use pp_diffusion::ModelError;
use pp_inpaint::MaskError;
use pp_selection::SelectionError;
use std::fmt;
use std::io;

/// Everything that can go wrong constructing or driving a pipeline.
///
/// The generation surface returns these instead of panicking so a
/// service wrapping the pipeline can map bad requests to client errors
/// and infrastructure failures to retries, without crashing the worker.
///
/// Failures that wrap a lower layer ([`PpError::Io`],
/// [`PpError::Checkpoint`], [`PpError::Artifact`]) expose it through
/// [`std::error::Error::source`], so an engine-level failure chains all
/// the way down to the root `io::Error`:
///
/// ```
/// use patternpaint_core::{ArtifactError, PpError};
/// use std::error::Error as _;
///
/// let root = std::io::Error::new(std::io::ErrorKind::Other, "disk on fire");
/// let e = PpError::from(ArtifactError::Io { path: "model.ppck".into(), source: root });
/// let chained = e.source().and_then(|a| a.source()).expect("two hops");
/// assert!(chained.to_string().contains("disk on fire"));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum PpError {
    /// An invalid [`crate::PipelineConfig`] or stage parameter.
    Config(String),
    /// An image/clip dimension disagrees with what the pipeline expects.
    Shape {
        /// Which dimension is wrong (e.g. `"model image vs node clip"`).
        what: String,
        /// The expected side length.
        expected: u32,
        /// The side length received.
        actual: u32,
    },
    /// The diffusion model rejected a training or sampling call.
    Model(String),
    /// An I/O failure (weight files, reports).
    Io(io::Error),
    /// A generation request contained no jobs.
    EmptyRequest,
    /// Admission control refused the work: a per-class queue (scheduler
    /// submissions or service jobs) was already at its bound. The
    /// request was not enqueued; retrying after in-flight work drains
    /// is the expected recovery.
    Rejected {
        /// Which bound overflowed and at what occupancy.
        reason: String,
    },
    /// A model checkpoint failed to serialise, parse or validate
    /// (truncation, bad magic/version, shape or checksum mismatch).
    Checkpoint(ModelError),
    /// The artifact store under an engine/session save or resume
    /// failed.
    Artifact(ArtifactError),
    /// A scheduler worker panicked while running this submission's
    /// micro-batch. The panic was contained to the one submission (the
    /// worker respawns; other tenants are untouched) and is considered
    /// transient: a [`crate::RetryPolicy`] re-attempts jobs that fail
    /// this way.
    WorkerPanic {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// A hard deadline passed before the work finished; the submission
    /// was cooperatively cancelled at a slot admission. Jobs
    /// resolving through the service surface this as
    /// [`crate::JobOutcome::TimedOut`] with their partial results.
    DeadlineExceeded {
        /// How far past the deadline enforcement happened.
        late_by: std::time::Duration,
    },
}

impl fmt::Display for PpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PpError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            PpError::Shape {
                what,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch ({what}): expected {expected}, got {actual}"
            ),
            PpError::Model(msg) => write!(f, "model error: {msg}"),
            PpError::Io(e) => write!(f, "i/o error: {e}"),
            PpError::EmptyRequest => write!(f, "generation request contains no jobs"),
            PpError::Rejected { reason } => write!(f, "admission rejected: {reason}"),
            PpError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            PpError::Artifact(e) => write!(f, "artifact error: {e}"),
            PpError::WorkerPanic { detail } => {
                write!(f, "scheduler worker panicked: {detail}")
            }
            PpError::DeadlineExceeded { late_by } => {
                write!(f, "hard deadline exceeded ({late_by:?} past it)")
            }
        }
    }
}

impl PpError {
    /// Whether the failure is *transient* — infrastructure damage that
    /// a clean re-run can reasonably outlive — as opposed to a property
    /// of the request itself. This is the classification
    /// [`crate::RetryPolicy`] keys on: worker panics and I/O failures
    /// retry; config, shape, admission and deadline failures do not
    /// (re-running an invalid or expired request cannot fix it).
    pub fn is_transient(&self) -> bool {
        matches!(self, PpError::WorkerPanic { .. } | PpError::Io(_))
    }
}

impl std::error::Error for PpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PpError::Io(e) => Some(e),
            PpError::Checkpoint(e) => Some(e),
            PpError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PpError {
    fn from(e: io::Error) -> Self {
        PpError::Io(e)
    }
}

impl From<ModelError> for PpError {
    fn from(e: ModelError) -> Self {
        match e {
            ModelError::Shape {
                what,
                expected,
                actual,
            } => PpError::Shape {
                what: what.to_string(),
                expected,
                actual,
            },
            ModelError::Empty(_) => PpError::Model(e.to_string()),
            // Checkpoint-surface failures keep their typed form so the
            // source() chain reaches the io root cause.
            ModelError::Io { .. } | ModelError::Corrupt { .. } => PpError::Checkpoint(e),
            _ => PpError::Model(e.to_string()),
        }
    }
}

impl From<ArtifactError> for PpError {
    fn from(e: ArtifactError) -> Self {
        PpError::Artifact(e)
    }
}

impl From<SelectionError> for PpError {
    fn from(e: SelectionError) -> Self {
        PpError::Config(e.to_string())
    }
}

impl From<MaskError> for PpError {
    fn from(e: MaskError) -> Self {
        PpError::Config(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = PpError::Shape {
            what: "model image vs node clip".into(),
            expected: 32,
            actual: 16,
        };
        assert!(e.to_string().contains("expected 32"));
        assert!(PpError::EmptyRequest.to_string().contains("no jobs"));
        assert!(PpError::Config("variations must be positive".into())
            .to_string()
            .contains("variations"));
    }

    #[test]
    fn source_chains_reach_the_io_root() {
        use std::error::Error as _;
        // Engine-level artifact failure → ArtifactError → io::Error.
        let e: PpError = ArtifactError::Io {
            path: "store/model.ppck".into(),
            source: io::Error::new(io::ErrorKind::PermissionDenied, "read-only volume"),
        }
        .into();
        let artifact = e.source().expect("PpError::Artifact has a source");
        let root = artifact.source().expect("ArtifactError::Io has a source");
        assert!(root.to_string().contains("read-only volume"));

        // Checkpoint failure → ModelError → io::Error.
        let e: PpError = ModelError::Io {
            section: "weights: tensor 3 of 42".into(),
            source: io::Error::new(io::ErrorKind::UnexpectedEof, "stream ran dry"),
        }
        .into();
        assert!(matches!(e, PpError::Checkpoint(_)));
        let model = e.source().expect("PpError::Checkpoint has a source");
        assert!(model.to_string().contains("tensor 3 of 42"));
        let root = model.source().expect("ModelError::Io has a source");
        assert!(root.to_string().contains("stream ran dry"));

        // Corrupt checkpoints are typed but have no io root.
        let e: PpError = ModelError::Corrupt {
            section: "checkpoint: checksum".into(),
            detail: "mismatch".into(),
        }
        .into();
        assert!(e.source().expect("checkpoint source").source().is_none());
    }

    #[test]
    fn transience_classifies_retryable_failures() {
        assert!(PpError::WorkerPanic {
            detail: "sampler exploded".into()
        }
        .is_transient());
        assert!(PpError::Io(io::Error::new(io::ErrorKind::Interrupted, "blip")).is_transient());
        for e in [
            PpError::Config("bad".into()),
            PpError::EmptyRequest,
            PpError::Model("oops".into()),
            PpError::Rejected {
                reason: "full".into(),
            },
            PpError::DeadlineExceeded {
                late_by: std::time::Duration::from_millis(3),
            },
        ] {
            assert!(!e.is_transient(), "{e} must not retry");
        }
    }

    #[test]
    fn fault_variants_display_usefully() {
        use std::error::Error as _;
        let e = PpError::WorkerPanic {
            detail: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("panicked"), "display was: {e}");
        assert!(e.source().is_none(), "WorkerPanic is a leaf");
        let e = PpError::DeadlineExceeded {
            late_by: std::time::Duration::from_millis(5),
        };
        assert!(e.to_string().contains("deadline"), "display was: {e}");
        assert!(e.source().is_none(), "DeadlineExceeded is a leaf");
    }

    #[test]
    fn model_errors_convert() {
        let e: PpError = ModelError::Shape {
            what: "inpainting image",
            expected: 32,
            actual: 8,
        }
        .into();
        assert!(matches!(
            e,
            PpError::Shape {
                expected: 32,
                actual: 8,
                ..
            }
        ));
        let e: PpError = ModelError::Empty("training corpus").into();
        assert!(matches!(e, PpError::Model(_)));
    }
}
