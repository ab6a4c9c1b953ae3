//! The rule engine: six project-specific invariants over the lexed
//! workspace. Each rule is a function from the prepared sources to
//! findings; `run_rules` runs them all and sorts the result.

mod determinism;
mod error_surface;
mod lock_order;
mod panic_hygiene;
mod poison;
mod unsafe_audit;

use crate::model::SourceFile;
use crate::report::Finding;

/// Which paths each rule applies to. Paths are repo-relative with `/`
/// separators; "prefix" entries match with `starts_with`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes never scanned at all (offline compat stand-ins
    /// mirror external crates and follow their idioms, not ours).
    pub skip_prefixes: Vec<String>,
    /// Timing/backoff modules where ambient clocks are the point:
    /// deadline enforcement, retry backoff, and the benchmark harness.
    /// Everything else needs an `analyze.allow` waiver per site.
    pub determinism_allowed: Vec<String>,
    /// Library files where the panic-hygiene rule bans `panic!` /
    /// `.unwrap()` / `.expect()` outright (typed errors only).
    pub panic_files: Vec<String>,
    /// The crate whose public surface must return `PpError` and whose
    /// lock graph is checked for cycles.
    pub core_prefix: String,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            skip_prefixes: vec!["crates/compat/".into()],
            determinism_allowed: vec![
                "crates/bench/".into(),
                "examples/".into(),
                "crates/core/src/scheduler.rs".into(),
                "crates/core/src/service.rs".into(),
                "crates/core/src/fleet.rs".into(),
                "crates/core/src/lifecycle.rs".into(),
            ],
            panic_files: vec![
                "crates/geometry/src/codec.rs".into(),
                "crates/geometry/src/io.rs".into(),
                "crates/diffusion/src/checkpoint.rs".into(),
                "crates/core/src/artifact.rs".into(),
                "crates/core/src/engine.rs".into(),
                "crates/core/src/jobspec.rs".into(),
                "crates/core/src/scheduler.rs".into(),
                "crates/core/src/service.rs".into(),
                "crates/core/src/fleet.rs".into(),
                "crates/core/src/lifecycle.rs".into(),
                "crates/core/src/tail.rs".into(),
                "crates/core/src/train.rs".into(),
            ],
            core_prefix: "crates/core/src/".into(),
        }
    }
}

impl Config {
    /// Whether `path` is excluded from scanning entirely.
    pub fn skipped(&self, path: &str) -> bool {
        self.skip_prefixes.iter().any(|p| path.starts_with(p))
    }
}

/// The rule catalogue: `(id, what it enforces)`, for `--list-rules`.
pub const CATALOGUE: [(&str, &str); 6] = [
    (
        "poison-hygiene",
        "lock()/read()/write() results recover poisoning via PoisonError::into_inner, never .unwrap()/.expect()",
    ),
    (
        "unsafe-audit",
        "every unsafe block/fn carries a SAFETY comment; unsafe-free crates carry #![forbid(unsafe_code)]",
    ),
    (
        "determinism",
        "no ambient clocks (SystemTime::now, Instant::now) or entropy RNGs outside timing/backoff modules",
    ),
    (
        "panic-hygiene",
        "no panic!/unwrap/expect in the scheduler/service/tail surface or the stored-byte decoders (typed errors only)",
    ),
    (
        "lock-order",
        "the static lock-acquisition graph of pp-core is cycle-free (no potential deadlocks)",
    ),
    (
        "error-surface",
        "pub fns in pp-core returning Result use PpError (or a typed *Error)",
    ),
];

/// Runs every rule over `files` and returns findings sorted by
/// (path, line, rule) so output is stable run to run.
pub fn run_rules(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(poison::check(files, cfg));
    findings.extend(unsafe_audit::check(files, cfg));
    findings.extend(determinism::check(files, cfg));
    findings.extend(panic_hygiene::check(files, cfg));
    findings.extend(lock_order::check(files, cfg));
    findings.extend(error_surface::check(files, cfg));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

/// Builds a [`Finding`] with the snippet filled in from the file.
pub(crate) fn finding(
    rule: &'static str,
    file: &SourceFile,
    line: u32,
    message: String,
) -> Finding {
    Finding {
        rule,
        file: file.path.clone(),
        line,
        message,
        snippet: file.snippet(line).to_string(),
    }
}
