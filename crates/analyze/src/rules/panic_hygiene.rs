//! `panic-hygiene`: the scheduler/service/tail library surface and the
//! decoders of stored bytes must not panic — they return typed errors.
//!
//! The first are the files between a tenant's request and the worker
//! pool; a panic there is either a whole-pool wedge or a poisoned lock
//! for every other tenant. The second (the codec and the formats built
//! on it) read bytes from disk or the wire, where any value can appear.
//! The rule bans the panic macro family and `.unwrap()` / `.expect()`
//! in their non-test code. (Slice indexing is out of lexical reach —
//! clippy's `indexing_slicing` exists when that is wanted.) The
//! deliberate fault-injection panic in the scheduler's chaos hook
//! carries a narrowly-scoped `analyze.allow` waiver.

use super::{finding, Config};
use crate::model::SourceFile;
use crate::report::Finding;

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const SINKS: [&str; 2] = ["unwrap", "expect"];

pub(super) fn check(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !cfg.panic_files.iter().any(|p| p.as_str() == f.path) {
            continue;
        }
        let n = f.code_len();
        for k in 0..n {
            let t = f.ct(k);
            let line = t.line;
            if f.is_test_line(line) {
                continue;
            }
            if k + 1 < n && PANIC_MACROS.iter().any(|m| t.is_ident(m)) && f.ct(k + 1).is_punct('!')
            {
                out.push(finding(
                    "panic-hygiene",
                    f,
                    line,
                    format!(
                        "`{}!` in the {} library surface; return a typed `PpError` instead",
                        t.text,
                        short(&f.path)
                    ),
                ));
            }
            if k >= 1
                && k + 1 < n
                && f.ct(k - 1).is_punct('.')
                && SINKS.iter().any(|s| t.is_ident(s))
                && f.ct(k + 1).is_punct('(')
            {
                out.push(finding(
                    "panic-hygiene",
                    f,
                    line,
                    format!(
                        "`.{}(..)` in the {} library surface; propagate a typed `PpError` \
                         (or restructure so the value is statically present)",
                        t.text,
                        short(&f.path)
                    ),
                ));
            }
        }
    }
    out
}

fn short(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}
