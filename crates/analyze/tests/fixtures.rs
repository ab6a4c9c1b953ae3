//! Fixture tests: each rule fires on a minimal violating snippet, stays
//! quiet on the compliant twin, and is suppressible by a narrowly-scoped
//! `analyze.allow` waiver.
//!
//! Fixtures are in-memory `(path, source)` pairs fed through
//! [`pp_analyze::analyze_sources`]; paths are chosen to land inside (or
//! outside) each rule's scope in the default [`Config`].

use pp_analyze::allow::AllowList;
use pp_analyze::analyze_sources;
use pp_analyze::report::Analysis;
use pp_analyze::rules::Config;

fn run(sources: &[(&str, &str)]) -> Analysis {
    analyze_sources(sources, &Config::default(), &AllowList::default())
}

fn run_with_allow(sources: &[(&str, &str)], allow: &str) -> Analysis {
    let allow = AllowList::parse(allow).expect("fixture allow file parses");
    analyze_sources(sources, &Config::default(), &allow)
}

/// The distinct rule ids among the unwaived findings.
fn rules_of(a: &Analysis) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = a.findings.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

mod poison_hygiene {
    use super::*;

    const BAD: &str = r#"
        fn tick(m: &std::sync::Mutex<u32>) {
            let mut g = m.lock().unwrap();
            *g += 1;
        }
    "#;

    #[test]
    fn fires_on_lock_unwrap() {
        let a = run(&[("crates/geometry/src/grid.rs", BAD)]);
        assert_eq!(rules_of(&a), ["poison-hygiene"], "{}", a.render_text());
        assert_eq!(a.findings[0].line, 3);
    }

    #[test]
    fn fires_on_rwlock_read_expect() {
        let src = r#"
            fn peek(m: &std::sync::RwLock<u32>) -> u32 {
                *m.read().expect("poisoned")
            }
        "#;
        let a = run(&[("crates/geometry/src/grid.rs", src)]);
        assert_eq!(rules_of(&a), ["poison-hygiene"], "{}", a.render_text());
    }

    #[test]
    fn quiet_on_poison_recovery() {
        let src = r#"
            use std::sync::PoisonError;
            fn tick(m: &std::sync::Mutex<u32>) {
                let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);
                *g += 1;
            }
        "#;
        let a = run(&[("crates/geometry/src/grid.rs", src)]);
        assert!(a.is_clean(), "{}", a.render_text());
    }

    #[test]
    fn quiet_in_test_code_strings_and_comments() {
        let src = r#"
            // not real: m.lock().unwrap()
            const DOC: &str = "m.lock().unwrap()";
            #[cfg(test)]
            mod tests {
                #[test]
                fn t(m: &std::sync::Mutex<u32>) {
                    let _ = m.lock().unwrap();
                }
            }
        "#;
        let a = run(&[("crates/geometry/src/grid.rs", src)]);
        assert!(a.is_clean(), "{}", a.render_text());
    }

    #[test]
    fn waiver_suppresses_the_finding() {
        let a = run_with_allow(
            &[("crates/geometry/src/grid.rs", BAD)],
            "poison-hygiene | crates/geometry/src/grid.rs | m.lock().unwrap() | fixture\n",
        );
        assert!(a.is_clean(), "{}", a.render_text());
        assert_eq!(a.waived.len(), 1);
    }
}

mod unsafe_audit {
    use super::*;

    #[test]
    fn fires_on_unsafe_without_safety_comment() {
        let src = r#"
            fn f(p: *const u8) -> u8 {
                unsafe { *p }
            }
        "#;
        let a = run(&[("crates/nn/src/kern.rs", src)]);
        assert_eq!(rules_of(&a), ["unsafe-audit"], "{}", a.render_text());
    }

    #[test]
    fn quiet_with_safety_comment() {
        let src = r#"
            fn f(p: *const u8) -> u8 {
                // SAFETY: the caller guarantees `p` is valid for reads.
                unsafe { *p }
            }
        "#;
        let a = run(&[("crates/nn/src/kern.rs", src)]);
        assert!(a.is_clean(), "{}", a.render_text());
    }

    #[test]
    fn safety_doc_section_counts_for_unsafe_fn() {
        let src = r#"
            /// Reads a byte.
            ///
            /// # Safety
            ///
            /// `p` must be valid for reads.
            pub unsafe fn read(p: *const u8) -> u8 {
                // SAFETY: contract forwarded from this fn's `# Safety`.
                unsafe { *p }
            }
        "#;
        let a = run(&[("crates/nn/src/kern.rs", src)]);
        assert!(a.is_clean(), "{}", a.render_text());
    }

    #[test]
    fn unsafe_free_crate_root_needs_forbid() {
        let a = run(&[("crates/demo/src/lib.rs", "pub fn f() {}\n")]);
        assert_eq!(rules_of(&a), ["unsafe-audit"], "{}", a.render_text());
        let clean = run(&[(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        )]);
        assert!(clean.is_clean(), "{}", clean.render_text());
    }

    #[test]
    fn unsafe_using_crate_lib_needs_deny_unsafe_op() {
        let lib = "pub mod kern;\n";
        let kern = r#"
            pub fn f(p: *const u8) -> u8 {
                // SAFETY: the caller guarantees `p` is valid for reads.
                unsafe { *p }
            }
        "#;
        let a = run(&[
            ("crates/demo/src/lib.rs", lib),
            ("crates/demo/src/kern.rs", kern),
        ]);
        assert_eq!(rules_of(&a), ["unsafe-audit"], "{}", a.render_text());
        let lib_ok = "#![deny(unsafe_op_in_unsafe_fn)]\npub mod kern;\n";
        let clean = run(&[
            ("crates/demo/src/lib.rs", lib_ok),
            ("crates/demo/src/kern.rs", kern),
        ]);
        assert!(clean.is_clean(), "{}", clean.render_text());
    }

    #[test]
    fn waiver_suppresses_the_finding() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let a = run_with_allow(
            &[("crates/nn/src/kern.rs", src)],
            "unsafe-audit | crates/nn/src/kern.rs | unsafe | fixture\n",
        );
        assert!(a.is_clean(), "{}", a.render_text());
    }
}

mod determinism {
    use super::*;

    const BAD: &str = r#"
        fn stamp() -> std::time::Instant {
            std::time::Instant::now()
        }
    "#;

    #[test]
    fn fires_on_ambient_clock() {
        let a = run(&[("crates/geometry/src/grid.rs", BAD)]);
        assert_eq!(rules_of(&a), ["determinism"], "{}", a.render_text());
    }

    #[test]
    fn fires_on_entropy_rng() {
        let src = r#"
            fn roll() -> u64 {
                let mut rng = rand::thread_rng();
                rng.next_u64()
            }
        "#;
        let a = run(&[("crates/geometry/src/grid.rs", src)]);
        assert_eq!(rules_of(&a), ["determinism"], "{}", a.render_text());
    }

    #[test]
    fn quiet_in_timing_allowlist_and_tests() {
        // The bench harness is allowlisted; test code anywhere is fine.
        let a = run(&[("crates/bench/src/lib.rs", BAD)]);
        // (the bench fixture still needs its forbid attr to scan clean)
        let bench = format!("#![forbid(unsafe_code)]\n{BAD}");
        let a2 = run(&[("crates/bench/src/lib.rs", bench.as_str())]);
        assert!(
            !rules_of(&a).contains(&"determinism"),
            "{}",
            a.render_text()
        );
        assert!(a2.is_clean(), "{}", a2.render_text());

        let test_src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let _ = std::time::Instant::now();
                }
            }
        "#;
        let a3 = run(&[("crates/geometry/src/grid.rs", test_src)]);
        assert!(a3.is_clean(), "{}", a3.render_text());
    }

    #[test]
    fn waiver_suppresses_the_finding() {
        let a = run_with_allow(
            &[("crates/geometry/src/grid.rs", BAD)],
            "determinism | crates/geometry/src/grid.rs | Instant::now | fixture\n",
        );
        assert!(a.is_clean(), "{}", a.render_text());
    }
}

mod panic_hygiene {
    use super::*;

    const BAD: &str = r#"
        fn pick(q: &[u32]) -> u32 {
            if q.is_empty() {
                panic!("empty queue");
            }
            q.first().copied().unwrap()
        }
    "#;

    #[test]
    fn fires_in_the_scheduler_surface() {
        let a = run(&[("crates/core/src/scheduler.rs", BAD)]);
        let f = &a.findings;
        assert_eq!(rules_of(&a), ["panic-hygiene"], "{}", a.render_text());
        assert_eq!(f.len(), 2, "both the panic! and the .unwrap()");
    }

    #[test]
    fn quiet_outside_the_protected_files_and_in_tests() {
        let a = run(&[("crates/core/src/library.rs", BAD)]);
        assert!(
            !rules_of(&a).contains(&"panic-hygiene"),
            "{}",
            a.render_text()
        );
        let test_src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    Some(1).unwrap();
                }
            }
        "#;
        let a2 = run(&[("crates/core/src/scheduler.rs", test_src)]);
        assert!(a2.is_clean(), "{}", a2.render_text());
    }

    #[test]
    fn waiver_suppresses_the_finding() {
        let a = run_with_allow(
            &[("crates/core/src/scheduler.rs", BAD)],
            "panic-hygiene | crates/core/src/scheduler.rs | panic!(\"empty queue\") | fixture\n\
             panic-hygiene | crates/core/src/scheduler.rs | .unwrap() | fixture\n",
        );
        assert!(a.is_clean(), "{}", a.render_text());
        assert_eq!(a.waived.len(), 2);
    }
}

mod lock_order {
    use super::*;

    /// Two functions taking `alpha`/`beta` in opposite nesting orders.
    const CYCLE: &str = r#"
        fn forward(s: &S) {
            let a = s.alpha.lock();
            let b = s.beta.lock();
            drop(b);
            drop(a);
        }
        fn backward(s: &S) {
            let b = s.beta.lock();
            let a = s.alpha.lock();
            drop(a);
            drop(b);
        }
    "#;

    #[test]
    fn fires_on_opposite_nesting_orders() {
        let a = run(&[("crates/core/src/scheduler.rs", CYCLE)]);
        assert_eq!(rules_of(&a), ["lock-order"], "{}", a.render_text());
        assert!(a.findings[0].message.contains("alpha"));
        assert!(a.findings[0].message.contains("beta"));
    }

    #[test]
    fn fires_on_reacquiring_a_held_lock() {
        let src = r#"
            fn twice(s: &S) {
                let a = s.alpha.lock();
                let b = s.alpha.lock();
            }
        "#;
        let a = run(&[("crates/core/src/scheduler.rs", src)]);
        assert_eq!(rules_of(&a), ["lock-order"], "{}", a.render_text());
    }

    #[test]
    fn quiet_on_block_scoped_sequential_sections() {
        let src = r#"
            fn forward(s: &S) {
                {
                    let a = s.alpha.lock();
                }
                {
                    let b = s.beta.lock();
                }
            }
            fn backward(s: &S) {
                {
                    let b = s.beta.lock();
                }
                {
                    let a = s.alpha.lock();
                }
            }
        "#;
        let a = run(&[("crates/core/src/scheduler.rs", src)]);
        assert!(a.is_clean(), "{}", a.render_text());
    }

    #[test]
    fn explicit_drop_releases_before_the_next_acquire() {
        let src = r#"
            fn forward(s: &S) {
                let a = s.alpha.lock();
                drop(a);
                let b = s.beta.lock();
            }
            fn backward(s: &S) {
                let b = s.beta.lock();
                drop(b);
                let a = s.alpha.lock();
            }
        "#;
        let a = run(&[("crates/core/src/scheduler.rs", src)]);
        assert!(a.is_clean(), "{}", a.render_text());
    }

    #[test]
    fn sees_through_guard_returning_helpers() {
        let src = r#"
            fn lock_alpha(s: &S) -> Guard {
                s.alpha.lock()
            }
            fn forward(s: &S) {
                let a = lock_alpha(s);
                let b = s.beta.lock();
            }
            fn backward(s: &S) {
                let b = s.beta.lock();
                let a = lock_alpha(s);
            }
        "#;
        let a = run(&[("crates/core/src/scheduler.rs", src)]);
        assert_eq!(rules_of(&a), ["lock-order"], "{}", a.render_text());
    }

    #[test]
    fn waiver_suppresses_the_finding() {
        let a = run_with_allow(
            &[("crates/core/src/scheduler.rs", CYCLE)],
            "lock-order | crates/core/src/scheduler.rs | * | fixture\n",
        );
        assert!(a.is_clean(), "{}", a.render_text());
    }
}

mod error_surface {
    use super::*;

    #[test]
    fn fires_on_stringly_and_opaque_results() {
        let src = r#"
            pub fn bad() -> Result<u32, String> {
                Err("nope".to_string())
            }
            pub fn opaque() -> Result<u32> {
                Ok(1)
            }
        "#;
        let a = run(&[("crates/core/src/api.rs", src)]);
        assert_eq!(rules_of(&a), ["error-surface"], "{}", a.render_text());
        assert_eq!(a.findings.len(), 2, "{}", a.render_text());
    }

    #[test]
    fn quiet_on_typed_errors_aliases_and_private_fns() {
        let src = r#"
            pub fn good(x: u32) -> Result<u32, PpError> {
                Ok(x)
            }
            pub fn tuple_err() -> Result<u32, (PpError, usize)> {
                Ok(1)
            }
            pub fn io_alias() -> io::Result<()> {
                Ok(())
            }
            pub(crate) fn internal() -> Result<u32, String> {
                Ok(1)
            }
            fn private() -> Result<u32, String> {
                Ok(1)
            }
            pub fn no_result(cb: impl Fn() -> Result<u32, String>) -> u32 {
                1
            }
        "#;
        let a = run(&[("crates/core/src/api.rs", src)]);
        assert!(
            !rules_of(&a).contains(&"error-surface"),
            "{}",
            a.render_text()
        );
    }

    #[test]
    fn out_of_scope_crates_are_not_checked() {
        let src = "pub fn bad() -> Result<u32, String> { Err(String::new()) }\n";
        let a = run(&[("crates/geometry/src/api.rs", src)]);
        assert!(
            !rules_of(&a).contains(&"error-surface"),
            "{}",
            a.render_text()
        );
    }

    #[test]
    fn waiver_suppresses_the_finding() {
        let src = "pub fn bad() -> Result<u32, String> { Err(String::new()) }\n";
        let a = run_with_allow(
            &[("crates/core/src/api.rs", src)],
            "error-surface | crates/core/src/api.rs | fn bad | fixture\n",
        );
        assert!(a.is_clean(), "{}", a.render_text());
    }
}

mod waiver_mechanics {
    use super::*;

    #[test]
    fn stale_waivers_fail_the_run() {
        let a = run_with_allow(
            &[("crates/geometry/src/grid.rs", "fn f() {}\n")],
            "determinism | crates/geometry/src/grid.rs | Instant::now | nothing matches\n",
        );
        assert!(!a.is_clean());
        assert_eq!(a.stale.len(), 1);
        assert!(a.render_text().contains("stale-waiver"));
    }

    #[test]
    fn compat_crates_are_never_scanned() {
        let bad = "fn f(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }\n";
        let a = run(&[("crates/compat/rand/src/lib.rs", bad)]);
        assert!(a.is_clean(), "{}", a.render_text());
        assert_eq!(a.files_scanned, 0);
    }

    #[test]
    fn json_report_carries_findings_and_waived_flags() {
        let a = run_with_allow(
            &[(
                "crates/geometry/src/grid.rs",
                "fn f(m: &std::sync::Mutex<u32>) { let a = m.lock().unwrap(); let _ = std::time::Instant::now(); }\n",
            )],
            "determinism | crates/geometry/src/grid.rs | Instant::now | fixture\n",
        );
        let json = a.render_json();
        assert!(json.contains("\"clean\": false"), "{json}");
        assert!(json.contains("\"rule\": \"poison-hygiene\""), "{json}");
        assert!(json.contains("\"waived\": true"), "{json}");
        assert!(json.contains("\"waived\": false"), "{json}");
    }
}
