//! Durable compiled-automaton artifacts for the SFA engine.
//!
//! Eager D-SFA compilation is the expensive step of the pipeline —
//! subset construction, minimization, then the simultaneous closure over
//! `Q → Q` mappings. This crate makes that cost a *build-time* cost: a
//! compiled automaton is serialized once into a versioned, checksummed,
//! alignment-padded binary artifact ([`ArtifactSource`]), and loaded back
//! with a **zero-copy** reader ([`load`]). The artifact's SFA sections
//! are the [`DSfa`](sfa_core::DSfa)'s own storage layout, so the loaded
//! automaton is an ordinary `DSfa` reading its tables in place from the
//! artifact buffer — typically an [`ArtifactFile`] memory mapping —
//! instead of rebuilding or even copying them. It runs every scan kernel
//! a freshly built one does, with the same verdicts.
//!
//! Corrupt input is a first-class case, not a panic: every load
//! re-validates the structural invariants of both automata and fails
//! closed with a typed [`ArtifactError`] naming the bad offset.
//!
//! A byte-bounded [`CompileCache`] rounds out the cold-start story for
//! services that compile patterns on demand.
//!
//! ```
//! use sfa_automata::minimal_dfa_from_pattern;
//! use sfa_core::{DSfa, SfaConfig};
//! use sfa_serialize::{load, ArtifactSource};
//! use std::sync::Arc;
//!
//! let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
//! let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
//! let artifact = ArtifactSource {
//!     pattern: "(ab)*",
//!     mode: 0,
//!     collapsed: false,
//!     nfa_states: 0,
//!     dfa: &dfa,
//!     sfa: &sfa,
//!     decided_verdict: &dfa.verdict_decided_states(),
//!     decided_accept: &dfa.accept_set_decided_states(),
//!     convergence: None,
//! }
//! .encode_to_vec();
//!
//! let loaded = load(Arc::new(artifact)).unwrap();
//! assert!(loaded.sfa.accepts(b"abab"));
//! assert!(!loaded.sfa.accepts(b"aba"));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod cache;
mod file;
mod format;
mod load;

pub use cache::{CacheKey, CompileCache};
pub use file::ArtifactFile;
pub use format::{
    checksum, fnv1a, ArtifactSource, FLAG_COLLAPSED, FLAG_CONVERGENCE, FLAG_PREMULTIPLIED,
    FORMAT_VERSION, HEADER_LEN, MAGIC,
};
pub use load::{load, LoadedArtifact};

use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Why an artifact failed to load. Every failure is typed and closed: a
/// bad artifact yields an error, never a panic and never a wrong-answer
/// automaton.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The artifact was written by a different format version.
    VersionMismatch {
        /// The version stored in the artifact header.
        found: u32,
        /// The version this build reads ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// The artifact is structurally invalid — truncated, checksum
    /// mismatch, or an out-of-range table entry.
    Corrupt {
        /// Byte offset of the section that failed validation.
        offset: usize,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The artifact file could not be read.
    Io(std::io::Error),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::VersionMismatch { found, supported } => {
                write!(f, "artifact format version {found} (this build reads {supported})")
            }
            ArtifactError::Corrupt { offset, reason } => {
                write!(f, "corrupt artifact at byte {offset}: {reason}")
            }
            ArtifactError::Io(err) => write!(f, "artifact io error: {err}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(err: std::io::Error) -> ArtifactError {
        ArtifactError::Io(err)
    }
}

/// Memory-maps `path` and loads the artifact zero-copy: the returned
/// automaton's tables point into the mapping, which stays alive for as
/// long as any clone of the loaded SFA does.
pub fn load_file(path: impl AsRef<Path>) -> Result<LoadedArtifact, ArtifactError> {
    let file = ArtifactFile::open(path)?;
    load(Arc::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_analysis::ConvergenceReport;
    use sfa_automata::{minimal_dfa_from_pattern, Dfa};
    use sfa_core::{DSfa, SfaConfig, StateIdRepr};

    fn encode(pattern: &str, config: &SfaConfig, convergence: bool) -> (Vec<u8>, Dfa, DSfa) {
        let dfa = minimal_dfa_from_pattern(pattern).unwrap();
        let sfa = DSfa::from_dfa(&dfa, config).unwrap();
        let summary = convergence.then(|| ConvergenceReport::analyze(&dfa).summary());
        let bytes = ArtifactSource {
            pattern,
            mode: 2,
            collapsed: true,
            nfa_states: 17,
            dfa: &dfa,
            sfa: &sfa,
            decided_verdict: &dfa.verdict_decided_states(),
            decided_accept: &dfa.accept_set_decided_states(),
            convergence: summary.as_ref(),
        }
        .encode_to_vec();
        (bytes, dfa, sfa)
    }

    #[test]
    fn round_trip_preserves_metadata_and_verdicts() {
        for premultiply in [false, true] {
            let config = SfaConfig { premultiply, ..SfaConfig::default() };
            let (bytes, dfa, sfa) = encode("(?s).*ab(c|d)", &config, true);
            let loaded = load(Arc::new(bytes)).unwrap();

            assert_eq!(loaded.pattern, "(?s).*ab(c|d)");
            assert_eq!(loaded.mode, 2);
            assert!(loaded.collapsed);
            assert_eq!(loaded.nfa_states, 17);
            assert_eq!(loaded.dfa.num_states(), dfa.num_states());
            assert_eq!(loaded.dfa.start(), dfa.start());
            assert_eq!(loaded.sfa.num_states(), sfa.num_states());
            assert_eq!(loaded.sfa.premultiplied(), premultiply);
            assert_eq!(loaded.decided_verdict, dfa.verdict_decided_states());
            assert_eq!(loaded.decided_accept, dfa.accept_set_decided_states());
            let summary = loaded.convergence.expect("summary was encoded");
            assert_eq!(summary, ConvergenceReport::analyze(&dfa).summary());

            for input in ["", "ab", "abc", "abd", "xxabcxxabd", "abe"] {
                assert_eq!(
                    loaded.sfa.accepts(input.as_bytes()),
                    sfa.accepts(input.as_bytes()),
                    "verdict diverged on {input:?}"
                );
                assert_eq!(loaded.dfa.accepts(input.as_bytes()), dfa.accepts(input.as_bytes()));
            }
        }
    }

    #[test]
    fn file_round_trip_via_mmap() {
        let (bytes, _, sfa) = encode("a(b|c)+", &SfaConfig::default(), false);
        let dir = std::env::temp_dir().join(format!("sfa-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.sfa");
        std::fs::write(&path, &bytes).unwrap();

        let file = ArtifactFile::open(&path).unwrap();
        assert_eq!(file.as_ref(), &bytes[..]);
        let loaded = load_file(&path).unwrap();
        assert_eq!(loaded.sfa.artifact_bytes(), Some(bytes.len()));
        assert_eq!(
            loaded.sfa.table_bytes() + loaded.sfa.byte_table_bytes(),
            sfa.table_bytes() + sfa.byte_table_bytes()
        );
        assert!(loaded.sfa.accepts(b"abcbc"));
        assert!(!loaded.sfa.accepts(b"a"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifacts_fail_closed_with_typed_errors() {
        let (bytes, _, _) = encode("(ab)*", &SfaConfig::default(), true);

        // Pristine loads.
        assert!(load(Arc::new(bytes.clone())).is_ok());

        // Truncation at every prefix length fails, never panics.
        for len in 0..bytes.len() {
            let err = load(Arc::new(bytes[..len].to_vec())).unwrap_err();
            assert!(
                matches!(err, ArtifactError::Corrupt { .. }),
                "truncation to {len} bytes gave {err:?}"
            );
        }

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        match load(Arc::new(bad)).unwrap_err() {
            ArtifactError::Corrupt { offset: 0, reason } => assert!(reason.contains("magic")),
            other => panic!("expected bad-magic Corrupt, got {other:?}"),
        }

        // Future format version.
        let mut bad = bytes.clone();
        bad[8] = 9;
        match load(Arc::new(bad)).unwrap_err() {
            ArtifactError::VersionMismatch { found: 9, supported } => {
                assert_eq!(supported, FORMAT_VERSION)
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }

        // A bit flip anywhere in the payload trips the checksum.
        for at in [HEADER_LEN, HEADER_LEN + 40, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            match load(Arc::new(bad)).unwrap_err() {
                ArtifactError::Corrupt { offset: 24, reason } => {
                    assert!(reason.contains("checksum"), "{reason}")
                }
                other => panic!("flip at {at}: expected checksum Corrupt, got {other:?}"),
            }
        }

        // An out-of-range state id with a *recomputed* checksum (a hostile
        // or toolchain-bug artifact) is still rejected by validation.
        let mut bad = bytes.clone();
        let payload_start = HEADER_LEN;
        // Find the SFA table by corrupting a known section instead:
        // clobber the DFA start state in the metadata block.
        let pattern_len = u32::from_le_bytes(bad[40..44].try_into().unwrap()) as usize;
        let meta_at = (44 + pattern_len).next_multiple_of(8);
        bad[meta_at + 4..meta_at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = checksum(&bad[payload_start..]);
        bad[24..32].copy_from_slice(&sum.to_le_bytes());
        match load(Arc::new(bad)).unwrap_err() {
            ArtifactError::Corrupt { reason, .. } => {
                assert!(reason.contains("out of range"), "{reason}")
            }
            other => panic!("expected out-of-range Corrupt, got {other:?}"),
        }

        // Empty buffer.
        assert!(matches!(
            load(Arc::new(Vec::new())).unwrap_err(),
            ArtifactError::Corrupt { offset: 0, .. }
        ));
    }

    #[test]
    fn forced_reprs_round_trip() {
        for repr in [StateIdRepr::U8, StateIdRepr::U16, StateIdRepr::U32] {
            for premultiply in [false, true] {
                let config = SfaConfig { premultiply, repr: Some(repr), ..SfaConfig::default() };
                let (bytes, _, sfa) = encode("a{2,4}b?", &config, false);
                let loaded = load(Arc::new(bytes)).unwrap();
                assert_eq!(loaded.sfa.repr(), repr);
                for input in ["", "aa", "aaab", "aaaaa", "ab"] {
                    assert_eq!(loaded.sfa.accepts(input.as_bytes()), sfa.accepts(input.as_bytes()));
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfa_automata::{determinize, minimize, Dfa, DfaConfig, Nfa};
    use sfa_core::{DSfa, SfaConfig, StateIdRepr};
    use sfa_regex_syntax::generator::{AstGenerator, GeneratorConfig};
    use sfa_regex_syntax::ByteSet;

    fn random_small_dfa(seed: u64) -> Option<Dfa> {
        let mut rng = StdRng::seed_from_u64(seed);
        let generator = AstGenerator::with_config(GeneratorConfig {
            max_depth: 3,
            max_width: 3,
            max_repeat: 3,
            alphabet: ByteSet::range(b'a', b'd'),
            repeat_bias: 0.35,
        });
        let ast = generator.generate(&mut rng);
        let nfa = Nfa::from_ast(&ast).ok()?;
        let dfa = determinize(&nfa, &DfaConfig { max_states: 300, ..Default::default() }).ok()?;
        Some(minimize(&dfa))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Encode → load round trip is verdict-exact: for random minimized
        /// DFAs across every state-id width and both byte-table modes, the
        /// loaded automaton agrees with the in-memory original on final
        /// states, verdicts, and chunk composition.
        #[test]
        fn round_trip_is_verdict_exact(
            seed in any::<u64>(),
            inputs in prop::collection::vec("[a-d]{0,24}", 1..5),
            premultiply in any::<bool>(),
            width in 0usize..3,
        ) {
            let Some(dfa) = random_small_dfa(seed) else { return Ok(()) };
            let repr = [StateIdRepr::U8, StateIdRepr::U16, StateIdRepr::U32][width];
            let config = SfaConfig { max_states: 200_000, premultiply, repr: Some(repr) };
            let Ok(sfa) = DSfa::from_dfa(&dfa, &config) else { return Ok(()) };
            let bytes = ArtifactSource {
                pattern: "<proptest>",
                mode: 0,
                collapsed: false,
                nfa_states: 0,
                dfa: &dfa,
                sfa: &sfa,
                decided_verdict: &dfa.verdict_decided_states(),
                decided_accept: &dfa.accept_set_decided_states(),
                convergence: None,
            }
            .encode_to_vec();
            let loaded = load(std::sync::Arc::new(bytes)).expect("pristine artifact loads");
            prop_assert_eq!(loaded.sfa.num_states(), sfa.num_states());

            for input in &inputs {
                let bytes = input.as_bytes();
                let (own, brw) = (sfa.run(bytes), loaded.sfa.run(bytes));
                prop_assert_eq!(own, brw, "final state diverged on {:?}", input);
                prop_assert_eq!(sfa.accepts(bytes), loaded.sfa.accepts(bytes));
                prop_assert_eq!(
                    sfa.accepting_patterns(own).patterns(),
                    loaded.sfa.accepting_patterns(brw).patterns()
                );
                // Theorem 3 on the loaded automaton: split, scan halves,
                // compose — same verdict as the sequential run.
                let cut = bytes.len() / 2;
                let f1 = loaded.sfa.run(&bytes[..cut]);
                let f2 = loaded.sfa.run(&bytes[cut..]);
                prop_assert_eq!(loaded.sfa.compose_states(f1, f2), own);
            }
        }

        /// Random single-byte corruption either fails closed or (when the
        /// flip cancels in the checksum — essentially never) still loads a
        /// valid automaton. It must not panic.
        #[test]
        fn corruption_never_panics(seed in any::<u64>(), at in any::<prop::sample::Index>(), flip in 1u8..255) {
            let Some(dfa) = random_small_dfa(seed) else { return Ok(()) };
            let Ok(sfa) = DSfa::from_dfa(&dfa, &SfaConfig { max_states: 200_000, ..SfaConfig::default() }) else { return Ok(()) };
            let mut bytes = ArtifactSource {
                pattern: "<proptest>",
                mode: 0,
                collapsed: false,
                nfa_states: 0,
                dfa: &dfa,
                sfa: &sfa,
                decided_verdict: &dfa.verdict_decided_states(),
                decided_accept: &dfa.accept_set_decided_states(),
                convergence: None,
            }
            .encode_to_vec();
            let at = at.index(bytes.len());
            bytes[at] ^= flip;
            let _ = load(std::sync::Arc::new(bytes));
        }
    }
}
