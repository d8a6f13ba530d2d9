//! # sfa-automata
//!
//! Classical finite automata for the SFA pipeline: NFA construction from a
//! regular-expression AST, subset construction (Algorithm 1 of the paper),
//! dense DFAs with byte-class–compressed transition tables, Hopcroft
//! minimization, the sequential matcher (Algorithm 2), language-equivalence
//! checking, accepted-word sampling and Graphviz export.
//!
//! The crate implements the first three stages of the paper's matcher:
//!
//! ```text
//! pattern ──▶ NFA ──(Algorithm 1)──▶ DFA ──(Hopcroft)──▶ minimal DFA
//! ```
//!
//! The fourth stage (the correspondence construction that produces the SFA)
//! lives in `sfa-core`, and the parallel matchers live in `sfa-matcher`.
//!
//! ## Example
//!
//! ```
//! use sfa_automata::pipeline::Pipeline;
//!
//! let pipeline = Pipeline::default();
//! let dfa = pipeline.minimal_dfa("([0-4]{2}[5-9]{2})*").unwrap();
//! assert!(dfa.accepts(b"0055"));
//! assert!(!dfa.accepts(b"5500"));
//! assert_eq!(dfa.num_live_states(), 4); // |D| = 2n for r_n
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod byteclass;
pub mod determinize;
pub mod dfa;
pub mod dot;
pub mod equivalence;
pub mod error;
pub mod minimize;
pub mod nfa;
pub mod pattern;
pub mod sample;
pub mod stateset;

pub use byteclass::ByteClasses;
pub use determinize::{determinize, dfa_from_pattern, DfaConfig};
pub use dfa::{Dfa, DFA_LANES};
pub use error::CompileError;
pub use minimize::{minimal_dfa_from_pattern, minimize};
pub use nfa::{Nfa, NfaState, StateId};
pub use pattern::{PatternId, PatternSet};
pub use sample::{sample_accepted, DfaSampler};
pub use stateset::StateSet;

/// End-to-end construction helpers.
pub mod pipeline {
    use crate::determinize::{determinize, DfaConfig};
    use crate::dfa::Dfa;
    use crate::error::CompileError;
    use crate::minimize::minimize;
    use crate::nfa::Nfa;
    use sfa_regex_syntax::ast::Ast;
    use sfa_regex_syntax::Parser;

    /// Bundles the parser and DFA configuration for the
    /// pattern → NFA → DFA → minimal-DFA pipeline.
    #[derive(Clone, Debug, Default)]
    pub struct Pipeline {
        /// The regular-expression parser (syntax flags).
        pub parser: Parser,
        /// Determinization limits and alphabet compression.
        pub dfa_config: DfaConfig,
    }

    impl Pipeline {
        /// Creates a pipeline with explicit parser and DFA configuration.
        pub fn new(parser: Parser, dfa_config: DfaConfig) -> Pipeline {
            Pipeline { parser, dfa_config }
        }

        /// Parses a pattern into an AST.
        pub fn ast(&self, pattern: &str) -> Result<Ast, CompileError> {
            Ok(self.parser.parse(pattern)?)
        }

        /// Pattern → NFA.
        pub fn nfa(&self, pattern: &str) -> Result<Nfa, CompileError> {
            Nfa::from_ast(&self.ast(pattern)?)
        }

        /// Pattern → DFA (subset construction, not minimized).
        pub fn dfa(&self, pattern: &str) -> Result<Dfa, CompileError> {
            determinize(&self.nfa(pattern)?, &self.dfa_config)
        }

        /// Pattern → minimal DFA.
        pub fn minimal_dfa(&self, pattern: &str) -> Result<Dfa, CompileError> {
            Ok(minimize(&self.dfa(pattern)?))
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfa_regex_syntax::ast::Ast;
    use sfa_regex_syntax::class::perl;
    use sfa_regex_syntax::generator::{sample_match, AstGenerator, GeneratorConfig};
    use sfa_regex_syntax::ByteSet;

    fn small_generator() -> AstGenerator {
        AstGenerator::with_config(GeneratorConfig {
            max_depth: 3,
            max_width: 3,
            max_repeat: 4,
            alphabet: ByteSet::range(b'a', b'e'),
            repeat_bias: 0.3,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The DFA accepts exactly the words the NFA accepts, on random
        /// patterns × random inputs over the same small alphabet.
        #[test]
        fn dfa_equals_nfa_semantics(seed in any::<u64>(), inputs in prop::collection::vec("[a-e]{0,12}", 1..8)) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let nfa = match Nfa::from_ast(&ast) { Ok(n) => n, Err(_) => return Ok(()) };
            let dfa = match determinize(&nfa, &DfaConfig::default()) { Ok(d) => d, Err(_) => return Ok(()) };
            prop_assert_eq!(dfa.validate(), Ok(()));
            for input in &inputs {
                prop_assert_eq!(nfa.accepts(input.as_bytes()), dfa.accepts(input.as_bytes()));
            }
        }

        /// Minimization preserves the language (checked by product
        /// equivalence) and never increases the number of states.
        #[test]
        fn minimization_sound(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let dfa = match Nfa::from_ast(&ast).and_then(|n| determinize(&n, &DfaConfig::default())) {
                Ok(d) => d,
                Err(_) => return Ok(()),
            };
            let minimal = minimize(&dfa);
            prop_assert_eq!(minimal.validate(), Ok(()));
            prop_assert!(minimal.num_states() <= dfa.num_states());
            prop_assert!(equivalence::equivalent(&dfa, &minimal));
            // Idempotence.
            let again = minimize(&minimal);
            prop_assert_eq!(again.num_states(), minimal.num_states());
        }

        /// Strings sampled from the AST are accepted by the DFA built from
        /// the same AST, and strings sampled from the DFA are accepted by
        /// the NFA: the two samplers and the two semantics agree.
        #[test]
        fn samplers_agree_with_semantics(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let nfa = match Nfa::from_ast(&ast) { Ok(n) => n, Err(_) => return Ok(()) };
            let dfa = match determinize(&nfa, &DfaConfig::default()) { Ok(d) => d, Err(_) => return Ok(()) };
            if let Some(w) = sample_match(&ast, &mut rng) {
                prop_assert!(dfa.accepts(&w), "AST sample {:?} rejected by DFA", w);
            }
            if let Ok(sampler) = DfaSampler::new(&dfa) {
                let w = sampler.sample(20, &mut rng);
                prop_assert!(nfa.accepts(&w), "DFA sample {:?} rejected by NFA", w);
            }
        }

        /// Alphabet compression does not change the language.
        #[test]
        fn byte_class_compression_is_transparent(seed in any::<u64>(), inputs in prop::collection::vec("[a-e]{0,10}", 1..6)) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let nfa = match Nfa::from_ast(&ast) { Ok(n) => n, Err(_) => return Ok(()) };
            let compressed = match determinize(&nfa, &DfaConfig { compress_alphabet: true, ..Default::default() }) {
                Ok(d) => d, Err(_) => return Ok(()),
            };
            let identity = match determinize(&nfa, &DfaConfig { compress_alphabet: false, ..Default::default() }) {
                Ok(d) => d, Err(_) => return Ok(()),
            };
            prop_assert!(equivalence::equivalent(&compressed, &identity));
            prop_assert_eq!(compressed.validate(), Ok(()));
            prop_assert_eq!(identity.validate(), Ok(()));
            for input in &inputs {
                prop_assert_eq!(compressed.accepts(input.as_bytes()), identity.accepts(input.as_bytes()));
            }
        }

        /// The lockstep batch kernel returns exactly the per-input
        /// Algorithm 2 end states, for every batch size from empty to
        /// past two full lane groups, with ragged and empty inputs, on
        /// both the raw pattern and its `Contains` form (whose accept
        /// region is a sink the kernel retires lanes on).
        #[test]
        fn run_many_equals_run_per_input(
            seed in any::<u64>(),
            inputs in prop::collection::vec("[a-e]{0,150}", 0..2 * DFA_LANES + 2),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let any = || Ast::star(Ast::Class(perl::any()));
            let contains = Ast::concat(vec![any(), ast.clone(), any()]);
            for ast in [ast, contains] {
                let dfa = match Nfa::from_ast(&ast).and_then(|n| determinize(&n, &DfaConfig::default())) {
                    Ok(d) => minimize(&d),
                    Err(_) => continue,
                };
                let inputs: Vec<&[u8]> = inputs.iter().map(|s| s.as_bytes()).collect();
                let expected: Vec<StateId> = inputs.iter().map(|h| dfa.run(h)).collect();
                prop_assert_eq!(dfa.run_many(&inputs), expected);
            }
        }
    }
}
