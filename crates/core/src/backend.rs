//! The pluggable D-SFA backend abstraction.
//!
//! Everything above `sfa-core` — the chunk scanners, the parallel and
//! streaming matchers, the `Regex` facade — needs only a small surface
//! from the automaton: run a chunk from a state, test acceptance, detect
//! sinks, compose states, report sizes. [`SfaBackend`] captures that
//! surface over the two representations this crate provides:
//!
//! * **Eager** ([`DSfa`]) — the full correspondence construction
//!   (Algorithm 4): every reachable transformation materialized and
//!   premultiplied up front. Fastest per byte (a dense table lookup), but
//!   construction is `O(|S_d|)` in time and memory and *fails* on the
//!   explosion families of Section VII. An automaton loaded from a
//!   serialized artifact is eager too: [`DSfa::from_parts`] validates the
//!   artifact's table sections and reads them in place, so it runs every
//!   scan kernel a freshly built one does.
//! * **Lazy** ([`LazyDSfa`]) — the on-the-fly construction (Section V-A):
//!   states materialize only when an input actually reaches them, "at
//!   most n states for input text of length n even if the number of
//!   states in DFA explodes". Pays a read-lock and a class indirection on
//!   the hot path, but makes every pattern *feasible*.
//!
//! Dispatch is a two-arm enum rather than a trait object: the matcher
//! layer stays object-free and monomorphization-free (one `Regex` type,
//! not `Regex<B>`), and the branch predicts perfectly since a given
//! matcher only ever holds one variant.

use crate::dsfa::{DSfa, SfaStateId, StateIdRepr};
use crate::lazy::LazyDSfa;
use crate::mapping::Transformation;
use sfa_automata::{PatternSet, StateId};

/// Which D-SFA representation a backend uses. See the
/// [module docs](self) for the trade-off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Fully materialized, premultiplied tables (Algorithm 4).
    Eager,
    /// On-the-fly construction (Section V-A): states materialize as
    /// inputs visit them.
    Lazy,
}

impl BackendKind {
    /// The kind's name, used in the JSON size report.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Eager => "Eager",
            BackendKind::Lazy => "Lazy",
        }
    }

    /// Parses a kind name produced by [`BackendKind::as_str`].
    pub fn parse(s: &str) -> Option<BackendKind> {
        Some(match s {
            "Eager" => BackendKind::Eager,
            "Lazy" => BackendKind::Lazy,
            _ => return None,
        })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A D-SFA behind one of the two representations, exposing exactly the
/// operations the matcher layer needs. See the [module docs](self).
#[derive(Clone, Debug)]
pub enum SfaBackend {
    /// The eager, fully materialized [`DSfa`] — built in memory or loaded
    /// from an artifact.
    Eager(DSfa),
    /// The on-the-fly [`LazyDSfa`].
    Lazy(LazyDSfa),
}

impl From<DSfa> for SfaBackend {
    fn from(sfa: DSfa) -> SfaBackend {
        SfaBackend::Eager(sfa)
    }
}

impl From<LazyDSfa> for SfaBackend {
    fn from(sfa: LazyDSfa) -> SfaBackend {
        SfaBackend::Lazy(sfa)
    }
}

impl SfaBackend {
    /// Which representation this backend uses.
    pub fn kind(&self) -> BackendKind {
        match self {
            SfaBackend::Eager(_) => BackendKind::Eager,
            SfaBackend::Lazy(_) => BackendKind::Lazy,
        }
    }

    /// The eager automaton, when this backend is eager.
    pub fn eager(&self) -> Option<&DSfa> {
        match self {
            SfaBackend::Eager(sfa) => Some(sfa),
            _ => None,
        }
    }

    /// The lazy automaton, when this backend is lazy.
    pub fn lazy(&self) -> Option<&LazyDSfa> {
        match self {
            SfaBackend::Lazy(sfa) => Some(sfa),
            _ => None,
        }
    }

    /// The initial state (always the identity mapping `f_I`).
    #[inline]
    pub fn initial(&self) -> SfaStateId {
        match self {
            SfaBackend::Eager(sfa) => sfa.initial(),
            SfaBackend::Lazy(sfa) => sfa.initial(),
        }
    }

    /// Transition on a byte, constructing the target on demand for lazy
    /// backends.
    #[inline]
    pub fn next_state(&self, state: SfaStateId, byte: u8) -> SfaStateId {
        match self {
            SfaBackend::Eager(sfa) => sfa.next_state(state, byte),
            SfaBackend::Lazy(sfa) => sfa.next_state(state, byte),
        }
    }

    /// Runs the SFA over `input` from the identity state (the chunk phase
    /// of Algorithm 5 for one chunk).
    pub fn run(&self, input: &[u8]) -> SfaStateId {
        match self {
            SfaBackend::Eager(sfa) => sfa.run(input),
            SfaBackend::Lazy(sfa) => sfa.run(input),
        }
    }

    /// Runs the SFA over `input` from an arbitrary state, with the
    /// backend's sink early-exit.
    pub fn run_from(&self, state: SfaStateId, input: &[u8]) -> SfaStateId {
        match self {
            SfaBackend::Eager(sfa) => sfa.run_from(state, input),
            SfaBackend::Lazy(sfa) => sfa.run_from(state, input),
        }
    }

    /// Runs several independent `(state, input)` jobs, in job order.
    ///
    /// On an eager premultiplied backend this walks
    /// [`crate::dsfa::INTERLEAVE_LANES`] jobs in lockstep to hide
    /// table-load latency (see [`DSfa::run_from_many`]); on a lazy
    /// backend the jobs run one by one — interleaving would multiply
    /// read-lock traffic on the shared cache without overlapping any
    /// table loads.
    pub fn run_from_many(&self, jobs: &[(SfaStateId, &[u8])]) -> Vec<SfaStateId> {
        match self {
            SfaBackend::Eager(sfa) => sfa.run_from_many(jobs),
            SfaBackend::Lazy(sfa) => {
                jobs.iter().map(|&(s, input)| sfa.run_from(s, input)).collect()
            }
        }
    }

    /// Whole-input membership using the SFA alone.
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.is_accepting(self.run(input))
    }

    /// Returns true if the SFA state is accepting
    /// (`F_s = { f | f(q_0) ∈ F_D }`).
    #[inline]
    pub fn is_accepting(&self, state: SfaStateId) -> bool {
        match self {
            SfaBackend::Eager(sfa) => sfa.is_accepting(state),
            SfaBackend::Lazy(sfa) => sfa.is_accepting(state),
        }
    }

    /// True when the mapping carried by `state` can never change again —
    /// matchers stop scanning and streams saturate on such states.
    #[inline]
    pub fn is_sink(&self, state: SfaStateId) -> bool {
        match self {
            SfaBackend::Eager(sfa) => sfa.is_sink(state),
            SfaBackend::Lazy(sfa) => sfa.is_sink(state),
        }
    }

    /// Composes two SFA states *as states* (`f_w ⋄ f_v = f_wv`, Lemma 1).
    /// On the lazy backend the composite is interned — it may materialize
    /// a state no input has walked to yet.
    pub fn compose_states(&self, a: SfaStateId, b: SfaStateId) -> SfaStateId {
        match self {
            SfaBackend::Eager(sfa) => sfa.compose_states(a, b),
            SfaBackend::Lazy(sfa) => sfa.compose_states(a, b),
        }
    }

    /// The mapping carried by a state, cloned out of the backend (lazy
    /// backends cannot hand out references into their locked cache).
    pub fn mapping(&self, state: SfaStateId) -> Transformation {
        match self {
            SfaBackend::Eager(sfa) => sfa.mapping(state),
            SfaBackend::Lazy(sfa) => sfa.mapping(state),
        }
    }

    /// Applies the mapping of `state` to one DFA state — the sequential
    /// reduction's `f(q)` lookup, clone-free on both backends.
    #[inline]
    pub fn apply(&self, state: SfaStateId, q: StateId) -> StateId {
        match self {
            SfaBackend::Eager(sfa) => sfa.apply(state, q),
            SfaBackend::Lazy(sfa) => sfa.apply(state, q),
        }
    }

    /// Looks up the SFA state of a transformation, if materialized (lazy)
    /// / reachable (eager).
    pub fn state_of(&self, mapping: &Transformation) -> Option<SfaStateId> {
        match self {
            SfaBackend::Eager(sfa) => sfa.state_of(mapping),
            SfaBackend::Lazy(sfa) => sfa.state_of(mapping),
        }
    }

    /// The start state of the source DFA.
    #[inline]
    pub fn dfa_start(&self) -> StateId {
        match self {
            SfaBackend::Eager(sfa) => sfa.dfa_start(),
            SfaBackend::Lazy(sfa) => sfa.dfa_start(),
        }
    }

    /// Returns true if the DFA state is accepting (used by reductions).
    #[inline]
    pub fn dfa_is_accepting(&self, q: StateId) -> bool {
        match self {
            SfaBackend::Eager(sfa) => sfa.dfa_is_accepting(q),
            SfaBackend::Lazy(sfa) => sfa.dfa_is_accepting(q),
        }
    }

    /// Number of original patterns compiled into the source DFA (1 for
    /// single-pattern automata, 0 for an empty pattern set).
    #[inline]
    pub fn pattern_count(&self) -> usize {
        match self {
            SfaBackend::Eager(sfa) => sfa.pattern_count(),
            SfaBackend::Lazy(sfa) => sfa.pattern_count(),
        }
    }

    /// The set of patterns a source-DFA state accepts — how a reduction's
    /// final DFA state turns into the per-rule verdict.
    #[inline]
    pub fn dfa_accepting_patterns(&self, q: StateId) -> &PatternSet {
        match self {
            SfaBackend::Eager(sfa) => sfa.dfa_accepting_patterns(q),
            SfaBackend::Lazy(sfa) => sfa.dfa_accepting_patterns(q),
        }
    }

    /// The set of patterns matched when the whole input lands in `state`
    /// (the accept set of `f(q_0)`) — the multi-pattern refinement of
    /// [`is_accepting`](SfaBackend::is_accepting), identical across both
    /// backends. Streaming matchers read their per-rule verdict here.
    #[inline]
    pub fn accepting_patterns(&self, state: SfaStateId) -> &PatternSet {
        match self {
            SfaBackend::Eager(sfa) => sfa.accepting_patterns(state),
            SfaBackend::Lazy(sfa) => sfa.accepting_patterns(state),
        }
    }

    /// Number of *materialized* SFA states: the full `|S_d|` for an eager
    /// backend, the states visited so far for a lazy one (a live count
    /// that grows as inputs explore the automaton).
    pub fn num_states(&self) -> usize {
        match self {
            SfaBackend::Eager(sfa) => sfa.num_states(),
            SfaBackend::Lazy(sfa) => sfa.num_states_constructed(),
        }
    }

    /// Number of states of the source DFA.
    #[inline]
    pub fn num_dfa_states(&self) -> usize {
        match self {
            SfaBackend::Eager(sfa) => sfa.num_dfa_states(),
            SfaBackend::Lazy(sfa) => sfa.num_dfa_states(),
        }
    }

    /// Number of byte classes (row width of the transition table).
    #[inline]
    pub fn num_classes(&self) -> usize {
        match self {
            SfaBackend::Eager(sfa) => sfa.num_classes(),
            SfaBackend::Lazy(sfa) => sfa.num_classes(),
        }
    }

    /// Bytes occupied by the (materialized) class-compressed transition
    /// rows.
    pub fn table_bytes(&self) -> usize {
        match self {
            SfaBackend::Eager(sfa) => sfa.table_bytes(),
            SfaBackend::Lazy(sfa) => sfa.table_bytes(),
        }
    }

    /// Bytes occupied by the premultiplied dense byte table (eager only;
    /// always 0 for lazy backends, which never premultiply).
    pub fn byte_table_bytes(&self) -> usize {
        match self {
            SfaBackend::Eager(sfa) => sfa.byte_table_bytes(),
            SfaBackend::Lazy(_) => 0,
        }
    }

    /// Bytes occupied by the (materialized) state mappings.
    pub fn mapping_bytes(&self) -> usize {
        match self {
            SfaBackend::Eager(sfa) => sfa.mapping_bytes(),
            SfaBackend::Lazy(sfa) => sfa.mapping_bytes(),
        }
    }

    /// True when the eager backend built its premultiplied byte table
    /// (see [`crate::SfaConfig::premultiply`]); always false for lazy.
    pub fn premultiplied(&self) -> bool {
        match self {
            SfaBackend::Eager(sfa) => sfa.premultiplied(),
            SfaBackend::Lazy(_) => false,
        }
    }

    /// The packed width the backend's transition tables store state ids
    /// at. Lazy backends always report [`StateIdRepr::U32`]: their cache
    /// grows while matcher threads hold ids, so it cannot be repacked
    /// (see [`crate::SfaConfig::repr`]).
    pub fn repr(&self) -> StateIdRepr {
        match self {
            SfaBackend::Eager(sfa) => sfa.repr(),
            SfaBackend::Lazy(_) => StateIdRepr::U32,
        }
    }

    /// Bytes per stored state id (1, 2 or 4) — `repr().bytes()`.
    pub fn state_id_bytes(&self) -> usize {
        self.repr().bytes()
    }

    /// Name of the transition kernel this backend's scans dispatch to
    /// (`"shuffle"` / `"gather"` / `"scalar"` — see
    /// [`DSfa::scan_kernel`]). Lazy backends always scan scalar: their
    /// transitions materialize behind a lock, so there is no dense table
    /// to vectorize over.
    pub fn scan_kernel(&self) -> &'static str {
        match self {
            SfaBackend::Eager(sfa) => sfa.scan_kernel(),
            SfaBackend::Lazy(_) => "scalar",
        }
    }

    /// How many interleaved sub-chunks a worker should drive through one
    /// batched scan of a single large haystack (see
    /// [`DSfa::preferred_lanes`]). Lazy backends report 1 — their batch
    /// path runs jobs one by one, so splitting a chunk would only add
    /// composition work.
    pub fn preferred_lanes(&self) -> usize {
        match self {
            SfaBackend::Eager(sfa) => sfa.preferred_lanes(),
            SfaBackend::Lazy(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SfaConfig;

    fn both(pattern: &str) -> (SfaBackend, SfaBackend) {
        let dfa = sfa_automata::minimal_dfa_from_pattern(pattern).unwrap();
        let eager = SfaBackend::from(DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap());
        let lazy = SfaBackend::from(LazyDSfa::new(dfa));
        (eager, lazy)
    }

    #[test]
    fn kinds_and_accessors() {
        let (eager, lazy) = both("(ab)*");
        assert_eq!(eager.kind(), BackendKind::Eager);
        assert_eq!(lazy.kind(), BackendKind::Lazy);
        assert!(eager.eager().is_some() && eager.lazy().is_none());
        assert!(lazy.lazy().is_some() && lazy.eager().is_none());
        assert_eq!(BackendKind::parse("Eager"), Some(BackendKind::Eager));
        assert_eq!(BackendKind::parse("Lazy"), Some(BackendKind::Lazy));
        assert_eq!(BackendKind::parse("???"), None);
        assert_eq!(BackendKind::Lazy.to_string(), "Lazy");
    }

    #[test]
    fn backends_agree_on_the_full_surface() {
        for pattern in ["(ab)*", "([0-4]{2}[5-9]{2})*", "(a|b)*abb", "a|bc|d"] {
            let (eager, lazy) = both(pattern);
            assert_eq!(eager.num_dfa_states(), lazy.num_dfa_states());
            assert_eq!(eager.num_classes(), lazy.num_classes());
            assert_eq!(eager.dfa_start(), lazy.dfa_start());
            for input in [&b""[..], b"ab", b"abab", b"abb", b"0055", b"bc", b"zz"] {
                let fe = eager.run(input);
                let fl = lazy.run(input);
                assert_eq!(eager.is_accepting(fe), lazy.is_accepting(fl), "{pattern} {input:?}");
                assert_eq!(eager.is_sink(fe), lazy.is_sink(fl));
                assert_eq!(eager.accepts(input), lazy.accepts(input));
                assert_eq!(eager.mapping(fe), lazy.mapping(fl));
                for q in 0..eager.num_dfa_states() as StateId {
                    assert_eq!(eager.apply(fe, q), lazy.apply(fl, q));
                }
            }
            // compose_states agrees through the mapping level.
            let (ae, al) = (eager.run(b"ab"), lazy.run(b"ab"));
            let (be, bl) = (eager.run(b"ba"), lazy.run(b"ba"));
            assert_eq!(
                eager.mapping(eager.compose_states(ae, be)),
                lazy.mapping(lazy.compose_states(al, bl)),
                "{pattern}"
            );
        }
    }

    #[test]
    fn accepting_patterns_dispatch_identically() {
        use sfa_automata::{determinize, minimize, DfaConfig, Nfa};
        let nfa = Nfa::from_patterns(["(ab)*", "a+"]).unwrap();
        let dfa = minimize(&determinize(&nfa, &DfaConfig::default()).unwrap());
        let eager = SfaBackend::from(DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap());
        let lazy = SfaBackend::from(LazyDSfa::new(dfa.clone()));
        assert_eq!(eager.pattern_count(), 2);
        assert_eq!(lazy.pattern_count(), 2);
        for input in [&b""[..], b"a", b"ab", b"aa", b"abab", b"zz"] {
            let pe = eager.accepting_patterns(eager.run(input));
            let pl = lazy.accepting_patterns(lazy.run(input));
            assert_eq!(pe, pl, "input {:?}", input);
            assert_eq!(pe, dfa.matching_patterns(input));
            assert_eq!(eager.dfa_accepting_patterns(dfa.run(input)), pe);
            assert_eq!(lazy.dfa_accepting_patterns(dfa.run(input)), pl);
        }
    }

    #[test]
    fn repr_and_run_from_many_dispatch() {
        let (eager, lazy) = both("([0-4]{2}[5-9]{2})*");
        // 110 SFA states pack to one byte on the eager side; the lazy
        // cache always stays at the full interface width.
        assert_eq!(eager.repr(), StateIdRepr::U8);
        assert_eq!(eager.state_id_bytes(), 1);
        assert_eq!(lazy.repr(), StateIdRepr::U32);
        assert_eq!(lazy.state_id_bytes(), 4);
        let long = b"00550459".repeat(50);
        let jobs: Vec<(SfaStateId, &[u8])> = vec![
            (eager.initial(), &long[..]),
            (eager.initial(), b"0055"),
            (eager.initial(), b"zz"),
            (eager.initial(), &long[..13]),
            (eager.initial(), b""),
        ];
        for backend in [&eager, &lazy] {
            let expected: Vec<SfaStateId> =
                jobs.iter().map(|&(s, input)| backend.run_from(s, input)).collect();
            assert_eq!(backend.run_from_many(&jobs), expected, "{:?}", backend.kind());
        }
    }

    #[test]
    fn size_reporting_reflects_materialization() {
        let (eager, lazy) = both("([0-4]{2}[5-9]{2})*");
        assert_eq!(lazy.num_states(), 1, "fresh lazy backend: identity only");
        assert!(eager.num_states() > 1);
        lazy.run(b"00550459");
        assert!(lazy.num_states() > 1);
        assert!(lazy.num_states() <= eager.num_states());
        // The eager table packs to u8 here while the lazy cache stays u32,
        // so compare the lazy footprint against the eager table widened
        // back to the interface width.
        assert_eq!(eager.state_id_bytes(), 1);
        assert!(lazy.table_bytes() <= eager.table_bytes() * (4 / eager.state_id_bytes()));
        assert!(lazy.mapping_bytes() <= eager.mapping_bytes());
        assert_eq!(lazy.byte_table_bytes(), 0);
        assert!(!lazy.premultiplied());
        assert!(eager.premultiplied());
    }
}
