//! On-the-fly (lazy) D-SFA construction.
//!
//! Section V-A of the paper: "The idea of the on-the-fly construction is to
//! construct DFA during the matching only for the required states … it
//! generates at most n states for input text of length n even if the number
//! of states in DFA explodes. We can easily apply on-the-fly construction
//! to an SFA-based matcher because the correspondence construction is a
//! natural extension of the subset construction."
//!
//! [`LazyDSfa`] does exactly that for the D-SFA: states (transformations)
//! are interned and transition-table rows filled only when the matcher
//! actually reaches them. It is the second implementation of the
//! [`SfaBackend`](crate::SfaBackend) abstraction and offers the same
//! matcher-facing surface as the eager [`DSfa`](crate::DSfa): sink
//! detection for early exit, state-level composition
//! ([`compose_states`](LazyDSfa::compose_states)) for streaming, and an
//! indexed [`state_of`](LazyDSfa::state_of).
//!
//! ## Concurrency
//!
//! The structure is shareable across threads — one cache serves every pool
//! worker. The cache sits behind a read/write lock with a double-checked
//! fast path: [`run_from`](LazyDSfa::run_from) walks as many cached
//! transitions as it can under a **single** read lock (readers never
//! exclude each other, so workers scan concurrently without serializing),
//! and only a cache miss drops to the write lock, re-checking the slot
//! after acquiring it in case another worker filled it in the meantime.
//!
//! ## Knobs and limits
//!
//! Unlike the eager construction, the lazy cache enforces **no state
//! limit**: [`SfaConfig::max_states`](crate::SfaConfig::max_states) bounds
//! the *eager* construction precisely because Algorithm 4 must enumerate
//! every reachable transformation up front, while the lazy cache holds one
//! entry per transformation actually *visited* — at most one new state per
//! input byte (plus composition results), so its memory is bounded by the
//! traffic, not by `|S_d|`. [`SfaConfig::premultiply`](crate::SfaConfig)
//! is likewise eager-only: a dense 256-column table over states that may
//! never materialize would defeat the point. See the [`crate`] docs for
//! the knob/backend matrix.
//!
//! ## Why the lazy table stays `u32`
//!
//! The eager [`DSfa`](crate::DSfa) packs its table entries down to
//! `u8`/`u16` when `|S_d|` fits ([`StateIdRepr`](crate::StateIdRepr));
//! the lazy cache deliberately does **not**. Its state count is unknown
//! up front and grows concurrently while pool workers hold ids, so a
//! narrow width would have to be *re*-packed the moment the cache
//! crossed 256 (then 65 536) entries — invalidating nothing (ids are
//! stable) but requiring every reader to drain and the whole table to be
//! rewritten under the write lock, serializing exactly the workers the
//! batched read-lock design exists to keep concurrent. The cache also
//! reserves `SfaStateId::MAX` as its not-yet-computed sentinel, which a
//! packed row could not represent alongside 256 real states. Since lazy
//! table memory is bounded by visited traffic rather than `|S_d|`, the
//! 4× width costs little in practice; [`SfaConfig::repr`](crate::SfaConfig)
//! is therefore ignored here.

use crate::dsfa::SfaStateId;
use crate::mapping::Transformation;
use sfa_automata::{CompileError, Dfa, PatternSet, StateId};
use std::collections::HashMap;
use std::sync::RwLock;

/// A lazily constructed D-SFA. See the [module docs](self).
#[derive(Debug)]
pub struct LazyDSfa {
    dfa: Dfa,
    /// `loop_states[q]` is true when every transition of DFA state `q`
    /// loops back to `q`. An SFA state is a *sink* (its mapping can never
    /// change again) exactly when every state in its image is such a
    /// self-looping state — precomputing this per-DFA-state bitmap makes
    /// the per-interning sink check `O(|D|)`.
    loop_states: Box<[bool]>,
    inner: RwLock<Inner>,
}

#[derive(Debug, Clone)]
struct Inner {
    ids: HashMap<Transformation, SfaStateId>,
    mappings: Vec<Transformation>,
    /// Row-major table like the eager D-SFA, but entries may be `NONE`
    /// (not yet computed).
    table: Vec<SfaStateId>,
    accepting: Vec<bool>,
    sink: Vec<bool>,
}

const NONE: SfaStateId = SfaStateId::MAX;
const POISONED: &str = "lazy D-SFA lock poisoned";

impl Clone for LazyDSfa {
    fn clone(&self) -> LazyDSfa {
        LazyDSfa {
            dfa: self.dfa.clone(),
            loop_states: self.loop_states.clone(),
            inner: RwLock::new(self.inner.read().expect(POISONED).clone()),
        }
    }
}

impl LazyDSfa {
    /// Creates a lazy D-SFA over the given DFA. Only the identity state is
    /// materialized up front.
    pub fn new(dfa: Dfa) -> LazyDSfa {
        let n = dfa.num_states();
        let stride = dfa.num_classes();
        let loop_states: Box<[bool]> = (0..n as StateId)
            .map(|q| (0..stride as u16).all(|c| dfa.next_by_class(q, c) == q))
            .collect();
        let identity = Transformation::identity(n);
        let accepting0 = dfa.is_accepting(identity.apply(dfa.start()));
        let sink0 = loop_states.iter().all(|&l| l);
        let mut ids = HashMap::new();
        ids.insert(identity.clone(), 0);
        let inner = Inner {
            ids,
            mappings: vec![identity],
            table: vec![NONE; stride],
            accepting: vec![accepting0],
            sink: vec![sink0],
        };
        LazyDSfa { dfa, loop_states, inner: RwLock::new(inner) }
    }

    /// Convenience: pattern → minimal DFA → lazy D-SFA.
    pub fn from_pattern(pattern: &str) -> Result<LazyDSfa, CompileError> {
        let dfa = sfa_automata::minimal_dfa_from_pattern(pattern)?;
        Ok(LazyDSfa::new(dfa))
    }

    /// The underlying DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// The initial (identity) state.
    #[inline]
    pub fn initial(&self) -> SfaStateId {
        0
    }

    /// Number of SFA states materialized so far (the lazy analogue of
    /// [`DSfa::num_states`](crate::DSfa::num_states) — a lower bound on
    /// `|S_d|` that grows as inputs visit new transformations).
    pub fn num_states_constructed(&self) -> usize {
        self.inner.read().expect(POISONED).mappings.len()
    }

    /// Number of states of the source DFA.
    #[inline]
    pub fn num_dfa_states(&self) -> usize {
        self.dfa.num_states()
    }

    /// Number of byte classes (row width of the transition table).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.dfa.num_classes()
    }

    /// The start state of the source DFA.
    #[inline]
    pub fn dfa_start(&self) -> StateId {
        self.dfa.start()
    }

    /// Returns true if the DFA state is accepting (used by reductions).
    #[inline]
    pub fn dfa_is_accepting(&self, q: StateId) -> bool {
        self.dfa.is_accepting(q)
    }

    /// Number of original patterns compiled into the source DFA.
    #[inline]
    pub fn pattern_count(&self) -> usize {
        self.dfa.pattern_count()
    }

    /// The set of patterns a source-DFA state accepts (no lock needed —
    /// the accept sets live on the DFA, outside the cache).
    #[inline]
    pub fn dfa_accepting_patterns(&self, q: StateId) -> &PatternSet {
        self.dfa.accept_set(q)
    }

    /// The set of patterns matched when the whole input lands in `state`:
    /// the accept set of `f(q_0)`. Takes the read lock to apply the
    /// cached mapping, then indexes the DFA's interned accept sets.
    pub fn accepting_patterns(&self, state: SfaStateId) -> &PatternSet {
        let q = self.apply(state, self.dfa.start());
        self.dfa.accept_set(q)
    }

    /// Returns true if the given state is accepting.
    pub fn is_accepting(&self, state: SfaStateId) -> bool {
        self.inner.read().expect(POISONED).accepting[state as usize]
    }

    /// True when the mapping carried by `state` can never change again,
    /// whatever input follows (every state in its image self-loops on
    /// every byte). Matchers stop scanning early on such states.
    pub fn is_sink(&self, state: SfaStateId) -> bool {
        self.inner.read().expect(POISONED).sink[state as usize]
    }

    /// The mapping carried by a state (cloned out of the cache).
    pub fn mapping(&self, state: SfaStateId) -> Transformation {
        self.inner.read().expect(POISONED).mappings[state as usize].clone()
    }

    /// Applies the mapping of `state` to a single DFA state — the
    /// `f(q)` lookup of the sequential reduction, without cloning the
    /// mapping out of the cache.
    pub fn apply(&self, state: SfaStateId, q: StateId) -> StateId {
        self.inner.read().expect(POISONED).mappings[state as usize].apply(q)
    }

    /// Looks up the state id of an already-materialized transformation.
    ///
    /// Unlike the eager [`DSfa::state_of`](crate::DSfa::state_of) (which
    /// builds its index lazily on first use), the lazy cache's interning
    /// map *is* the index, so this is always one hash lookup.
    pub fn state_of(&self, mapping: &Transformation) -> Option<SfaStateId> {
        self.inner.read().expect(POISONED).ids.get(mapping).copied()
    }

    /// Interns a transformation, materializing a new state if the cache
    /// has not seen it yet. Must be called with the write lock held.
    fn intern_locked(&self, inner: &mut Inner, f: Transformation) -> SfaStateId {
        if let Some(&id) = inner.ids.get(&f) {
            return id;
        }
        let id = inner.mappings.len() as SfaStateId;
        let accepting = self.dfa.is_accepting(f.apply(self.dfa.start()));
        let sink = f.as_slice().iter().all(|&q| self.loop_states[q as usize]);
        inner.ids.insert(f.clone(), id);
        inner.mappings.push(f);
        inner.accepting.push(accepting);
        inner.sink.push(sink);
        inner.table.extend(std::iter::repeat_n(NONE, self.dfa.num_classes()));
        id
    }

    /// Transition on a byte, constructing the target state on demand.
    pub fn next_state(&self, state: SfaStateId, byte: u8) -> SfaStateId {
        self.next_by_class(state, self.dfa.classes().class_of(byte))
    }

    /// Transition on a byte class, constructing the target state on
    /// demand. The cached case takes only the read lock; a miss drops to
    /// the write lock and re-checks the slot (another thread may have
    /// filled it while we waited).
    pub fn next_by_class(&self, state: SfaStateId, class: u16) -> SfaStateId {
        let stride = self.dfa.num_classes();
        let idx = state as usize * stride + class as usize;
        {
            let inner = self.inner.read().expect(POISONED);
            let cached = inner.table[idx];
            if cached != NONE {
                return cached;
            }
        }
        let mut inner = self.inner.write().expect(POISONED);
        let cached = inner.table[idx];
        if cached != NONE {
            return cached;
        }
        let next = Transformation::from_vec(
            inner.mappings[state as usize]
                .as_slice()
                .iter()
                .map(|&q| self.dfa.next_by_class(q, class))
                .collect(),
        );
        let next_id = self.intern_locked(&mut inner, next);
        inner.table[idx] = next_id;
        next_id
    }

    /// Runs the lazy SFA over an input from the identity state.
    pub fn run(&self, input: &[u8]) -> SfaStateId {
        self.run_from(self.initial(), input)
    }

    /// Runs the lazy SFA over `input` from an arbitrary state (the chunk
    /// phase of Algorithm 5, per worker).
    ///
    /// The hot loop walks every already-cached transition under a single
    /// read lock — concurrent workers share the cache without excluding
    /// each other — and exits early on a [sink](LazyDSfa::is_sink). Only
    /// a cache miss releases the read lock and constructs the missing
    /// state under the write lock before resuming the batched walk.
    pub fn run_from(&self, state: SfaStateId, input: &[u8]) -> SfaStateId {
        let stride = self.dfa.num_classes();
        let classes = self.dfa.classes();
        let mut f = state;
        let mut i = 0;
        while i < input.len() {
            {
                let inner = self.inner.read().expect(POISONED);
                if inner.sink[f as usize] {
                    return f;
                }
                while i < input.len() {
                    let class = classes.class_of(input[i]) as usize;
                    let next = inner.table[f as usize * stride + class];
                    if next == NONE {
                        break;
                    }
                    i += 1;
                    if next != f {
                        f = next;
                        if inner.sink[f as usize] {
                            return f;
                        }
                    }
                }
            }
            if i < input.len() {
                f = self.next_state(f, input[i]);
                i += 1;
            }
        }
        f
    }

    /// Whole-input membership.
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.is_accepting(self.run(input))
    }

    /// Composes two SFA states *as states*: the state whose mapping is
    /// `f_w ⋄ f_v` when `a = f_w` and `b = f_v` (Lemma 1) — what lets a
    /// streaming matcher fold per-block chunk states into its running
    /// state.
    ///
    /// The composite transformation is always *reachable* (it is the
    /// mapping of the concatenated word), but the lazy cache may not have
    /// visited it yet, so — unlike the eager
    /// [`DSfa::compose_states`](crate::DSfa::compose_states), which only
    /// looks the result up — this interns the composite, materializing a
    /// new state when needed. Identity on either side and a sink on the
    /// left resolve without composing.
    pub fn compose_states(&self, a: SfaStateId, b: SfaStateId) -> SfaStateId {
        if a == self.initial() {
            return b;
        }
        if b == self.initial() {
            return a;
        }
        let composed = {
            let inner = self.inner.read().expect(POISONED);
            if inner.sink[a as usize] {
                return a;
            }
            let composed = inner.mappings[a as usize].then(&inner.mappings[b as usize]);
            if let Some(&id) = inner.ids.get(&composed) {
                return id;
            }
            composed
        };
        let mut inner = self.inner.write().expect(POISONED);
        self.intern_locked(&mut inner, composed)
    }

    /// Bytes occupied by the materialized (class-compressed) transition
    /// table rows.
    pub fn table_bytes(&self) -> usize {
        self.inner.read().expect(POISONED).table.len() * std::mem::size_of::<SfaStateId>()
    }

    /// Bytes occupied by the materialized state mappings.
    pub fn mapping_bytes(&self) -> usize {
        self.inner.read().expect(POISONED).mappings.iter().map(|m| m.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsfa::DSfa;

    #[test]
    fn lazy_matches_eager_semantics() {
        let eager = DSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let lazy = LazyDSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        for input in [&b""[..], b"0055", b"00550459", b"005", b"5500", b"xyz"] {
            assert_eq!(eager.accepts(input), lazy.accepts(input), "{:?}", input);
        }
    }

    #[test]
    fn lazy_materializes_only_visited_states() {
        // Paper, Sect. V-A: at most one new state per input byte.
        let lazy = LazyDSfa::from_pattern("([0-4]{5}[5-9]{5})*").unwrap();
        assert_eq!(lazy.num_states_constructed(), 1);
        let input = b"0000055555";
        lazy.run(input);
        assert!(lazy.num_states_constructed() <= 1 + input.len());
        // The eager SFA for this pattern has 110 states; a short input must
        // touch far fewer.
        assert!(lazy.num_states_constructed() < 30);
    }

    #[test]
    fn lazy_state_cache_is_reused_across_runs() {
        let lazy = LazyDSfa::from_pattern("(ab)*").unwrap();
        lazy.run(b"abababab");
        let after_first = lazy.num_states_constructed();
        lazy.run(b"abababababab");
        assert_eq!(lazy.num_states_constructed(), after_first, "no new states needed");
        // The full SFA has 6 states; the accepted-input walk touches 3
        // (identity, f_a, f_ab).
        assert_eq!(after_first, 3);
    }

    #[test]
    fn full_materialization_equals_eager_state_count() {
        // Driving every transition of every materialized state to a
        // fixpoint reconstructs exactly the eager SFA: the lazy cache
        // never invents states and never misses reachable ones.
        let eager = DSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let lazy = LazyDSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let mut done = 0;
        while done < lazy.num_states_constructed() {
            let state = done as SfaStateId;
            for class in 0..lazy.num_classes() as u16 {
                lazy.next_by_class(state, class);
            }
            done += 1;
        }
        assert_eq!(lazy.num_states_constructed(), eager.num_states());
        for s in 0..eager.num_states() as SfaStateId {
            // Same mapping set; ids may differ, so compare via the index.
            assert!(lazy.state_of(&eager.mapping(s)).is_some());
        }
    }

    #[test]
    fn sink_detection_matches_eager() {
        for pattern in ["(ab)*", "([0-4]{2}[5-9]{2})*", "(?s).*", "a|bc"] {
            let eager = DSfa::from_pattern(pattern).unwrap();
            let lazy = LazyDSfa::from_pattern(pattern).unwrap();
            for input in [&b""[..], b"ab", b"aa", b"abab", b"0055", b"zzzz", b"bc"] {
                let fe = eager.run(input);
                let fl = lazy.run(input);
                assert_eq!(
                    eager.is_sink(fe),
                    lazy.is_sink(fl),
                    "pattern {:?} input {:?}",
                    pattern,
                    input
                );
                assert_eq!(eager.is_accepting(fe), lazy.is_accepting(fl));
            }
        }
    }

    #[test]
    fn run_from_sink_early_exit_is_correct() {
        // After the synchronizing word "aa", (ab)* is dead; a long tail
        // must not materialize anything new and must keep the verdict.
        let lazy = LazyDSfa::from_pattern("(ab)*").unwrap();
        let dead = lazy.run(b"aa");
        assert!(lazy.is_sink(dead));
        let before = lazy.num_states_constructed();
        let long = b"a".repeat(100_000);
        assert_eq!(lazy.run_from(dead, &long), dead);
        assert_eq!(lazy.num_states_constructed(), before);
        assert!(!lazy.accepts(&long[..]));
    }

    #[test]
    fn compose_states_matches_concatenated_run() {
        // State-level Lemma 1 on the lazy backend: composing the states of
        // two words gives the state of the concatenation, interning the
        // composite when the cache has not visited it yet.
        let lazy = LazyDSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let words: [&[u8]; 5] = [b"", b"0456", b"0055044", b"9", b"005504590055"];
        for w1 in words {
            for w2 in words {
                let f1 = lazy.run(w1);
                let f2 = lazy.run(w2);
                let mut whole = w1.to_vec();
                whole.extend_from_slice(w2);
                assert_eq!(lazy.compose_states(f1, f2), lazy.run(&whole), "{:?}+{:?}", w1, w2);
            }
        }
    }

    #[test]
    fn compose_states_shortcuts_identity_and_sink() {
        let lazy = LazyDSfa::from_pattern("(ab)*").unwrap();
        let id = lazy.initial();
        let f = lazy.run(b"ab");
        let dead = lazy.run(b"aa");
        assert!(lazy.is_sink(dead));
        assert_eq!(lazy.compose_states(id, f), f);
        assert_eq!(lazy.compose_states(f, id), f);
        for g in 0..lazy.num_states_constructed() as SfaStateId {
            assert_eq!(lazy.compose_states(dead, g), dead);
        }
    }

    #[test]
    fn accepting_patterns_agree_with_eager() {
        use sfa_automata::{determinize, minimize, DfaConfig, Nfa};
        let nfa = Nfa::from_patterns(["(ab)*", "a+", "[ab]{2}"]).unwrap();
        let dfa = minimize(&determinize(&nfa, &DfaConfig::default()).unwrap());
        let eager = DSfa::from_dfa(&dfa, &crate::SfaConfig::default()).unwrap();
        let lazy = LazyDSfa::new(dfa);
        assert_eq!(lazy.pattern_count(), 3);
        for input in [&b""[..], b"a", b"ab", b"aa", b"abab", b"ba", b"zz"] {
            let fe = eager.run(input);
            let fl = lazy.run(input);
            assert_eq!(
                eager.accepting_patterns(fe),
                lazy.accepting_patterns(fl),
                "input {:?}",
                input
            );
        }
    }

    #[test]
    fn apply_matches_mapping_apply() {
        let lazy = LazyDSfa::from_pattern("(a|b)*abb").unwrap();
        let f = lazy.run(b"aab");
        for q in 0..lazy.num_dfa_states() as StateId {
            assert_eq!(lazy.apply(f, q), lazy.mapping(f).apply(q));
        }
    }

    #[test]
    fn clone_snapshots_the_cache() {
        let lazy = LazyDSfa::from_pattern("(ab)*").unwrap();
        lazy.run(b"abab");
        let snap = lazy.clone();
        assert_eq!(snap.num_states_constructed(), lazy.num_states_constructed());
        // Diverging after the clone leaves the snapshot untouched.
        lazy.run(b"aa");
        assert!(lazy.num_states_constructed() > snap.num_states_constructed());
        assert!(snap.accepts(b"ab"));
    }

    #[test]
    fn lazy_is_shareable_across_threads() {
        let lazy = LazyDSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let eager = DSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let lazy = &lazy;
                let eager = &eager;
                scope.spawn(move || {
                    let input = if t % 2 == 0 { &b"00550459"[..] } else { &b"0055045"[..] };
                    for _ in 0..50 {
                        assert_eq!(lazy.accepts(input), eager.accepts(input));
                    }
                });
            }
        });
        // Never more states than the eager construction.
        assert!(lazy.num_states_constructed() <= eager.num_states());
    }
}
