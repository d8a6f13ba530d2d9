//! Deterministic finite automata with dense, byte-class–indexed transition
//! tables, and the sequential matcher (Algorithm 2 of the paper) in its
//! single-input and lockstep multi-input ([`Dfa::run_many`]) forms.

use crate::byteclass::ByteClasses;
use crate::nfa::StateId;
use crate::pattern::PatternSet;

/// Number of haystacks [`Dfa::run_many`] walks in lockstep.
///
/// One scan is a chain of dependent table loads; eight independent
/// chains keep eight loads in flight, which covers L1/L2 latency while
/// the lane states still fit in registers.
pub const DFA_LANES: usize = 8;

/// Bytes the lockstep walk advances between lane bookkeeping rounds:
/// retiring lanes whose haystack ended or whose state became a
/// [sink](Dfa::is_sink), and refilling them. Per-byte checks would put a
/// branch in the hot loop; a sink self-loops, so walking it for the rest
/// of a block is harmless.
const LANE_BLOCK_BYTES: usize = 128;

/// A complete deterministic finite automaton.
///
/// The transition table is dense: row `q` holds one successor per byte
/// class. With the identity byte-class partition this is exactly the
/// paper's layout ("256 symbols times 4 bytes" per state); with alphabet
/// compression the rows shrink to the number of distinct classes.
#[derive(Clone, Debug)]
pub struct Dfa {
    classes: ByteClasses,
    stride: usize,
    table: Vec<StateId>,
    accepting: Vec<bool>,
    /// `sink[q]` is true when every class loops `q` back to itself: no
    /// suffix can move the automaton, so a scan may stop there.
    sink: Vec<bool>,
    start: StateId,
    /// Number of original patterns compiled into this automaton (see
    /// [`crate::pattern`]); 1 for single-pattern constructions.
    pattern_count: usize,
    /// Per-state index into `accept_sets` (parallel to `accepting`).
    /// Distinct accept sets are interned, so states sharing a set share
    /// one [`PatternSet`] allocation.
    accept_index: Vec<u32>,
    /// The distinct pattern accept sets; entry 0 is always the empty set.
    accept_sets: Vec<PatternSet>,
}

impl Dfa {
    /// Builds a DFA from raw parts. Panics if the parts are inconsistent.
    ///
    /// `table` must have `accepting.len() * classes.count()` entries and
    /// every entry must be a valid state id. The result is a
    /// single-pattern automaton: every accepting state's
    /// [accept set](Dfa::accept_set) is `{0}`.
    pub fn from_parts(
        classes: ByteClasses,
        table: Vec<StateId>,
        accepting: Vec<bool>,
        start: StateId,
    ) -> Dfa {
        let accept_index = accepting.iter().map(|&a| a as u32).collect();
        let accept_sets = vec![PatternSet::new(1), PatternSet::singleton(1, 0)];
        Dfa::from_parts_with_patterns(classes, table, accept_index, accept_sets, start, 1)
    }

    /// Builds a multi-pattern DFA from raw parts: each state carries an
    /// index into the interned `accept_sets` table (entry 0 must be the
    /// empty set over `pattern_count` patterns); a state is accepting
    /// exactly when its accept set is non-empty. Panics if the parts are
    /// inconsistent.
    pub fn from_parts_with_patterns(
        classes: ByteClasses,
        table: Vec<StateId>,
        accept_index: Vec<u32>,
        accept_sets: Vec<PatternSet>,
        start: StateId,
        pattern_count: usize,
    ) -> Dfa {
        let stride = classes.count();
        let num_states = accept_index.len();
        assert!(num_states > 0, "a DFA needs at least one state");
        assert_eq!(table.len(), num_states * stride, "transition table size mismatch");
        assert!((start as usize) < num_states, "start state out of range");
        assert!(table.iter().all(|&t| (t as usize) < num_states), "transition target out of range");
        assert!(!accept_sets.is_empty() && accept_sets[0].is_empty(), "accept set 0 must be empty");
        assert!(
            accept_sets.iter().all(|s| s.patterns() == pattern_count),
            "accept sets must range over pattern_count patterns"
        );
        assert!(
            accept_index.iter().all(|&i| (i as usize) < accept_sets.len()),
            "accept index out of range"
        );
        let accepting = accept_index.iter().map(|&i| !accept_sets[i as usize].is_empty()).collect();
        let sink = sinks(&table, stride);
        Dfa {
            classes,
            stride,
            table,
            accepting,
            sink,
            start,
            pattern_count,
            accept_index,
            accept_sets,
        }
    }

    /// Checks every structural invariant of the automaton and reports the
    /// first violation. Construction enforces these; `validate` re-checks
    /// them on demand so derived automata (minimized, composed, packed,
    /// sharded) and property tests can assert nothing drifted:
    ///
    /// * the byte-class table is a total, consistent map of all 256 bytes
    ///   and its class count equals the table stride,
    /// * the transition table has exactly `num_states × stride` in-range
    ///   targets and the start state is in range,
    /// * accept-set entry 0 is the empty set, every set ranges over
    ///   `pattern_count` patterns, every per-state index is in range, and
    ///   the accepting bitmap agrees with the indexed sets.
    ///
    /// Deliberately *not* an invariant: start-state liveness. The void
    /// language (e.g. an empty `RegexSet`) compiles to a DFA whose start
    /// state is already dead.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_states();
        if n == 0 {
            return Err("a DFA needs at least one state".to_string());
        }
        if !self.classes.is_valid() {
            return Err("byte-class table is not a consistent total map".to_string());
        }
        if self.classes.count() != self.stride {
            return Err(format!(
                "byte-class count {} does not match table stride {}",
                self.classes.count(),
                self.stride
            ));
        }
        if self.table.len() != n * self.stride {
            return Err(format!(
                "transition table has {} entries, expected {} states × {} classes",
                self.table.len(),
                n,
                self.stride
            ));
        }
        if self.start as usize >= n {
            return Err(format!("start state {} out of range (0..{n})", self.start));
        }
        if let Some(&t) = self.table.iter().find(|&&t| (t as usize) >= n) {
            return Err(format!("transition target {t} out of range (0..{n})"));
        }
        if self.accept_sets.is_empty() || !self.accept_sets[0].is_empty() {
            return Err("accept set 0 must be the empty set".to_string());
        }
        if let Some(s) = self.accept_sets.iter().find(|s| s.patterns() != self.pattern_count) {
            return Err(format!(
                "accept set ranges over {} patterns, expected {}",
                s.patterns(),
                self.pattern_count
            ));
        }
        if self.accept_index.len() != n {
            return Err(format!(
                "accept index table has {} entries for {n} states",
                self.accept_index.len()
            ));
        }
        if let Some(&i) =
            self.accept_index.iter().find(|&&i| (i as usize) >= self.accept_sets.len())
        {
            return Err(format!("accept index {i} out of range (0..{})", self.accept_sets.len()));
        }
        for (q, &i) in self.accept_index.iter().enumerate() {
            if self.accepting[q] == self.accept_sets[i as usize].is_empty() {
                return Err(format!("accepting bitmap disagrees with accept set of state {q}"));
            }
        }
        if self.sink != sinks(&self.table, self.stride) {
            return Err("sink bitmap disagrees with the transition table".to_string());
        }
        Ok(())
    }

    /// Number of states, including the dead state if one is reachable
    /// (the DFA is always complete).
    #[inline]
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// Number of states that can still reach an accepting state.
    ///
    /// This matches the state counts reported in the paper, which treats
    /// the DFA as partial (its `|D| = 10` for `r_5` does not count the
    /// failure sink).
    pub fn num_live_states(&self) -> usize {
        self.live_states().iter().filter(|&&l| l).count()
    }

    /// The byte-class partition used by the transition table.
    #[inline]
    pub fn classes(&self) -> &ByteClasses {
        &self.classes
    }

    /// Number of byte classes (the row width of the transition table).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.stride
    }

    /// The initial state.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Returns true if `state` is accepting.
    #[inline]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state as usize]
    }

    /// Returns true if `state` loops back to itself on every byte: once
    /// a scan reaches it, no suffix can change the final state. The
    /// failure sink is one; so is every state of a `Contains`-mode
    /// automaton's absorbing accept region.
    #[inline]
    pub fn is_sink(&self, state: StateId) -> bool {
        self.sink[state as usize]
    }

    /// The accepting-state bitmap.
    pub fn accepting(&self) -> &[bool] {
        &self.accepting
    }

    /// Number of original patterns compiled into this automaton (1 for
    /// single-pattern constructions, 0 for the empty pattern list).
    #[inline]
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// The set of patterns `state` accepts — the per-rule verdict of a
    /// multi-pattern automaton. Empty exactly when the state is not
    /// accepting.
    #[inline]
    pub fn accept_set(&self, state: StateId) -> &PatternSet {
        &self.accept_sets[self.accept_index[state as usize] as usize]
    }

    /// Per-state indices into [`distinct_accept_sets`](Dfa::distinct_accept_sets)
    /// (used to rebuild derived automata without re-interning).
    pub fn accept_indices(&self) -> &[u32] {
        &self.accept_index
    }

    /// The interned distinct pattern accept sets (entry 0 is the empty
    /// set).
    pub fn distinct_accept_sets(&self) -> &[PatternSet] {
        &self.accept_sets
    }

    /// Which patterns the whole input matches: run the automaton and
    /// read the final state's [accept set](Dfa::accept_set) — one pass,
    /// all per-pattern verdicts (the sequential form; the parallel and
    /// streaming forms live in `sfa-matcher`).
    pub fn matching_patterns(&self, input: &[u8]) -> &PatternSet {
        self.accept_set(self.run(input))
    }

    /// Transition on a byte class.
    #[inline]
    pub fn next_by_class(&self, state: StateId, class: u16) -> StateId {
        self.table[state as usize * self.stride + class as usize]
    }

    /// Transition on a byte (one table lookup, as in Algorithm 2).
    #[inline]
    pub fn next_state(&self, state: StateId, byte: u8) -> StateId {
        self.next_by_class(state, self.classes.class_of(byte))
    }

    /// The raw transition table (row-major, `num_states × num_classes`).
    pub fn table(&self) -> &[StateId] {
        &self.table
    }

    /// Size of the transition table in bytes (the paper's "1 KB per state"
    /// figure corresponds to the identity partition).
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<StateId>()
    }

    /// **Algorithm 2** — sequential computation of the DFA: runs the input
    /// from the start state and returns the final state.
    pub fn run(&self, input: &[u8]) -> StateId {
        self.run_from(self.start, input)
    }

    /// Runs the input from an arbitrary state (used by the speculative
    /// parallel matcher and by the reductions).
    pub fn run_from(&self, state: StateId, input: &[u8]) -> StateId {
        let mut q = state;
        for &b in input {
            q = self.next_state(q, b);
        }
        q
    }

    /// **Algorithm 2 over many haystacks**: the final state of each input
    /// run from the start state, in input order — equal to
    /// [`run`](Dfa::run) per input.
    ///
    /// Every input starts at the known state `q0`, so by Lemma 1 the SFA
    /// (whose point is an *unknown* start state) has nothing to add
    /// here: the DFA run is the verdict. What a per-input loop leaves on
    /// the table is memory-level parallelism — each byte is one table load
    /// that depends on the previous one. This kernel walks [`DFA_LANES`]
    /// inputs in lockstep, so that many independent load chains are in
    /// flight at once. Every 128 bytes a lane whose input ended or whose
    /// state is a [sink](Dfa::is_sink) retires (its final state is already
    /// known) and the next waiting input takes its place. Once no input is
    /// left to refill a lane, the idle lanes shadow a live one, so the walk
    /// stays branch-free to the end.
    pub fn run_many(&self, inputs: &[&[u8]]) -> Vec<StateId> {
        let mut out = vec![self.start; inputs.len()];
        let mut waiting = inputs.iter().enumerate();
        // Per lane: the input it walks (None = idle), its state, and the
        // part of its input not yet walked.
        let mut owner: [Option<usize>; DFA_LANES] = [None; DFA_LANES];
        let mut q = [self.start; DFA_LANES];
        let mut rest: [&[u8]; DFA_LANES] = [&[]; DFA_LANES];
        loop {
            for lane in 0..DFA_LANES {
                while owner[lane].is_none() || rest[lane].is_empty() || self.is_sink(q[lane]) {
                    if let Some(i) = owner[lane].take() {
                        out[i] = q[lane];
                    }
                    let Some((i, input)) = waiting.next() else { break };
                    owner[lane] = Some(i);
                    q[lane] = self.start;
                    rest[lane] = input;
                }
            }
            let Some(lead) = owner.iter().position(Option::is_some) else {
                return out;
            };
            for lane in 0..DFA_LANES {
                if owner[lane].is_none() {
                    q[lane] = q[lead];
                    rest[lane] = rest[lead];
                }
            }
            let n = rest.iter().map(|r| r.len()).min().unwrap_or(0).min(LANE_BLOCK_BYTES);
            self.walk_lanes(&mut q, &rest, n);
            for r in rest.iter_mut() {
                *r = &r[n..];
            }
        }
    }

    /// The lockstep hot loop of [`run_many`](Dfa::run_many): advances
    /// every lane by the first `n` bytes of its input (each lane has at
    /// least `n` left).
    #[inline]
    fn walk_lanes(&self, q: &mut [StateId; DFA_LANES], rest: &[&[u8]; DFA_LANES], n: usize) {
        let lanes: [&[u8]; DFA_LANES] = std::array::from_fn(|lane| &rest[lane][..n]);
        let (table, stride, classes) = (&self.table[..], self.stride, &self.classes);
        let mut s = *q;
        for k in 0..n {
            for (q, lane) in s.iter_mut().zip(&lanes) {
                *q = table[*q as usize * stride + classes.class_of(lane[k]) as usize];
            }
        }
        *q = s;
    }

    /// Whole-input membership test (Algorithm 2 plus the acceptance check).
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.is_accepting(self.run(input))
    }

    /// The reverse adjacency of the transition graph: `reverse[t]` lists
    /// the states with some transition into `t` (one entry per edge, so a
    /// state appears once per byte class leading to `t`). Shared by every
    /// backward-propagation analysis on the DFA.
    fn reverse_edges(&self) -> Vec<Vec<StateId>> {
        let n = self.num_states();
        let mut reverse: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for q in 0..n {
            for c in 0..self.stride {
                let t = self.table[q * self.stride + c] as usize;
                reverse[t].push(q as StateId);
            }
        }
        reverse
    }

    /// Saturates `marked` backward over `reverse`: every predecessor of a
    /// marked state becomes marked. `stack` must hold the initially
    /// marked seeds.
    fn propagate_backward(reverse: &[Vec<StateId>], marked: &mut [bool], mut stack: Vec<StateId>) {
        while let Some(q) = stack.pop() {
            for &p in &reverse[q as usize] {
                if !marked[p as usize] {
                    marked[p as usize] = true;
                    stack.push(p);
                }
            }
        }
    }

    /// For every state, whether an accepting state is reachable from it.
    pub fn live_states(&self) -> Vec<bool> {
        // Backward reachability from the accepting states.
        let reverse = self.reverse_edges();
        let mut live = vec![false; self.num_states()];
        let mut seeds: Vec<StateId> = Vec::new();
        for (q, &acc) in self.accepting.iter().enumerate() {
            if acc {
                live[q] = true;
                seeds.push(q as StateId);
            }
        }
        Self::propagate_backward(&reverse, &mut live, seeds);
        live
    }

    /// For every state, whether the boolean accept verdict is already
    /// *decided* there: every state reachable from it (itself included)
    /// agrees on accepting vs. rejecting, so no suffix can change a
    /// match-or-not answer. A streaming matcher can finalize its verdict
    /// as soon as it enters a decided state — e.g. the absorbing accept
    /// region of a `Contains`-mode scan right after the first hit.
    pub fn verdict_decided_states(&self) -> Vec<bool> {
        self.verdict_and_accept_set_decided_states().0
    }

    /// For every state, whether the full pattern *accept set* is already
    /// decided: every reachable state carries the same accept set, so no
    /// suffix can change which patterns match. Implies (and is generally
    /// stricter than) [`verdict_decided_states`](Dfa::verdict_decided_states) —
    /// in a multi-pattern `Contains` scan the boolean verdict freezes at
    /// the first rule hit, while the set verdict stays open until every
    /// rule's fate is frozen.
    pub fn accept_set_decided_states(&self) -> Vec<bool> {
        self.verdict_and_accept_set_decided_states().1
    }

    /// Both decidedness bitmaps — `(verdict, accept set)` — from one
    /// pass: each is the greatest fixpoint of "my key equals every
    /// successor's key" (the keys being the accepting bit and the accept
    /// set index), computed over a single shared reverse graph instead of
    /// rebuilding the `O(n · stride)` adjacency per bitmap. A state is
    /// *undecided* if some transition changes its key or leads to an
    /// undecided state; undecidedness propagates backward.
    pub fn verdict_and_accept_set_decided_states(&self) -> (Vec<bool>, Vec<bool>) {
        let n = self.num_states();
        let reverse = self.reverse_edges();
        // bad_set ⊇ bad_any pointwise in the end (equal accept sets imply
        // equal accepting bits), but each needs its own seeding pass.
        let mut bad_any = vec![false; n];
        let mut bad_set = vec![false; n];
        let mut seeds_any: Vec<StateId> = Vec::new();
        let mut seeds_set: Vec<StateId> = Vec::new();
        for q in 0..n {
            for c in 0..self.stride {
                let t = self.table[q * self.stride + c] as usize;
                if !bad_any[q] && self.accepting[t] != self.accepting[q] {
                    bad_any[q] = true;
                    seeds_any.push(q as StateId);
                }
                if !bad_set[q] && self.accept_index[t] != self.accept_index[q] {
                    bad_set[q] = true;
                    seeds_set.push(q as StateId);
                }
            }
        }
        Self::propagate_backward(&reverse, &mut bad_any, seeds_any);
        Self::propagate_backward(&reverse, &mut bad_set, seeds_set);
        (bad_any.into_iter().map(|b| !b).collect(), bad_set.into_iter().map(|b| !b).collect())
    }

    /// Returns the dead (failure-sink) state if the DFA has exactly one
    /// non-live state, which is the common case after minimization.
    pub fn dead_state(&self) -> Option<StateId> {
        let live = self.live_states();
        let mut dead = None;
        for (q, &l) in live.iter().enumerate() {
            if !l {
                if dead.is_some() {
                    return None;
                }
                dead = Some(q as StateId);
            }
        }
        dead
    }

    /// Returns true if the automaton accepts no word at all.
    pub fn is_empty_language(&self) -> bool {
        !self.live_states()[self.start as usize]
    }

    /// Returns true if every state is accepting (the automaton accepts every
    /// word).
    pub fn is_universal_language(&self) -> bool {
        // Forward reachability from the start over non-accepting... simpler:
        // the language is universal iff no reachable state is rejecting.
        let mut seen = vec![false; self.num_states()];
        let mut stack = vec![self.start];
        seen[self.start as usize] = true;
        while let Some(q) = stack.pop() {
            if !self.is_accepting(q) {
                return false;
            }
            for c in 0..self.stride {
                let t = self.table[q as usize * self.stride + c];
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        true
    }
}

/// The sink bitmap of a transition table: the states every class maps
/// back to themselves.
fn sinks(table: &[StateId], stride: usize) -> Vec<bool> {
    table
        .chunks_exact(stride)
        .enumerate()
        .map(|(q, row)| row.iter().all(|&t| t as usize == q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClasses;

    /// A hand-built DFA for `(ab)*` — Fig. 1 of the paper.
    ///
    /// State 0: start/accept, state 1: saw `a`, state 2: dead.
    pub(crate) fn paper_d1() -> Dfa {
        let classes = ByteClasses::from_sets([
            &sfa_regex_syntax::ByteSet::singleton(b'a'),
            &sfa_regex_syntax::ByteSet::singleton(b'b'),
        ]);
        let ca = classes.class_of(b'a') as usize;
        let cb = classes.class_of(b'b') as usize;
        let stride = classes.count();
        let mut table = vec![0 as StateId; 3 * stride];
        // default everything to the dead state 2
        for t in table.iter_mut() {
            *t = 2;
        }
        table[ca] = 1; // 0 --a--> 1
        table[stride + cb] = 0; // 1 --b--> 0
        Dfa::from_parts(classes, table, vec![true, false, false], 0)
    }

    #[test]
    fn validate_accepts_well_formed_and_names_the_broken_invariant() {
        let d = paper_d1();
        assert_eq!(d.validate(), Ok(()));
        // Corrupt one transition target past the state count.
        let mut broken = d.clone();
        broken.table[0] = 99;
        let err = broken.validate().unwrap_err();
        assert!(err.contains("out of range"), "unexpected message: {err}");
        // Desynchronize the accepting bitmap from the accept sets.
        let mut broken = d.clone();
        broken.accepting[1] = true;
        let err = broken.validate().unwrap_err();
        assert!(err.contains("accepting bitmap"), "unexpected message: {err}");
    }

    #[test]
    fn algorithm2_on_paper_example() {
        let d = paper_d1();
        assert!(d.accepts(b""));
        assert!(d.accepts(b"ab"));
        assert!(d.accepts(b"abab"));
        assert!(!d.accepts(b"a"));
        assert!(!d.accepts(b"ba"));
        assert!(!d.accepts(b"abx"));
        assert_eq!(d.run(b"abab"), 0);
        assert_eq!(d.run(b"aba"), 1);
        assert_eq!(d.run(b"abb"), 2);
    }

    #[test]
    fn run_from_arbitrary_state() {
        let d = paper_d1();
        assert_eq!(d.run_from(1, b"b"), 0);
        assert_eq!(d.run_from(1, b"a"), 2);
        assert_eq!(d.run_from(2, b"ababab"), 2, "dead state absorbs");
    }

    #[test]
    fn run_many_matches_run_and_marks_sinks() {
        let d = paper_d1();
        assert_eq!(d.run_many(&[]), Vec::<StateId>::new());
        assert_eq!((0..3).map(|q| d.is_sink(q)).collect::<Vec<_>>(), vec![false, false, true]);
        // Ragged lengths across block boundaries, empty inputs, and more
        // inputs than lanes so retired lanes get refilled.
        let long_ok = b"ab".repeat(100);
        let mut long_dead = b"ab".repeat(40);
        long_dead.extend_from_slice(b"bb");
        long_dead.extend(b"ab".repeat(60));
        let inputs: Vec<&[u8]> = (0..2 * DFA_LANES + 1)
            .map(|i| match i % 4 {
                0 => &long_ok[..2 * i],
                1 => &long_dead[..],
                2 => &b""[..],
                _ => &long_ok[..],
            })
            .collect();
        let expected: Vec<StateId> = inputs.iter().map(|h| d.run(h)).collect();
        assert_eq!(d.run_many(&inputs), expected);
    }

    #[test]
    fn live_and_dead_states() {
        let d = paper_d1();
        let live = d.live_states();
        assert_eq!(live, vec![true, true, false]);
        assert_eq!(d.num_live_states(), 2);
        assert_eq!(d.dead_state(), Some(2));
        assert!(!d.is_empty_language());
        assert!(!d.is_universal_language());
    }

    #[test]
    fn table_size_accounting() {
        let d = paper_d1();
        assert_eq!(d.num_classes(), 3); // 'a', 'b', everything else
        assert_eq!(d.table_bytes(), 3 * 3 * 4);
    }

    #[test]
    #[should_panic(expected = "transition table size mismatch")]
    fn from_parts_validates_table_size() {
        Dfa::from_parts(ByteClasses::single(), vec![0, 0], vec![true], 0);
    }

    #[test]
    #[should_panic(expected = "start state out of range")]
    fn from_parts_validates_start() {
        Dfa::from_parts(ByteClasses::single(), vec![0], vec![true], 5);
    }

    #[test]
    fn decided_states_on_paper_example() {
        let d = paper_d1();
        // Only the dead state 2 is decided: from 0 and 1 both verdicts
        // are still reachable.
        assert_eq!(d.verdict_decided_states(), vec![false, false, true]);
        assert_eq!(d.accept_set_decided_states(), vec![false, false, true]);
        // A universal single state is decided.
        let all = Dfa::from_parts(ByteClasses::single(), vec![0], vec![true], 0);
        assert_eq!(all.verdict_decided_states(), vec![true]);
    }

    #[test]
    fn universal_and_empty_language_detection() {
        // One accepting state looping to itself on everything: universal.
        let d = Dfa::from_parts(ByteClasses::single(), vec![0], vec![true], 0);
        assert!(d.is_universal_language());
        assert!(!d.is_empty_language());
        // One rejecting state looping to itself: empty.
        let d = Dfa::from_parts(ByteClasses::single(), vec![0], vec![false], 0);
        assert!(d.is_empty_language());
        assert!(!d.is_universal_language());
        assert_eq!(d.num_live_states(), 0);
    }
}
