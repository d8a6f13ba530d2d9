//! A high-level regular-expression matcher bundling the whole pipeline:
//! pattern → NFA → DFA → minimal DFA → D-SFA, with sequential (Algorithm 2),
//! speculative-parallel (Algorithm 3) and SFA-parallel (Algorithm 5)
//! execution.
//!
//! This is the API a downstream user of the library is expected to touch;
//! the lower-level crates stay available for research use.

use crate::error::Error;
use crate::matches::SetMatches;
use crate::parallel::ParallelSfaMatcher;
use crate::pool::{Engine, MIN_POOL_CHUNK_BYTES};
use crate::prefilter::Prefilter;
use crate::shard::{Shard, ShardedSet};
use crate::speculative::SpeculativeDfaMatcher;
use crate::strategy::Strategy;
use crate::stream::{SetStream, StreamMatcher};
use crate::Reduction;
use sfa_automata::{
    determinize, minimize, CompileError, Dfa, DfaConfig, Nfa, PatternId, PatternSet, StateId,
};
use sfa_core::{BackendKind, DSfa, LazyDSfa, SfaBackend, SfaConfig, SizeReport, StateIdRepr};
use sfa_regex_syntax::ast::Ast;
use sfa_regex_syntax::class::perl;
use sfa_regex_syntax::{Parser, ParserConfig};
use std::collections::HashMap;

/// How the pattern is applied to the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchMode {
    /// The whole input must match the pattern (the paper's membership
    /// semantics: `w ∈ L(A)`).
    Whole,
    /// Some substring of the input must match the pattern (SNORT-style
    /// scanning). Implemented by matching `(?s:.)* pattern (?s:.)*` against
    /// the whole input, which keeps the data-parallel property intact.
    Contains,
}

/// Which D-SFA [backend](SfaBackend) the builder compiles, chosen via
/// [`RegexBuilder::backend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Always build the eager [`DSfa`] (Algorithm 4). Compilation fails
    /// with [`CompileError::TooManyStates`] when the automaton exceeds
    /// [`RegexBuilder::max_sfa_states`] — the historical behavior, and
    /// the default.
    #[default]
    Eager,
    /// Always build the on-the-fly [`LazyDSfa`] (Section V-A): states
    /// materialize at match time, at most one per input byte, so
    /// compilation never hits a state limit.
    Lazy,
    /// Compile eagerly, and **fall back to the lazy backend** when the
    /// eager construction exceeds [`RegexBuilder::max_sfa_states`] —
    /// instead of returning `TooManyStates`. This is how production
    /// engines pick a representation per pattern: dense tables when they
    /// fit, on-the-fly construction when they explode.
    Auto,
}

/// Builder for [`Regex`] with all pipeline knobs.
#[derive(Clone, Debug)]
pub struct RegexBuilder {
    pub(crate) parser: ParserConfig,
    pub(crate) dfa: DfaConfig,
    pub(crate) sfa: SfaConfig,
    pub(crate) backend: BackendChoice,
    pub(crate) mode: MatchMode,
    pub(crate) threads: usize,
    pub(crate) reduction: Reduction,
    pub(crate) engine: Option<Engine>,
    pub(crate) track_patterns: bool,
    pub(crate) shard_budget: Option<usize>,
}

impl Default for RegexBuilder {
    fn default() -> Self {
        RegexBuilder {
            parser: ParserConfig::default(),
            dfa: DfaConfig::default(),
            sfa: SfaConfig::default(),
            backend: BackendChoice::default(),
            mode: MatchMode::Whole,
            threads: default_threads(),
            reduction: Reduction::Sequential,
            engine: None,
            track_patterns: true,
            shard_budget: None,
        }
    }
}

/// The default worker count: one per available CPU.
///
/// Queried from the OS once and cached for the rest of the process, so
/// per-request hot paths can construct a [`RegexBuilder`] (which calls
/// this) without a syscall.
pub fn default_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

impl RegexBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> RegexBuilder {
        RegexBuilder::default()
    }

    /// Case-insensitive matching.
    pub fn case_insensitive(mut self, yes: bool) -> Self {
        self.parser.case_insensitive = yes;
        self
    }

    /// Let `.` match `\n` too.
    pub fn dot_matches_newline(mut self, yes: bool) -> Self {
        self.parser.dot_matches_newline = yes;
        self
    }

    /// Whole-input or substring semantics.
    pub fn mode(mut self, mode: MatchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Disable or enable byte-class alphabet compression (enabled by
    /// default; disabling reproduces the paper's fixed 256-entry rows).
    pub fn compress_alphabet(mut self, yes: bool) -> Self {
        self.dfa.compress_alphabet = yes;
        self
    }

    /// DFA state limit.
    pub fn max_dfa_states(mut self, limit: usize) -> Self {
        self.dfa.max_states = limit;
        self
    }

    /// SFA state limit for the **eager** construction. What happens when
    /// it is exceeded depends on [`backend`](RegexBuilder::backend):
    /// `Eager` fails compilation, `Auto` falls back to the lazy backend,
    /// and `Lazy` never runs the eager construction at all (the lazy
    /// cache is bounded by the input, not by this limit — see the
    /// [knob matrix](sfa_core) in the core crate docs).
    pub fn max_sfa_states(mut self, limit: usize) -> Self {
        self.sfa.max_states = limit;
        self
    }

    /// Which D-SFA backend to compile: eager tables, on-the-fly (lazy)
    /// construction, or [`Auto`](BackendChoice::Auto) — eager with a lazy
    /// fallback when [`max_sfa_states`](RegexBuilder::max_sfa_states) is
    /// exceeded. Defaults to [`Eager`](BackendChoice::Eager).
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Forces the packed state-id width of the **eager** D-SFA transition
    /// tables instead of the automatic narrowest-fit choice (`u8` up to
    /// 256 SFA states, `u16` up to 65 536, `u32` beyond). An override
    /// narrower than the automaton requires is silently widened — it can
    /// never truncate a state id — so the practical use is forcing a
    /// *wider* width, e.g. [`StateIdRepr::U32`] to benchmark the packed
    /// tables against the unpacked baseline on identical automata. Lazy
    /// backends ignore it (see [`SfaConfig::repr`]).
    pub fn state_id_repr(mut self, repr: StateIdRepr) -> Self {
        self.sfa.repr = Some(repr);
        self
    }

    /// Default parallelism used by `is_match` (and streaming / batching):
    /// the number of chunks the input is cut into, further capped at the
    /// engine's worker count at match time.
    ///
    /// `0` is treated as `1` — the [crate-wide `0 ⇒ 1` clamp](crate)
    /// (see "The `0 ⇒ 1` parallelism clamp" in the crate docs).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Default reduction strategy used by `is_match`.
    pub fn reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }

    /// Execution engine for parallel matching. Defaults to the shared
    /// process-wide pool ([`Engine::global`], one worker per CPU); pass a
    /// dedicated [`Engine`] to control the worker count or pool lifetime.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Whether a multi-pattern [`RegexSet`] keeps each pattern's identity
    /// through compilation (default `true`).
    ///
    /// Per-rule verdicts have an automaton-size cost: the DFA must
    /// remember *which* rules already matched, and every hit-combination
    /// of independent `Contains` rules is reachable, so it can grow with
    /// `2^rules`. A set that will only ever be asked the any-match
    /// questions ([`RegexSet::is_match`] / [`RegexSet::match_batch`] /
    /// [`StreamMatcher::finish`]) can pass `false` to compile the plain
    /// union instead — the pre-per-rule automaton, often several times
    /// smaller. On such a set the per-rule APIs ([`RegexSet::matches`]
    /// and friends) panic rather than misreport.
    ///
    /// Single-pattern [`Regex::new`]/[`build`](RegexBuilder::build)
    /// compilations are unaffected (one pattern tracks for free).
    pub fn track_patterns(mut self, yes: bool) -> Self {
        self.track_patterns = yes;
        self
    }

    /// Auto-shard multi-pattern [`RegexSet`] compilations so that no
    /// shard's product DFA exceeds `budget` determinized states.
    ///
    /// Tracked `Contains`-mode rule sets pay an exponential price for
    /// per-rule verdicts: the combined DFA must remember which rules
    /// already hit, and every hit-combination of independent rules is
    /// reachable, so it can grow with `2^rules`. With a budget set, the
    /// builder instead packs the rules greedily into **shards** — each
    /// extended one rule at a time for as long as an incremental
    /// determinization stays within the budget — and compiles each shard
    /// through the ordinary [`backend`](RegexBuilder::backend) path. The
    /// per-shard verdicts are merged behind the unchanged
    /// [`RegexSet::matches`] / [`RegexSet::matches_batch`] /
    /// [`SetStream::set_matches`] API, so callers only see that compile
    /// time and memory stop exploding.
    ///
    /// A rule whose *own* DFA exceeds the budget gets a **singleton
    /// shard** compiled under the full
    /// [`max_dfa_states`](RegexBuilder::max_dfa_states) limit instead
    /// (marked [`Shard::is_fallback`]) — one pathological rule degrades
    /// only itself. Shards whose every rule has a
    /// [required literal](sfa_regex_syntax::required_literals) are
    /// additionally gated behind a multi-literal [`Prefilter`]: their
    /// automata are only consulted on haystacks where a literal occurs.
    ///
    /// Only [`RegexSet::new`] with ≥ 2 distinct patterns shards;
    /// single-pattern and [`build`](RegexBuilder::build) compilations
    /// ignore the budget.
    pub fn shard_state_budget(mut self, budget: usize) -> Self {
        self.shard_budget = Some(budget);
        self
    }

    /// Compiles the pattern through the full pipeline.
    pub fn build(&self, pattern: &str) -> Result<Regex, CompileError> {
        let parser = Parser::with_config(self.parser.clone());
        let ast = parser.parse(pattern)?;
        self.build_from_asts(pattern.to_string(), vec![ast])
    }

    /// Compiles already-parsed pattern ASTs, one per branch (shared by
    /// [`build`](Self::build) and [`RegexSet::new`], which hands its
    /// branches in directly — no re-serialize/re-parse round trip).
    ///
    /// Each branch keeps its identity: branch `i`'s accept states are
    /// tagged with pattern id `i` through the NFA → DFA → D-SFA pipeline,
    /// so [`Regex::matches`] can report *which* branches fired. In
    /// `Contains` mode every branch is wrapped in `(?s:.)*…(?s:.)*`
    /// individually, preserving per-branch verdicts for substring scans.
    /// An empty branch list compiles to the void language (the union of
    /// zero languages).
    fn build_from_asts(&self, pattern: String, branches: Vec<Ast>) -> Result<Regex, CompileError> {
        let (branches, collapsed_patterns) = self.wrap_branches(branches);
        let nfa = union_nfa(&branches)?;
        let dfa = determinize(&nfa, &self.dfa)?;
        self.finish_regex(pattern, nfa.num_states(), &dfa, collapsed_patterns)
    }

    /// Applies the pre-NFA AST transformations: collapse into a plain
    /// union when tracking is off (the historical any-match automaton —
    /// never for an empty list: `Ast::alternation([])` is the empty
    /// *string*, not the empty language, see [`RegexSet::new`]), then the
    /// per-branch `(?s:.)*…(?s:.)*` wrap in `Contains` mode. Returns the
    /// transformed branches and whether they were collapsed. Shared with
    /// the shard packer, whose trial determinizations must measure
    /// exactly what the final compile will build.
    pub(crate) fn wrap_branches(&self, branches: Vec<Ast>) -> (Vec<Ast>, bool) {
        let collapsed = !self.track_patterns && branches.len() > 1;
        let branches = if collapsed { vec![Ast::alternation(branches)] } else { branches };
        let branches = branches
            .into_iter()
            .map(|ast| match self.mode {
                MatchMode::Whole => ast,
                MatchMode::Contains => Ast::concat(vec![
                    Ast::star(Ast::Class(perl::any())),
                    ast,
                    Ast::star(Ast::Class(perl::any())),
                ]),
            })
            .collect();
        (branches, collapsed)
    }

    /// The back half of the pipeline: minimize a determinized DFA, pick
    /// the D-SFA backend, and assemble the [`Regex`]. Split from
    /// [`build`](Self::build) so the shard packer can reuse the DFA of
    /// its last successful trial determinization instead of running the
    /// subset construction twice.
    pub(crate) fn finish_regex(
        &self,
        pattern: String,
        nfa_states: usize,
        raw_dfa: &Dfa,
        collapsed_patterns: bool,
    ) -> Result<Regex, CompileError> {
        let dfa = minimize(raw_dfa);
        debug_assert_eq!(dfa.validate(), Ok(()), "minimized DFA failed invariant validation");
        let backend = match self.backend {
            BackendChoice::Eager => SfaBackend::Eager(DSfa::from_dfa(&dfa, &self.sfa)?),
            BackendChoice::Lazy => SfaBackend::Lazy(LazyDSfa::new(dfa.clone())),
            BackendChoice::Auto => match DSfa::from_dfa(&dfa, &self.sfa) {
                Ok(sfa) => SfaBackend::Eager(sfa),
                Err(CompileError::TooManyStates { .. }) => {
                    SfaBackend::Lazy(LazyDSfa::new(dfa.clone()))
                }
                Err(e) => return Err(e),
            },
        };
        Ok(Regex {
            pattern,
            mode: self.mode,
            threads: self.threads,
            reduction: self.reduction,
            engine: self.engine.clone(),
            nfa_states,
            dfa,
            backend,
            collapsed_patterns,
            decided: std::sync::OnceLock::new(),
            convergence: std::sync::OnceLock::new(),
            convergence_summary: None,
        })
    }
}

/// The NFA of a branch list. The single-branch path skips the shared
/// ε-start state of the tagged union, keeping solo compilations
/// byte-identical to the historical pipeline.
pub(crate) fn union_nfa(branches: &[Ast]) -> Result<Nfa, CompileError> {
    match branches {
        [only] => Nfa::from_ast(only),
        many => Nfa::from_asts(many),
    }
}

/// A compiled pattern with sequential and parallel matching.
///
/// Parallel matching runs on a persistent worker pool (the shared
/// [`Engine::global`] unless one was set via [`RegexBuilder::engine`]):
/// repeated `is_match` calls reuse the same long-lived threads, so the
/// process thread count stays constant however many matches are issued.
#[derive(Clone, Debug)]
pub struct Regex {
    pattern: String,
    mode: MatchMode,
    threads: usize,
    reduction: Reduction,
    engine: Option<Engine>,
    nfa_states: usize,
    dfa: Dfa,
    backend: SfaBackend,
    /// True when multiple patterns were collapsed into one any-match
    /// union by [`RegexBuilder::track_patterns`]`(false)`: per-rule
    /// verdict APIs must refuse rather than misreport.
    collapsed_patterns: bool,
    /// Per-DFA-state verdict-finality bitmaps for streaming, computed on
    /// first use (only streams consult them; plain matching never pays).
    decided: std::sync::OnceLock<DecidedMaps>,
    /// Offline convergence analysis of the DFA, computed on first use
    /// (by [`Strategy::Auto`] resolution, speculative runs and
    /// [`Regex::size_report`]).
    convergence: std::sync::OnceLock<sfa_analysis::ConvergenceReport>,
    /// The durable projection of the convergence analysis carried by an
    /// artifact ([`Regex::from_artifact`]). Lets [`Strategy::Auto`] and
    /// [`Regex::size_report`] answer without re-running the reach-set
    /// analysis; an actual guided speculative run still computes the full
    /// report (it needs the per-state entry sets, not just the class).
    convergence_summary: Option<sfa_analysis::ConvergenceSummary>,
}

/// Which stream verdicts are final in which DFA states (see
/// [`Dfa::verdict_decided_states`] / [`Dfa::accept_set_decided_states`]).
#[derive(Clone, Debug)]
pub(crate) struct DecidedMaps {
    /// The boolean any-match verdict can no longer change.
    pub(crate) any: Vec<bool>,
    /// The full per-pattern accept set can no longer change.
    pub(crate) set: Vec<bool>,
}

impl Regex {
    /// Compiles a pattern with default settings (whole-input semantics).
    pub fn new(pattern: &str) -> Result<Regex, CompileError> {
        RegexBuilder::default().build(pattern)
    }

    /// Starts a builder.
    pub fn builder() -> RegexBuilder {
        RegexBuilder::default()
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// The match semantics this regex was compiled with.
    pub fn mode(&self) -> MatchMode {
        self.mode
    }

    /// The minimal DFA backing this regex.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// The D-SFA backend backing this regex — eager tables or the
    /// on-the-fly construction, depending on
    /// [`RegexBuilder::backend`] (and, for
    /// [`Auto`](BackendChoice::Auto), on whether the eager construction
    /// fit [`RegexBuilder::max_sfa_states`]).
    pub fn sfa(&self) -> &SfaBackend {
        &self.backend
    }

    /// Which backend this regex compiled to — useful for observing the
    /// [`Auto`](BackendChoice::Auto) decision.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Number of states of the intermediate NFA (Table II's `|N|`).
    pub fn nfa_states(&self) -> usize {
        self.nfa_states
    }

    /// Size report for this pattern (the Figure 3 data point). With a
    /// lazy backend the SFA-side numbers are a live snapshot of the
    /// materialized cache — query again after matching to see how many
    /// states the traffic visited (see [`SizeReport`]).
    pub fn size_report(&self) -> SizeReport {
        let mut report = SizeReport::of_backend(&self.dfa, &self.backend);
        // The durable summary answers the report's two convergence fields
        // without the full reach-set analysis — on artifact-loaded
        // regexes, size reporting stays a metadata read.
        let (horizon, survivors) = match (self.convergence.get(), &self.convergence_summary) {
            (Some(full), _) => (full.compaction_horizon(), full.survivor_count()),
            (None, Some(summary)) => (summary.compaction_horizon(), summary.survivor_count()),
            (None, None) => {
                let full = self.convergence_report();
                (full.compaction_horizon(), full.survivor_count())
            }
        };
        report.convergence_horizon = horizon;
        report.survivor_states = survivors;
        report
    }

    /// The offline convergence analysis of this regex's DFA, computed on
    /// first use and cached for the regex's lifetime: reach sets, reset
    /// word, dead/sink maps and the
    /// [`ConvergenceClass`](sfa_analysis::ConvergenceClass) verdict that
    /// steers [`Strategy::Auto`] (see [`Regex::auto_strategy`]).
    pub fn convergence_report(&self) -> &sfa_analysis::ConvergenceReport {
        self.convergence.get_or_init(|| sfa_analysis::ConvergenceReport::analyze(&self.dfa))
    }

    /// Serializes this regex's compiled automata into a durable artifact
    /// (see [`sfa_serialize`]): the DFA, the eager D-SFA tables at their
    /// packed width, the decided-state bitmaps, and the convergence
    /// summary (computed now if it never ran — artifact encoding is the
    /// build-time step, so the analysis cost belongs here, not at load).
    ///
    /// Only eager backends serialize
    /// ([`Error::ArtifactRequiresEagerBackend`] otherwise): a lazy
    /// backend has no complete table set. A regex loaded from an artifact
    /// is eager and re-encodes to the very bytes it was loaded from.
    ///
    /// ```
    /// use sfa_matcher::Regex;
    /// use std::sync::Arc;
    ///
    /// let re = Regex::new("(ab)*").unwrap();
    /// let artifact = re.to_artifact().unwrap();
    /// let loaded = Regex::from_artifact(Arc::new(artifact)).unwrap();
    /// assert!(loaded.is_match(b"abab"));
    /// assert!(!loaded.is_match(b"aba"));
    /// ```
    pub fn to_artifact(&self) -> Result<Vec<u8>, Error> {
        let Some(sfa) = self.backend.eager() else {
            return Err(Error::ArtifactRequiresEagerBackend);
        };
        let maps = self.decided_maps();
        // A loaded regex re-encodes the summary it was loaded with.
        let summary =
            self.convergence_summary.clone().unwrap_or_else(|| self.convergence_report().summary());
        Ok(sfa_serialize::ArtifactSource {
            pattern: &self.pattern,
            mode: match self.mode {
                MatchMode::Whole => 0,
                MatchMode::Contains => 1,
            },
            collapsed: self.collapsed_patterns,
            nfa_states: self.nfa_states as u32,
            dfa: &self.dfa,
            sfa,
            decided_verdict: &maps.any,
            decided_accept: &maps.set,
            convergence: Some(&summary),
        }
        .encode_to_vec())
    }

    /// Reconstructs a regex from an artifact buffer **zero-copy**: the
    /// artifact's SFA sections are already the eager [`DSfa`]'s storage
    /// layout, so the automaton reads its big transition tables in place
    /// from `data` — not rebuilt and not copied — and cold start is a
    /// validation pass instead of a compile. The result is an ordinary
    /// eager backend: every scan kernel, lane count and sequential fast
    /// path of the compiled regex applies, and
    /// [`to_artifact`](Regex::to_artifact) re-encodes it. Corrupt or
    /// version-skewed artifacts fail closed with the typed
    /// [`Error::ArtifactCorrupt`] / [`Error::ArtifactVersionMismatch`]
    /// variants.
    ///
    /// The loaded regex answers with the exact verdicts of the regex that
    /// encoded the artifact. Runtime knobs (threads, engine, reduction)
    /// are not part of the artifact; the defaults apply.
    pub fn from_artifact(data: sfa_core::ArtifactBytes) -> Result<Regex, Error> {
        Self::from_loaded(sfa_serialize::load(data)?)
    }

    /// [`from_artifact`](Regex::from_artifact) over a memory-mapped file:
    /// the mapping stays alive for the regex's lifetime and its table
    /// pages are faulted in on demand by actual matching.
    pub fn load_artifact(path: impl AsRef<std::path::Path>) -> Result<Regex, Error> {
        Self::from_loaded(sfa_serialize::load_file(path)?)
    }

    fn from_loaded(loaded: sfa_serialize::LoadedArtifact) -> Result<Regex, Error> {
        let mode = match loaded.mode {
            0 => MatchMode::Whole,
            1 => MatchMode::Contains,
            // Offset 13 is the mode byte's position in the header.
            other => {
                return Err(Error::ArtifactCorrupt {
                    offset: 13,
                    reason: format!("unknown match mode {other}"),
                })
            }
        };
        let decided = std::sync::OnceLock::new();
        decided
            .set(DecidedMaps { any: loaded.decided_verdict, set: loaded.decided_accept })
            .expect("fresh OnceLock accepts its first value");
        Ok(Regex {
            pattern: loaded.pattern,
            mode,
            threads: default_threads(),
            reduction: Reduction::Sequential,
            engine: None,
            nfa_states: loaded.nfa_states as usize,
            dfa: loaded.dfa,
            backend: SfaBackend::Eager(loaded.sfa),
            collapsed_patterns: loaded.collapsed,
            decided,
            convergence: std::sync::OnceLock::new(),
            convergence_summary: loaded.convergence,
        })
    }

    /// The execution engine parallel matching runs on (the shared global
    /// pool unless one was configured via [`RegexBuilder::engine`]).
    pub fn engine(&self) -> &Engine {
        self.engine.as_ref().unwrap_or_else(|| Engine::global())
    }

    /// The default parallelism configured via [`RegexBuilder::threads`]
    /// (used by [`is_match`](Regex::is_match), streaming and batching).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Starts a [`StreamMatcher`]: incremental matching over input that
    /// arrives in blocks, with the same verdict as [`is_match`] on the
    /// concatenated stream. See [`crate::stream`].
    ///
    /// [`is_match`]: Regex::is_match
    ///
    /// ```
    /// use sfa_matcher::Regex;
    ///
    /// let re = Regex::new("(ab)*").unwrap();
    /// let mut stream = re.stream();
    /// stream.feed(b"aba").feed(b"bab");
    /// assert!(stream.finish()); // same as re.is_match(b"ababab")
    /// ```
    pub fn stream(&self) -> StreamMatcher<'_> {
        StreamMatcher::new(self)
    }

    /// Resolves [`Strategy::Auto`] against the builder-configured
    /// defaults; every other strategy passes through unchanged.
    fn resolve(&self, strategy: Strategy) -> Strategy {
        match strategy {
            Strategy::Auto => self.auto_strategy(),
            other => other,
        }
    }

    /// What [`Strategy::Auto`] resolves to for this regex: `Sequential`
    /// for single-threaded builds; otherwise the convergence analysis
    /// decides — a
    /// [`Synchronizing`](sfa_analysis::ConvergenceClass::Synchronizing)
    /// automaton gets guided `Speculative` matching (entry sets collapse,
    /// so each chunk costs ~`O(n/p)` like the sequential scan but in
    /// parallel), everything else keeps the SFA-composition `Parallel`
    /// path, whose per-chunk cost never depends on convergence.
    pub fn auto_strategy(&self) -> Strategy {
        if self.threads <= 1 {
            Strategy::Sequential
        } else if self.prefers_speculation() {
            Strategy::Speculative { threads: self.threads, reduction: self.reduction }
        } else {
            Strategy::Parallel { threads: self.threads, reduction: self.reduction }
        }
    }

    /// Whether [`Strategy::Auto`] should pick guided speculation,
    /// answered from the cheapest available source: an already-computed
    /// full report, else the durable summary an artifact carried, else a
    /// fresh analysis.
    fn prefers_speculation(&self) -> bool {
        if let Some(full) = self.convergence.get() {
            return full.prefers_speculation();
        }
        if let Some(summary) = &self.convergence_summary {
            return summary.prefers_speculation();
        }
        self.convergence_report().prefers_speculation()
    }

    /// The single execution core every verdict API routes through: runs
    /// the input under the given [`Strategy`] and returns the **final DFA
    /// state** — Algorithm 2's end state, or the state the chunk
    /// reduction lands on (identical by Theorem 3, whatever the split).
    ///
    /// Every verdict is a view of that state: [`is_match`](Regex::is_match)
    /// asks whether it accepts, [`matches`](Regex::matches) reads its
    /// per-pattern accept set, and the batch APIs map it over many
    /// haystacks. Parallel strategies execute on the configured persistent
    /// engine — no threads are spawned per call, and `threads` only caps
    /// the chunk count (the crate-wide [`0 ⇒ 1` clamp](crate) applies).
    ///
    /// ```
    /// use sfa_matcher::{Regex, Strategy};
    ///
    /// let re = Regex::new("(ab)*").unwrap();
    /// let q = re.run(b"abab", Strategy::Sequential);
    /// assert!(re.dfa().is_accepting(q));
    /// assert_eq!(q, re.run(b"abab", Strategy::parallel(4)));
    /// ```
    pub fn run(&self, input: &[u8], strategy: Strategy) -> StateId {
        match self.resolve(strategy) {
            Strategy::Sequential => self.run_sequential(input),
            Strategy::Parallel { threads, reduction } => {
                ParallelSfaMatcher::with_engine(&self.backend, self.engine().clone())
                    .run(input, threads, reduction)
            }
            Strategy::Speculative { threads, reduction } => {
                SpeculativeDfaMatcher::with_engine(&self.dfa, self.engine().clone())
                    .with_analysis(self.convergence_report())
                    .run(input, threads, reduction)
            }
            Strategy::Auto => unreachable!("resolve() eliminated Auto"),
        }
    }

    /// The byte-table size up to which [`Strategy::Sequential`] scans the
    /// eager premultiplied D-SFA instead of the DFA (128 KiB — small
    /// enough to stay cache-resident; a `u8`-packed 256-state table is
    /// 64 KiB).
    ///
    /// The SFA byte table folds the byte-class indirection away — one
    /// dependent load per byte instead of the DFA's two — and the packed
    /// width keeps the whole table in L1/L2, so for small automata this is
    /// the fastest sequential path. Above the threshold the class-
    /// compressed DFA rows win (the dense SFA table would thrash the
    /// cache), so big automata keep the classic Algorithm 2 scan.
    const SEQ_BYTE_TABLE_MAX_BYTES: usize = 128 << 10;

    /// Algorithm 2 with a cache-conscious twist: sequential scanning
    /// through whichever table representation is fastest for this
    /// automaton. The final DFA state is identical either way — the SFA
    /// end state's mapping applied to the DFA start state *is* the DFA
    /// run (Lemma 1).
    fn run_sequential(&self, input: &[u8]) -> StateId {
        if let SfaBackend::Eager(sfa) = &self.backend {
            if sfa.premultiplied() && sfa.byte_table_bytes() <= Self::SEQ_BYTE_TABLE_MAX_BYTES {
                return sfa.apply(sfa.run(input), self.dfa.start());
            }
        }
        self.dfa.run(input)
    }

    /// Matches under an explicit [`Strategy`].
    pub fn is_match_with(&self, input: &[u8], strategy: Strategy) -> bool {
        self.dfa.is_accepting(self.run(input, strategy))
    }

    /// Matches using the configured defaults ([`Strategy::Auto`]:
    /// sequential for single-threaded builds, parallel SFA matching
    /// otherwise).
    pub fn is_match(&self, input: &[u8]) -> bool {
        self.is_match_with(input, Strategy::Auto)
    }

    /// The per-pattern verdict under the configured defaults: which of
    /// the compiled patterns match the input. For a plain single-pattern
    /// regex the set has one slot; the interesting case is a
    /// [`RegexSet`]-compiled automaton, where one pass yields every
    /// rule's verdict. See [`RegexSet::matches`].
    pub fn matches(&self, input: &[u8]) -> SetMatches {
        self.matches_with(input, Strategy::Auto)
    }

    /// The per-pattern verdict under an explicit [`Strategy`]. The accept
    /// predicate is richer than [`is_match_with`](Regex::is_match_with) —
    /// a pattern *set* instead of a boolean — but the execution is the
    /// same single pass: Theorem 3's composition is untouched, so the
    /// verdict is identical under every strategy and both backends.
    ///
    /// A documented wrapper around
    /// [`try_matches_with`](Regex::try_matches_with) that panics on
    /// [`Error::PatternTrackingDisabled`].
    pub fn matches_with(&self, input: &[u8], strategy: Strategy) -> SetMatches {
        match self.try_matches_with(input, strategy) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`matches`](Regex::matches): `Err` instead of a panic
    /// when this automaton was compiled with
    /// [`RegexBuilder::track_patterns`]`(false)`.
    pub fn try_matches(&self, input: &[u8]) -> Result<SetMatches, Error> {
        self.try_matches_with(input, Strategy::Auto)
    }

    /// Fallible [`matches_with`](Regex::matches_with): `Err` instead of a
    /// panic when this automaton was compiled with
    /// [`RegexBuilder::track_patterns`]`(false)`.
    pub fn try_matches_with(&self, input: &[u8], strategy: Strategy) -> Result<SetMatches, Error> {
        self.check_tracking()?;
        Ok(SetMatches::new(self.dfa.accept_set(self.run(input, strategy)).clone()))
    }

    /// Number of original patterns compiled into this automaton: 1 for
    /// [`Regex::new`]-style builds, the rule count for a [`RegexSet`].
    pub fn pattern_count(&self) -> usize {
        self.dfa.pattern_count()
    }

    /// Whether per-pattern identities survived compilation. Only false
    /// when a multi-pattern set was compiled with
    /// [`RegexBuilder::track_patterns`]`(false)` — the per-rule verdict
    /// APIs ([`matches`](Regex::matches) and friends, and the stream's
    /// [`set_matches`](StreamMatcher::set_matches)) panic on such a
    /// regex rather than attribute the any-match union verdict to
    /// pattern 0.
    pub fn tracks_patterns(&self) -> bool {
        !self.collapsed_patterns
    }

    /// The typed form of the tracking precondition: `Err` when per-rule
    /// verdicts were compiled away. Every `try_*` verdict API starts
    /// here; the panicking APIs are wrappers over the `try_*` ones.
    pub(crate) fn check_tracking(&self) -> Result<(), Error> {
        if self.tracks_patterns() {
            Ok(())
        } else {
            Err(Error::PatternTrackingDisabled)
        }
    }

    /// The verdict-finality bitmaps streams use to finalize early,
    /// computed once per compiled regex on first use.
    pub(crate) fn decided_maps(&self) -> &DecidedMaps {
        self.decided.get_or_init(|| {
            let (any, set) = self.dfa.verdict_and_accept_set_decided_states();
            DecidedMaps { any, set }
        })
    }

    /// Matches many haystacks as **one** pool batch, returning one verdict
    /// per haystack (in order).
    ///
    /// This is the request-serving dual of chunk parallelism: instead of
    /// splitting one large input across workers, it spreads many (typically
    /// small) inputs across workers, paying one pool hand-off for the whole
    /// batch instead of one dispatch decision per call.
    ///
    /// Each small haystack starts at the DFA start state, so no chunk ever
    /// has an unknown start state and, by Lemma 1, the SFA has nothing to
    /// add: the batch runs Algorithm 2 on the DFA. It does so in lockstep
    /// groups of [`DFA_LANES`] haystacks ([`Dfa::run_many`]), so that many
    /// independent table-load chains overlap instead of one haystack
    /// waiting on each load in turn. A haystack large enough that a plain
    /// [`is_match`](Regex::is_match) would cut it into pool chunks is
    /// matched that way instead, so a size-skewed batch never serializes
    /// its biggest element on one worker.
    ///
    /// The small haystacks are cut into at most
    /// [`threads`](RegexBuilder::threads) contiguous shards (capped at the
    /// engine's worker count), each scanned by one lockstep walk; batches
    /// whose total size is too small to amortize the hand-off run inline.
    ///
    /// [`DFA_LANES`]: sfa_automata::DFA_LANES
    ///
    /// ```
    /// use sfa_matcher::Regex;
    ///
    /// let re = Regex::new("(ab)*").unwrap();
    /// let verdicts = re.is_match_batch(&[&b"abab"[..], b"aba", b""]);
    /// assert_eq!(verdicts, vec![true, false, true]);
    /// ```
    pub fn is_match_batch(&self, haystacks: &[&[u8]]) -> Vec<bool> {
        self.run_batch(haystacks).into_iter().map(|q| self.dfa.is_accepting(q)).collect()
    }

    /// The per-pattern verdict for many haystacks as one pool batch —
    /// [`matches`](Regex::matches) what [`is_match_batch`](Regex::is_match_batch)
    /// is to [`is_match`](Regex::is_match); same sharding plan, richer
    /// verdict. See [`RegexSet::matches_batch`].
    ///
    /// A documented wrapper around
    /// [`try_matches_batch`](Regex::try_matches_batch) that panics on
    /// [`Error::PatternTrackingDisabled`].
    pub fn matches_batch(&self, haystacks: &[&[u8]]) -> Vec<SetMatches> {
        match self.try_matches_batch(haystacks) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`matches_batch`](Regex::matches_batch): `Err` instead of
    /// a panic when this automaton was compiled with
    /// [`RegexBuilder::track_patterns`]`(false)`.
    pub fn try_matches_batch(&self, haystacks: &[&[u8]]) -> Result<Vec<SetMatches>, Error> {
        self.check_tracking()?;
        Ok(self
            .run_batch(haystacks)
            .into_iter()
            .map(|q| SetMatches::new(self.dfa.accept_set(q).clone()))
            .collect())
    }

    /// The batch execution core: the final DFA state of every haystack,
    /// computed with the plan described on
    /// [`is_match_batch`](Regex::is_match_batch) — oversized haystacks
    /// through their own chunk-parallel [`run`](Regex::run), the rest
    /// through [`Dfa::run_many`] in lockstep groups of
    /// [`DFA_LANES`](sfa_automata::DFA_LANES), inline or one walk per pool
    /// shard. No backend kind or table size forks this path: the SFA
    /// tables are never consulted, since every haystack starts at `q0`.
    /// Both batch verdict APIs are views of this, exactly as the
    /// single-shot APIs are views of [`run`](Regex::run).
    fn run_batch(&self, haystacks: &[&[u8]]) -> Vec<StateId> {
        let engine = self.engine();
        let shards = self.threads.clamp(1, engine.workers());
        let mut out = vec![self.dfa.start(); haystacks.len()];
        // Oversized haystacks go through their own chunk-parallel plan;
        // everything below the pool threshold is collected for sharding.
        let mut small: Vec<usize> = Vec::with_capacity(haystacks.len());
        for (i, h) in haystacks.iter().enumerate() {
            if engine.plan_chunks(h.len(), self.threads).use_pool {
                out[i] = self.run(
                    h,
                    Strategy::Parallel { threads: self.threads, reduction: self.reduction },
                );
            } else {
                small.push(i);
            }
        }
        let inputs: Vec<&[u8]> = small.iter().map(|&i| haystacks[i]).collect();
        let total: usize = inputs.iter().map(|h| h.len()).sum();
        let finals = if shards <= 1 || inputs.len() <= 1 || total / shards < MIN_POOL_CHUNK_BYTES {
            self.dfa.run_many(&inputs)
        } else {
            let shard_len = inputs.len().div_ceil(shards);
            engine
                .map_chunks(inputs.chunks(shard_len).collect(), true, |_, shard| {
                    self.dfa.run_many(shard)
                })
                .concat()
        };
        for (&i, q) in small.iter().zip(finals) {
            out[i] = q;
        }
        out
    }
}

/// A set of patterns compiled with **per-pattern verdicts**, the way an
/// IDS engine batches its ruleset: one pass over the input answers both
/// "does any rule match?" ([`is_match`](RegexSet::is_match)) and
/// "*which* rules match?" ([`matches`](RegexSet::matches)).
///
/// By default the whole set compiles into one combined automaton. With
/// [`RegexBuilder::shard_state_budget`] set, it compiles into several
/// budget-bounded **shards** plus an optional literal [`Prefilter`]
/// instead — same API, same verdicts, without the `~2^rules` product-DFA
/// blowup of large tracked rule sets.
#[derive(Clone, Debug)]
pub struct RegexSet {
    patterns: Vec<String>,
    /// Global pattern index → index in the deduplicated universe the
    /// automata run over (identical patterns share a verdict bit).
    dup_of: Vec<PatternId>,
    /// Size of the deduplicated universe.
    unique: usize,
    inner: SetInner,
}

/// How a [`RegexSet`] was compiled.
#[derive(Clone, Debug)]
pub(crate) enum SetInner {
    /// One combined automaton (no shard budget, or < 2 distinct rules).
    Single(Box<Regex>),
    /// Budget-bounded shards with an optional literal prefilter.
    Sharded(Box<ShardedSet>),
}

/// The display label of a pattern list (the union's `Regex::pattern`).
pub(crate) fn set_label(texts: &[String]) -> String {
    match texts {
        [] => "[]".to_string(),
        [only] => only.clone(),
        many => many.join("|"),
    }
}

impl RegexSet {
    /// Compiles all patterns with the given builder settings, preserving
    /// each pattern's identity (pattern `i` of the iterator is index `i`
    /// of every [`SetMatches`] verdict).
    ///
    /// Each pattern is parsed once and its AST handed straight into the
    /// pipeline — no union re-serialization round trip. **Duplicate**
    /// patterns (identical ASTs — `(a)b` duplicates `ab`) compile once
    /// and share a verdict bit, so they cannot inflate the product DFA;
    /// the duplicate indices still report independently in every verdict.
    /// An **empty** pattern list compiles to the *void* language: a set
    /// with no rules matches nothing, in either match mode. (The union of
    /// zero languages is empty — it is not the empty *string*.)
    ///
    /// With [`RegexBuilder::shard_state_budget`] set and ≥ 2 distinct
    /// patterns, the set compiles sharded; see that method for the model.
    pub fn new<'a, I>(patterns: I, builder: &RegexBuilder) -> Result<RegexSet, CompileError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let patterns: Vec<String> = patterns.into_iter().map(|s| s.to_string()).collect();
        let parser = Parser::with_config(builder.parser.clone());
        let mut seen: HashMap<Ast, PatternId> = HashMap::new();
        let mut dup_of: Vec<PatternId> = Vec::with_capacity(patterns.len());
        let mut unique_asts: Vec<Ast> = Vec::new();
        let mut unique_texts: Vec<String> = Vec::new();
        for p in &patterns {
            let ast = parser.parse(p)?;
            let id = *seen.entry(ast.clone()).or_insert_with(|| {
                unique_asts.push(ast);
                unique_texts.push(p.clone());
                (unique_asts.len() - 1) as PatternId
            });
            dup_of.push(id);
        }
        let unique = unique_asts.len();
        let inner = match builder.shard_budget {
            Some(budget) if unique > 1 => SetInner::Sharded(Box::new(ShardedSet::build(
                builder,
                &unique_texts,
                &unique_asts,
                budget,
            )?)),
            _ => SetInner::Single(Box::new(
                builder.build_from_asts(set_label(&unique_texts), unique_asts)?,
            )),
        };
        Ok(RegexSet { patterns, dup_of, unique, inner })
    }

    /// The individual patterns, in verdict-index order.
    pub fn patterns(&self) -> &[String] {
        &self.patterns
    }

    /// The number of patterns in the set.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns true if the set contains no patterns (and therefore
    /// matches nothing).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The combined regex backing a single-automaton set.
    ///
    /// # Panics
    ///
    /// Panics when the set was compiled with
    /// [`RegexBuilder::shard_state_budget`] — a sharded set has no single
    /// combined automaton. Inspect [`shards`](RegexSet::shards) and
    /// [`size_report`](RegexSet::size_report) instead (or check
    /// [`is_sharded`](RegexSet::is_sharded) first).
    pub fn regex(&self) -> &Regex {
        match &self.inner {
            SetInner::Single(regex) => regex,
            SetInner::Sharded(_) => panic!(
                "RegexSet::regex(): this set was compiled with \
                 RegexBuilder::shard_state_budget and has no single combined automaton; \
                 inspect shards() or size_report() instead"
            ),
        }
    }

    /// Whether this set compiled into budget-bounded shards (see
    /// [`RegexBuilder::shard_state_budget`]).
    pub fn is_sharded(&self) -> bool {
        matches!(self.inner, SetInner::Sharded(_))
    }

    /// The shards of a sharded set, in packing order; empty for a
    /// single-automaton set.
    pub fn shards(&self) -> &[Shard] {
        match &self.inner {
            SetInner::Single(_) => &[],
            SetInner::Sharded(sharded) => &sharded.shards,
        }
    }

    /// The multi-literal prefilter gating this set's literal-only shards,
    /// if any shard is gated (sharded sets only).
    pub fn prefilter(&self) -> Option<&Prefilter> {
        match &self.inner {
            SetInner::Single(_) => None,
            SetInner::Sharded(sharded) => sharded.prefilter.as_ref(),
        }
    }

    /// The per-shard DFA state budget this set was compiled under, or
    /// `None` for a single-automaton set.
    pub fn shard_state_budget(&self) -> Option<usize> {
        match &self.inner {
            SetInner::Single(_) => None,
            SetInner::Sharded(sharded) => Some(sharded.budget),
        }
    }

    /// Size report for the whole set: the single automaton's report, or
    /// the [combination](SizeReport::combine) of the per-shard reports
    /// (sums plus [`SizeReport::shards`] /
    /// [`SizeReport::max_shard_dfa_states`]).
    pub fn size_report(&self) -> SizeReport {
        match &self.inner {
            SetInner::Single(regex) => regex.size_report(),
            SetInner::Sharded(sharded) => sharded.size_report(),
        }
    }

    /// Whether this set was compiled with per-pattern tracking (see
    /// [`RegexBuilder::track_patterns`]). When `false`, only the
    /// any-match APIs are available — the per-rule ones panic (or return
    /// [`Error::PatternTrackingDisabled`] from the `try_*` variants).
    pub fn tracks_patterns(&self) -> bool {
        match &self.inner {
            SetInner::Single(regex) => regex.tracks_patterns(),
            SetInner::Sharded(sharded) => sharded.tracked,
        }
    }

    /// True if any pattern matches (under the builder's match mode). On a
    /// sharded set, prefilter-gated shards whose literals do not occur in
    /// the input are skipped entirely.
    pub fn is_match(&self, input: &[u8]) -> bool {
        match &self.inner {
            SetInner::Single(regex) => regex.is_match(input),
            SetInner::Sharded(sharded) => sharded.is_match(input),
        }
    }

    /// **Which** patterns match the input — the full per-rule verdict in
    /// a single pass over the haystack, under the configured defaults.
    ///
    /// The verdict is identical to compiling every pattern individually
    /// and asking each for [`Regex::is_match`], but costs one scan of the
    /// combined automaton instead of `N` (see `benches/multimatch.rs`),
    /// and is the same under every [`Strategy`], both backends, and
    /// sharded or not.
    ///
    /// A documented wrapper around
    /// [`try_matches`](RegexSet::try_matches) that panics on
    /// [`Error::PatternTrackingDisabled`].
    ///
    /// ```
    /// use sfa_matcher::{MatchMode, Regex, RegexSet};
    ///
    /// let set = RegexSet::new(
    ///     ["GET /[a-z]+", "POST /login", "HEAD /status"],
    ///     &Regex::builder().mode(MatchMode::Contains),
    /// )
    /// .unwrap();
    /// let m = set.matches(b"POST /login HTTP/1.1");
    /// assert!(m.matched(1));
    /// assert!(!m.matched(0) && !m.matched(2));
    /// ```
    pub fn matches(&self, input: &[u8]) -> SetMatches {
        self.matches_with(input, Strategy::Auto)
    }

    /// [`matches`](RegexSet::matches) under an explicit [`Strategy`].
    pub fn matches_with(&self, input: &[u8], strategy: Strategy) -> SetMatches {
        match self.try_matches_with(input, strategy) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`matches`](RegexSet::matches): `Err` instead of a panic
    /// when the set was compiled with
    /// [`RegexBuilder::track_patterns`]`(false)`.
    pub fn try_matches(&self, input: &[u8]) -> Result<SetMatches, Error> {
        self.try_matches_with(input, Strategy::Auto)
    }

    /// Fallible [`matches_with`](RegexSet::matches_with).
    pub fn try_matches_with(&self, input: &[u8], strategy: Strategy) -> Result<SetMatches, Error> {
        let uniq = match &self.inner {
            SetInner::Single(regex) => regex.try_matches_with(input, strategy)?,
            SetInner::Sharded(sharded) => SetMatches::new(sharded.matches_with(input, strategy)?),
        };
        Ok(self.expand(uniq))
    }

    /// Matches many haystacks as one pool batch — "does any pattern match
    /// this request?", amortized across the whole batch. Verdicts are in
    /// haystack order. See [`Regex::is_match_batch`].
    pub fn match_batch(&self, haystacks: &[&[u8]]) -> Vec<bool> {
        match &self.inner {
            SetInner::Single(regex) => regex.is_match_batch(haystacks),
            SetInner::Sharded(sharded) => sharded.match_batch(haystacks),
        }
    }

    /// Per-pattern verdicts for many haystacks as one pool batch (the
    /// rule-set dual of [`match_batch`](RegexSet::match_batch)): one
    /// [`SetMatches`] per haystack, in order. See
    /// [`Regex::matches_batch`].
    ///
    /// A documented wrapper around
    /// [`try_matches_batch`](RegexSet::try_matches_batch) that panics on
    /// [`Error::PatternTrackingDisabled`].
    pub fn matches_batch(&self, haystacks: &[&[u8]]) -> Vec<SetMatches> {
        match self.try_matches_batch(haystacks) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`matches_batch`](RegexSet::matches_batch): `Err` instead
    /// of a panic when the set was compiled with
    /// [`RegexBuilder::track_patterns`]`(false)`.
    pub fn try_matches_batch(&self, haystacks: &[&[u8]]) -> Result<Vec<SetMatches>, Error> {
        let uniq: Vec<SetMatches> = match &self.inner {
            SetInner::Single(regex) => regex.try_matches_batch(haystacks)?,
            SetInner::Sharded(sharded) => {
                sharded.matches_batch(haystacks)?.into_iter().map(SetMatches::new).collect()
            }
        };
        Ok(uniq.into_iter().map(|m| self.expand(m)).collect())
    }

    /// Starts a [`SetStream`]: incremental matching over input arriving
    /// in blocks — any-match via [`finish`](SetStream::finish), per-rule
    /// via [`set_matches`](SetStream::set_matches) /
    /// [`set_verdict`](SetStream::set_verdict). On a sharded set this
    /// runs one stream per shard; the prefilter is **not** used (a
    /// literal may straddle feed boundaries that already scrolled past a
    /// skipped shard, so streaming always feeds every shard). See
    /// [`crate::stream`].
    pub fn stream(&self) -> SetStream<'_> {
        SetStream::new(self)
    }

    /// The compiled representation, for the stream driver.
    pub(crate) fn inner(&self) -> &SetInner {
        &self.inner
    }

    /// Lifts a verdict over the deduplicated universe to the caller's
    /// pattern indices (identity when the set has no duplicates).
    pub(crate) fn expand(&self, uniq: SetMatches) -> SetMatches {
        if self.dup_of.len() == self.unique {
            return uniq;
        }
        let mut out = PatternSet::new(self.patterns.len());
        for (i, &u) in self.dup_of.iter().enumerate() {
            if uniq.as_pattern_set().contains(u) {
                out.insert(i as PatternId);
            }
        }
        SetMatches::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    #[test]
    fn whole_match_defaults() {
        let re = Regex::new("(ab)*").unwrap();
        assert!(re.is_match(b"abab"));
        assert!(!re.is_match(b"aba"));
        assert!(re.is_match_with(b"", Strategy::Sequential));
        assert_eq!(re.pattern(), "(ab)*");
        assert_eq!(re.mode(), MatchMode::Whole);
        assert!(re.nfa_states() > 0);
        assert_eq!(re.size_report().sfa_states, re.sfa().num_states());
    }

    #[test]
    fn all_three_algorithms_agree() {
        let re = Regex::new("([0-4]{3}[5-9]{3})*").unwrap();
        let inputs: Vec<&[u8]> = vec![b"", b"000555", b"000555111666", b"00055", b"555000"];
        for input in inputs {
            let expected = re.is_match_with(input, Strategy::Sequential);
            for threads in [1, 2, 4] {
                for reduction in [Reduction::Sequential, Reduction::Tree] {
                    assert_eq!(
                        re.is_match_with(input, Strategy::Parallel { threads, reduction }),
                        expected
                    );
                    assert_eq!(
                        re.is_match_with(input, Strategy::Speculative { threads, reduction }),
                        expected
                    );
                }
            }
        }
    }

    #[test]
    fn contains_mode_scans_substrings() {
        let re = Regex::builder().mode(MatchMode::Contains).build("attack[0-9]{2}").unwrap();
        assert!(re.is_match(b"GET /attack42/index.html"));
        assert!(re.is_match(b"attack99"));
        assert!(!re.is_match(b"attack"));
        assert!(!re.is_match(b"benign traffic"));
        // Parallel contains matching agrees with sequential.
        let text = b"xxxxxxxxxxxxxxxxattack77yyyyyyyyyyyyyyyy";
        for threads in [2, 4, 8] {
            assert!(re.is_match_with(
                text,
                Strategy::Parallel { threads, reduction: Reduction::Sequential }
            ));
        }
    }

    #[test]
    fn case_insensitive_builder() {
        let re = Regex::builder().case_insensitive(true).build("select").unwrap();
        assert!(re.is_match(b"SELECT"));
        assert!(re.is_match(b"SeLeCt"));
        assert!(!re.is_match(b"SELEC"));
    }

    #[test]
    fn threads_and_reduction_defaults_apply() {
        let re = Regex::builder().threads(3).reduction(Reduction::Tree).build("(ab)*").unwrap();
        assert!(re.is_match(b"ababab"));
        assert!(!re.is_match(b"b"));
    }

    #[test]
    fn state_limits_propagate() {
        let err = Regex::builder().max_sfa_states(4).build("([0-4]{3}[5-9]{3})*").unwrap_err();
        assert_eq!(err, CompileError::TooManyStates { limit: 4 });
        let err = Regex::builder().max_dfa_states(2).build("abcdef").unwrap_err();
        assert_eq!(err, CompileError::TooManyStates { limit: 2 });
    }

    #[test]
    fn explicit_lazy_backend_matches_like_eager() {
        let eager = Regex::builder().backend(BackendChoice::Eager).build("(ab)*").unwrap();
        let lazy = Regex::builder().backend(BackendChoice::Lazy).build("(ab)*").unwrap();
        assert_eq!(eager.backend_kind(), sfa_core::BackendKind::Eager);
        assert_eq!(lazy.backend_kind(), sfa_core::BackendKind::Lazy);
        for input in [&b""[..], b"ab", b"abab", b"aba", b"zz"] {
            assert_eq!(eager.is_match(input), lazy.is_match(input), "{input:?}");
            for threads in [1, 4] {
                for reduction in [Reduction::Sequential, Reduction::Tree] {
                    assert_eq!(
                        eager.is_match_with(input, Strategy::Parallel { threads, reduction }),
                        lazy.is_match_with(input, Strategy::Parallel { threads, reduction })
                    );
                }
            }
        }
        // The lazy report is live: it grows as inputs visit states.
        assert!(lazy.size_report().materialized_states <= eager.size_report().sfa_states);
    }

    #[test]
    fn auto_backend_falls_back_to_lazy_when_eager_explodes() {
        // Under the 4-state cap the eager construction fails…
        let pattern = "([0-4]{3}[5-9]{3})*";
        let eager_err =
            Regex::builder().max_sfa_states(4).backend(BackendChoice::Eager).build(pattern);
        assert!(matches!(eager_err, Err(CompileError::TooManyStates { limit: 4 })));
        // …so Auto compiles the same pattern lazily instead of erroring.
        let auto =
            Regex::builder().max_sfa_states(4).backend(BackendChoice::Auto).build(pattern).unwrap();
        assert_eq!(auto.backend_kind(), sfa_core::BackendKind::Lazy);
        assert!(auto.is_match(b"000555"));
        assert!(!auto.is_match(b"00055"));
        assert!(auto.is_match_with(
            &b"000555111666".repeat(64),
            Strategy::Parallel { threads: 4, reduction: Reduction::Tree }
        ));
        // The lazy cache may exceed the *eager* cap — that cap is about
        // up-front construction, not about visited states.
        let report = auto.size_report();
        assert_eq!(report.backend, sfa_core::BackendKind::Lazy);
        assert!(report.materialized_states >= 1);

        // When the eager construction fits, Auto keeps it.
        let auto = Regex::builder().backend(BackendChoice::Auto).build("(ab)*").unwrap();
        assert_eq!(auto.backend_kind(), sfa_core::BackendKind::Eager);
        assert_eq!(auto.size_report().sfa_states, 6);

        // Non-state-limit errors still propagate under Auto.
        assert!(Regex::builder().backend(BackendChoice::Auto).build("(unclosed").is_err());
        let err = Regex::builder().backend(BackendChoice::Auto).max_dfa_states(2).build("abcdef");
        assert!(matches!(err, Err(CompileError::TooManyStates { limit: 2 })));
    }

    #[test]
    fn auto_fallback_streams_and_batches_correctly() {
        let auto = Regex::builder()
            .max_sfa_states(8)
            .backend(BackendChoice::Auto)
            .mode(MatchMode::Contains)
            .build("needle[0-9]{3}")
            .unwrap();
        assert_eq!(auto.backend_kind(), sfa_core::BackendKind::Lazy);
        let mut stream = auto.stream();
        stream.feed(b"xxxneed").feed(b"le04").feed(b"2yyy");
        assert!(stream.finish());
        assert_eq!(stream.verdict(), Some(true), "Contains hit saturates on the lazy backend too");
        assert_eq!(
            auto.is_match_batch(&[&b"needle042"[..], b"needle04", b"zz needle123 zz"]),
            vec![true, false, true]
        );
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(Regex::new("(unclosed").is_err());
        assert!(Regex::new("a{5,2}").is_err());
    }

    #[test]
    fn regex_set_matches_any_pattern() {
        let set = RegexSet::new(
            ["GET /[a-z]+", "POST /login", "HEAD /status"],
            &Regex::builder().mode(MatchMode::Contains),
        )
        .unwrap();
        assert_eq!(set.patterns().len(), 3);
        assert!(set.is_match(b"GET /index HTTP/1.1"));
        assert!(set.is_match(b"POST /login HTTP/1.1"));
        assert!(set.is_match(b"HEAD /status"));
        assert!(!set.is_match(b"PUT /upload"));
        assert!(set.regex().sfa().num_states() > 0);
    }

    #[test]
    fn empty_regex_set_matches_nothing() {
        // The empty union is the empty *language*, not the empty string:
        // previously Ast::alternation([]) collapsed to Ast::Empty, so an
        // empty set matched "" in Whole mode and *everything* in Contains
        // mode.
        let set = RegexSet::new([], &Regex::builder()).unwrap();
        assert!(set.patterns().is_empty());
        assert!(!set.is_match(b""));
        assert!(!set.is_match(b"anything"));

        let contains = RegexSet::new([], &Regex::builder().mode(MatchMode::Contains)).unwrap();
        assert!(!contains.is_match(b""));
        assert!(!contains.is_match(b"GET /index HTTP/1.1"));
        assert_eq!(contains.match_batch(&[&b""[..], b"x", b"attack"]), vec![false; 3]);

        // A single-pattern set still behaves exactly like its one pattern.
        let single = RegexSet::new(["(ab)*"], &Regex::builder()).unwrap();
        assert_eq!(single.patterns().len(), 1);
        assert!(single.is_match(b"abab"));
        assert!(single.is_match(b""));
        assert!(!single.is_match(b"aba"));
    }

    #[test]
    fn run_is_the_single_core_for_every_strategy() {
        let engine = Engine::new(4);
        let re = Regex::builder().engine(engine).threads(4).build("([0-4]{2}[5-9]{2})*").unwrap();
        let inputs: [&[u8]; 4] = [b"", b"00550459", b"0055045", &b"00550459".repeat(16 * 1024)];
        for input in inputs {
            let expected = re.dfa().run(input);
            assert_eq!(re.run(input, Strategy::Sequential), expected);
            assert_eq!(re.run(input, Strategy::Auto), expected);
            for threads in [1, 3, 8] {
                for reduction in [Reduction::Sequential, Reduction::Tree] {
                    assert_eq!(re.run(input, Strategy::Parallel { threads, reduction }), expected);
                    assert_eq!(
                        re.run(input, Strategy::Speculative { threads, reduction }),
                        expected
                    );
                }
            }
            assert_eq!(re.is_match(input), re.dfa().is_accepting(expected));
        }
    }

    #[test]
    fn auto_strategy_follows_builder_defaults_and_convergence() {
        // threads == 1 resolves to Sequential regardless of the analysis.
        let seq = Regex::builder().threads(1).build("(ab)*").unwrap();
        assert_eq!(seq.resolve(Strategy::Auto), Strategy::Sequential);
        // (ab)* is synchronizing (any byte outside the language drives
        // every state into the dead sink), so Auto picks the guided
        // speculative path for multi-threaded builds.
        let sync = Regex::builder().threads(4).reduction(Reduction::Tree).build("(ab)*").unwrap();
        assert!(sync.convergence_report().prefers_speculation());
        assert_eq!(
            sync.auto_strategy(),
            Strategy::Speculative { threads: 4, reduction: Reduction::Tree }
        );
        // The byte-parity automaton never converges — no dead state, no
        // two states ever merge — so Auto keeps the SFA composition path.
        let par =
            Regex::builder().threads(4).reduction(Reduction::Tree).build("((?s).(?s).)*").unwrap();
        assert!(!par.convergence_report().prefers_speculation());
        assert_eq!(
            par.resolve(Strategy::Auto),
            Strategy::Parallel { threads: 4, reduction: Reduction::Tree }
        );
        // Explicit strategies pass through untouched.
        assert_eq!(par.resolve(Strategy::Sequential), Strategy::Sequential);
        assert_eq!(
            sync.resolve(Strategy::parallel(2)),
            Strategy::Parallel { threads: 2, reduction: Reduction::Sequential }
        );
    }

    #[test]
    fn single_pattern_matches_reports_one_slot() {
        let re = Regex::new("(ab)*").unwrap();
        assert_eq!(re.pattern_count(), 1);
        let m = re.matches(b"abab");
        assert!(m.matched(0) && m.matched_any());
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0]);
        assert!(re.matches(b"aba").is_empty());
    }

    #[test]
    fn regex_set_reports_which_patterns_matched() {
        let set = RegexSet::new(
            ["GET /[a-z]+", "POST /login", "HEAD /status", "(?i)etc/passwd"],
            &Regex::builder().mode(MatchMode::Contains),
        )
        .unwrap();
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert_eq!(set.regex().pattern_count(), 4);

        let m = set.matches(b"GET /index HTTP/1.1");
        assert!(m.matched(0));
        assert!(!m.matched(1) && !m.matched(2) && !m.matched(3));
        assert_eq!(m.len(), 1);

        // Two rules firing on one input, in one pass.
        let m = set.matches(b"GET /files?path=ETC/PASSWD");
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 3]);

        let m = set.matches(b"PUT /upload");
        assert!(!m.matched_any());
        assert_eq!(m.pattern_count(), 4);

        // The per-pattern verdict is strategy-independent.
        let input = b"xxxPOST /login HTTP/1.1yyy";
        let expected = set.matches_with(input, Strategy::Sequential);
        for threads in [1, 4] {
            for reduction in [Reduction::Sequential, Reduction::Tree] {
                assert_eq!(
                    set.matches_with(input, Strategy::Parallel { threads, reduction }),
                    expected
                );
                assert_eq!(
                    set.matches_with(input, Strategy::Speculative { threads, reduction }),
                    expected
                );
            }
        }
    }

    #[test]
    fn regex_set_matches_agrees_with_individual_patterns() {
        let patterns = ["(ab)*", "a+b", "[ab]{3}", "b?a"];
        for mode in [MatchMode::Whole, MatchMode::Contains] {
            let builder = Regex::builder().mode(mode);
            let set = RegexSet::new(patterns, &builder).unwrap();
            let singles: Vec<Regex> = patterns.iter().map(|p| builder.build(p).unwrap()).collect();
            for input in [&b""[..], b"a", b"ab", b"abab", b"aab", b"bbb", b"ba", b"zzabz"] {
                let m = set.matches(input);
                for (i, single) in singles.iter().enumerate() {
                    assert_eq!(
                        m.matched(i),
                        single.is_match(input),
                        "pattern {i} ({:?}) input {:?} mode {:?}",
                        patterns[i],
                        input,
                        mode
                    );
                }
                assert_eq!(m.matched_any(), set.is_match(input));
            }
        }
    }

    #[test]
    fn matches_batch_agrees_with_per_call() {
        let set = RegexSet::new(
            ["/cgi-bin/ph[a-z]{1,8}", "(?i)etc/passwd", "[0-9]{1,3}\\.[0-9]{1,3}"],
            &Regex::builder().mode(MatchMode::Contains),
        )
        .unwrap();
        let haystacks: Vec<&[u8]> = vec![
            b"GET /cgi-bin/phf HTTP/1.1",
            b"GET /index.html",
            b"cat /etc/passwd at 10.0.0.1",
            b"",
            b"192.168",
        ];
        let batch = set.matches_batch(&haystacks);
        assert_eq!(batch.len(), haystacks.len());
        for (h, m) in haystacks.iter().zip(&batch) {
            assert_eq!(m, &set.matches(h), "haystack {:?}", h);
        }
        assert_eq!(batch[2].iter().collect::<Vec<_>>(), vec![1, 2]);
        // The any-match batch is the projection of the set batch.
        assert_eq!(
            set.match_batch(&haystacks),
            batch.iter().map(|m| m.matched_any()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn regex_set_matches_on_both_backends() {
        let patterns = ["select[a-z ]{0,10}from", "union", "[0-9]{4}"];
        for choice in [BackendChoice::Eager, BackendChoice::Lazy] {
            let set = RegexSet::new(
                patterns,
                &Regex::builder().mode(MatchMode::Contains).backend(choice),
            )
            .unwrap();
            let m = set.matches(b"q=select name from users; union all 2024");
            assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 2], "{choice:?}");
            let m = set.matches(b"plain request");
            assert!(m.is_empty(), "{choice:?}");
        }
    }

    #[test]
    fn untracked_set_compiles_the_plain_union() {
        let patterns = ["attack[0-9]{2}", "exploit[a-z]{2}", "(?i)etc/passwd"];
        let tracked = RegexSet::new(patterns, &Regex::builder().mode(MatchMode::Contains)).unwrap();
        let untracked = RegexSet::new(
            patterns,
            &Regex::builder().mode(MatchMode::Contains).track_patterns(false),
        )
        .unwrap();
        assert!(tracked.tracks_patterns());
        assert!(!untracked.tracks_patterns());
        assert_eq!(untracked.len(), 3, "the pattern list is still the user's");
        assert_eq!(untracked.regex().pattern_count(), 1, "but the automaton is one union");
        // The any-match automaton is strictly smaller: it need not
        // remember which rules already hit.
        assert!(untracked.regex().dfa().num_states() < tracked.regex().dfa().num_states());
        // Any-match verdicts agree everywhere.
        for input in [&b"GET /attack42"[..], b"exploitok", b"cat etc/passwd", b"benign", b"attack4"]
        {
            assert_eq!(untracked.is_match(input), tracked.is_match(input), "{input:?}");
        }
        let haystacks: Vec<&[u8]> = vec![b"attack99 exploitme", b"nothing"];
        assert_eq!(untracked.match_batch(&haystacks), tracked.match_batch(&haystacks));
        // A single-pattern (or empty) set tracks for free either way.
        let single = RegexSet::new(["(ab)*"], &Regex::builder().track_patterns(false)).unwrap();
        assert!(single.tracks_patterns());
        assert!(single.matches(b"abab").matched(0));
        let empty = RegexSet::new([], &Regex::builder().track_patterns(false)).unwrap();
        assert!(!empty.is_match(b""), "the empty set stays the void language");
    }

    #[test]
    #[should_panic(expected = "per-rule verdicts require pattern tracking")]
    fn untracked_set_panics_on_per_rule_apis() {
        let set = RegexSet::new(["a", "b"], &Regex::builder().track_patterns(false)).unwrap();
        let _ = set.matches(b"a");
    }

    #[test]
    #[should_panic(expected = "per-rule verdicts require pattern tracking")]
    fn untracked_set_panics_on_stream_set_matches() {
        // The stream path must refuse too — otherwise the union verdict
        // would be silently attributed to rule 0.
        let set = RegexSet::new(["a", "b"], &Regex::builder().track_patterns(false)).unwrap();
        let mut stream = set.stream();
        stream.feed(b"b");
        let _ = stream.set_matches();
    }

    #[test]
    #[should_panic(expected = "per-rule verdicts require pattern tracking")]
    fn untracked_set_panics_on_stream_set_verdict() {
        let set = RegexSet::new(["a", "b"], &Regex::builder().track_patterns(false)).unwrap();
        let _ = set.stream().set_verdict();
    }

    #[test]
    fn empty_regex_set_has_empty_verdicts() {
        let set = RegexSet::new([], &Regex::builder().mode(MatchMode::Contains)).unwrap();
        assert_eq!(set.len(), 0);
        assert!(set.is_empty());
        let m = set.matches(b"anything");
        assert_eq!(m.pattern_count(), 0);
        assert!(!m.matched_any());
        assert_eq!(set.matches_batch(&[&b"x"[..], b"y"]).len(), 2);
    }

    #[test]
    fn default_threads_is_cached_and_sane() {
        let first = default_threads();
        assert!(first >= 1);
        // Cached: repeated calls agree (and are a single atomic load).
        for _ in 0..1000 {
            assert_eq!(default_threads(), first);
        }
        assert_eq!(RegexBuilder::default().threads, first);
    }

    #[test]
    fn batch_matching_agrees_with_per_call() {
        let engine = Engine::new(4);
        let re = Regex::builder().engine(engine).threads(4).build("(ab)*").unwrap();
        // Haystacks big enough (in total) to engage the pool.
        let accepted = b"ab".repeat(4096);
        let rejected = b"ab".repeat(4095 + 1)[..8191].to_vec();
        // One oversized haystack (its own plan engages the pool) mixed into
        // the small ones: it takes the chunk-parallel path, not a shard.
        let huge = b"ab".repeat(128 * 1024);
        let mut haystacks: Vec<&[u8]> = Vec::new();
        for i in 0..64 {
            haystacks.push(if i % 3 == 0 { &rejected } else { &accepted });
        }
        haystacks.push(b"");
        haystacks.push(b"ab");
        haystacks.push(&huge);
        haystacks.push(b"ba");
        let expected: Vec<bool> = haystacks.iter().map(|h| re.is_match(h)).collect();
        assert_eq!(re.is_match_batch(&haystacks), expected);
        // Degenerate batches stay inline and correct.
        assert_eq!(re.is_match_batch(&[]), Vec::<bool>::new());
        assert_eq!(re.is_match_batch(&[&b"abab"[..]]), vec![true]);
    }

    #[test]
    fn zero_parallelism_clamps_to_one_everywhere() {
        // The crate-wide rule: requesting 0 units of parallelism means
        // sequential execution — identical to requesting 1, never a panic
        // and never "no work".
        let re = Regex::builder().threads(0).build("(ab)*").unwrap();
        assert!(re.is_match(b"abab"));
        assert!(!re.is_match(b"aba"));
        assert!(re
            .is_match_with(b"abab", Strategy::Parallel { threads: 0, reduction: Reduction::Tree }));
        assert!(re.is_match_with(
            b"abab",
            Strategy::Speculative { threads: 0, reduction: Reduction::Sequential }
        ));
        // split_chunks applies the same clamp…
        assert_eq!(crate::split_chunks(b"xyz", 0), crate::split_chunks(b"xyz", 1));
        // …and so do the pool and the chunk planner.
        let engine = Engine::new(0);
        assert_eq!(engine.workers(), 1);
        assert_eq!(engine.plan_chunks(1 << 20, 0).chunks, 1);
    }

    #[test]
    fn dedicated_engine_is_used_for_parallel_matching() {
        let engine = Engine::new(3);
        let re = Regex::builder()
            .engine(engine)
            .threads(3)
            .reduction(Reduction::Tree)
            .build("([0-4]{2}[5-9]{2})*")
            .unwrap();
        assert_eq!(re.engine().workers(), 3);
        let text = b"00550459".repeat(8 * 1024); // 64 KiB → pool path
        assert!(re.engine().plan_chunks(text.len(), 3).use_pool);
        assert!(re.is_match(&text));
        assert!(re.is_match_with(
            &text,
            Strategy::Parallel { threads: 3, reduction: Reduction::Sequential }
        ));
        // Default-engine regexes report the shared global pool.
        let plain = Regex::new("(ab)*").unwrap();
        assert_eq!(plain.engine().workers(), Engine::global().workers());
    }

    #[test]
    fn uncompressed_alphabet_option() {
        let re = Regex::builder().compress_alphabet(false).build("(ab)*").unwrap();
        assert_eq!(re.dfa().num_classes(), 256);
        assert!(re.is_match(b"abab"));
    }
}
