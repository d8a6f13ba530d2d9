//! D-SFA: the simultaneous finite automaton constructed from a DFA
//! (Definition 5 + Algorithm 4 of the paper, specialized to deterministic
//! input as described in Section V-A).
//!
//! Each D-SFA state is a [`Transformation`] of the DFA state set: the state
//! reached after reading a word `w` is the mapping `q ↦ δ̂(q, w)`, i.e. the
//! simultaneous simulation of the DFA from *every* start state. The D-SFA
//! itself is an ordinary DFA over the same byte classes, so matching costs
//! exactly one table lookup per input byte — that is the whole point of the
//! model: the speculative simulation of Algorithm 3 has been evaluated at
//! construction time instead of at match time.

use crate::mapping::Transformation;
#[cfg(feature = "simd")]
use crate::simd;
use crate::SfaConfig;
use sfa_automata::{ByteClasses, CompileError, Dfa, PatternSet, StateId};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

/// Identifier of an SFA state.
///
/// This is the *interface* width: every public API hands ids around as
/// `u32` regardless of how the transition tables store them internally
/// (see [`StateIdRepr`]), so callers never churn when an automaton packs
/// down to `u8`/`u16` rows.
pub type SfaStateId = u32;

/// Physical width of the state ids stored in the eager D-SFA transition
/// tables.
///
/// The automaton picks the narrowest width that fits `|S_d|`
/// ([`StateIdRepr::for_states`]): a 2 000-state shard's premultiplied
/// rows shrink 2× (`u16`), a 250-state one 4× (`u8`), which is the
/// difference between a working set that blows L2 and one that sits in
/// L1. The public API stays [`SfaStateId`] (`u32`) at the boundary; the
/// width only changes what the tables *store* and which monomorphized
/// scan loop runs. [`SfaConfig::repr`] can force a wider width (for
/// baseline measurements); a narrower override is widened automatically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StateIdRepr {
    /// One byte per id — automata with at most 256 states.
    U8,
    /// Two bytes per id — automata with at most 65 536 states.
    U16,
    /// Four bytes per id — unbounded (the public [`SfaStateId`] width).
    U32,
}

impl StateIdRepr {
    /// Bytes occupied by one stored state id.
    pub const fn bytes(self) -> usize {
        match self {
            StateIdRepr::U8 => 1,
            StateIdRepr::U16 => 2,
            StateIdRepr::U32 => 4,
        }
    }

    /// Largest state count this width can address (ids are `0..n`).
    pub const fn max_states(self) -> usize {
        match self {
            StateIdRepr::U8 => 1 << 8,
            StateIdRepr::U16 => 1 << 16,
            StateIdRepr::U32 => usize::MAX,
        }
    }

    /// The narrowest width that fits `n` states: `U8` through 256 states
    /// (ids 0–255), `U16` through 65 536, `U32` beyond.
    pub fn for_states(n: usize) -> StateIdRepr {
        if n <= StateIdRepr::U8.max_states() {
            StateIdRepr::U8
        } else if n <= StateIdRepr::U16.max_states() {
            StateIdRepr::U16
        } else {
            StateIdRepr::U32
        }
    }

    /// The width's name (`"u8"` / `"u16"` / `"u32"`), used in benchmark
    /// summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            StateIdRepr::U8 => "u8",
            StateIdRepr::U16 => "u16",
            StateIdRepr::U32 => "u32",
        }
    }

    /// Parses a name produced by [`StateIdRepr::as_str`].
    pub fn parse(s: &str) -> Option<StateIdRepr> {
        Some(match s {
            "u8" => StateIdRepr::U8,
            "u16" => StateIdRepr::U16,
            "u32" => StateIdRepr::U32,
            _ => return None,
        })
    }
}

impl std::fmt::Display for StateIdRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The shared bytes a [`DSfa`] keeps its tables in: the buffer
/// [`DSfa::from_dfa`] writes, or a serialized artifact (typically a
/// memory mapping) handed to [`DSfa::from_parts`] — anything that can hand
/// out `&[u8]`. Clones of the automaton share it, which keeps a mapping
/// alive for as long as any clone is.
pub type ArtifactBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// Byte ranges into a shared buffer locating one automaton's tables, in
/// the layout [`DSfa`] stores them. Produced by the artifact parser
/// (`sfa-serialize`); consumed, together with the reconstructed source
/// [`Dfa`], by [`DSfa::from_parts`].
pub struct DSfaParts {
    /// The shared buffer every range below indexes into.
    pub data: ArtifactBytes,
    /// The packed width of the state ids stored in `table` / `byte_table`.
    pub repr: StateIdRepr,
    /// Number of SFA states (`|S_d|`).
    pub num_states: usize,
    /// The class-compressed transition rows: `num_states × classes`
    /// little-endian ids at `repr` width.
    pub table: Range<usize>,
    /// The premultiplied dense byte table, when there is one:
    /// `num_states × 256` little-endian ids at `repr` width.
    pub byte_table: Option<Range<usize>>,
    /// The state mappings: `num_states × |D|` little-endian `u32` DFA
    /// state ids (row `s` is the transformation carried by SFA state `s`).
    pub mappings: Range<usize>,
}

/// Calls `$f::<W>(args…)` with the byte width `W` of a [`StateIdRepr`]:
/// the packed width is matched **once per call**, never per byte, and
/// each arm runs a loop monomorphized for its width.
macro_rules! with_width {
    ($repr:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $repr {
            StateIdRepr::U8 => $f::<1>($($arg),*),
            StateIdRepr::U16 => $f::<2>($($arg),*),
            StateIdRepr::U32 => $f::<4>($($arg),*),
        }
    };
}

/// A packed table viewed as `W`-byte little-endian ids.
#[inline(always)]
fn ids<const W: usize>(bytes: &[u8]) -> &[[u8; W]] {
    bytes.as_chunks::<W>().0
}

/// Entry `i` of a `W`-byte id table, widened to the interface width (one
/// zero-extending load of the packed width).
#[inline(always)]
fn id<const W: usize>(table: &[[u8; W]], i: usize) -> SfaStateId {
    let mut le = [0u8; 4];
    le[..W].copy_from_slice(&table[i]);
    SfaStateId::from_le_bytes(le)
}

/// Entry `i` of the packed table `bytes` at width `W`.
#[inline(always)]
fn id_at<const W: usize>(bytes: &[u8], i: usize) -> SfaStateId {
    id(ids::<W>(bytes), i)
}

/// Entry `i` of the packed table `bytes` at width `repr` (for the
/// non-hot accessors; scans hoist the width match out of their loops).
#[inline]
fn read(bytes: &[u8], repr: StateIdRepr, i: usize) -> SfaStateId {
    with_width!(repr, id_at(bytes, i))
}

/// Writes full-width ids into `dst` as `W`-byte little-endian entries.
/// The caller guarantees every id fits the width.
fn pack<const W: usize>(dst: &mut [u8], src: impl Iterator<Item = SfaStateId>) {
    for (slot, v) in dst.as_chunks_mut::<W>().0.iter_mut().zip(src) {
        slot.copy_from_slice(&v.to_le_bytes()[..W]);
    }
}

/// Number of independent inputs [`DSfa::run_from_many`] walks in lockstep.
///
/// Four dependent table loads in flight cover typical L2 latency without
/// spilling the lane states out of registers.
pub const INTERLEAVE_LANES: usize = 4;

/// The premultiplied hot loop over one packed width: one dense lookup per
/// byte, sink bitmap consulted only on state change (see
/// [`DSfa::run_from`]).
#[inline]
fn scan_dense<const W: usize>(
    table: &[u8],
    sink: &[bool],
    state: SfaStateId,
    input: &[u8],
) -> SfaStateId {
    let table = ids::<W>(table);
    let mut f = state;
    for &b in input {
        let next = id(table, f as usize * 256 + b as usize);
        if next != f {
            f = next;
            if sink[f as usize] {
                return f;
            }
        }
    }
    f
}

/// The class-compressed fallback loop over one packed width (no
/// premultiplied table: one `class_of` indirection plus one row lookup
/// per byte).
#[inline]
fn scan_classes<const W: usize>(
    table: &[u8],
    classes: &ByteClasses,
    stride: usize,
    sink: &[bool],
    state: SfaStateId,
    input: &[u8],
) -> SfaStateId {
    let table = ids::<W>(table);
    let mut f = state;
    for &b in input {
        let next = id(table, f as usize * stride + classes.class_of(b) as usize);
        if next != f {
            f = next;
            if sink[f as usize] {
                return f;
            }
        }
    }
    f
}

/// The interleaved hot loop: walks [`INTERLEAVE_LANES`] independent
/// inputs in lockstep over their common prefix length. Each iteration
/// issues four *independent* dependent-load chains, hiding table-load
/// latency the single-lane loop exposes. No per-byte sink branch: a sink
/// self-loops on every byte, so walking it is harmless, and the caller
/// finishes the tails through [`DSfa::run_from`] (which early-exits).
#[inline]
fn scan_dense_lanes<const W: usize>(
    table: &[u8],
    f: &mut [SfaStateId; INTERLEAVE_LANES],
    inputs: &[&[u8]; INTERLEAVE_LANES],
    common: usize,
) {
    let table = ids::<W>(table);
    let a = &inputs[0][..common];
    let b = &inputs[1][..common];
    let c = &inputs[2][..common];
    let d = &inputs[3][..common];
    for ((&b0, &b1), (&b2, &b3)) in a.iter().zip(b).zip(c.iter().zip(d)) {
        f[0] = id(table, f[0] as usize * 256 + b0 as usize);
        f[1] = id(table, f[1] as usize * 256 + b1 as usize);
        f[2] = id(table, f[2] as usize * 256 + b2 as usize);
        f[3] = id(table, f[3] as usize * 256 + b3 as usize);
    }
}

/// A simultaneous finite automaton built from a DFA.
///
/// One storage layout, whatever the automaton's origin: the class rows,
/// the optional premultiplied byte table and the flat state mappings are
/// byte ranges of one shared [`ArtifactBytes`] buffer, stored as
/// little-endian ids at the packed width — exactly the section layout of
/// a serialized artifact. [`DSfa::from_dfa`] writes the tables into an
/// owned buffer; [`DSfa::from_parts`] validates and adopts the ranges of
/// a loaded (typically memory-mapped) artifact without copying them.
/// Either way every scan kernel applies. Small derived state (the sink
/// and accepting bitmaps, the DFA accept metadata) is owned.
#[derive(Clone)]
pub struct DSfa {
    /// The buffer every table range below indexes into.
    data: ArtifactBytes,
    /// True when `data` is a whole artifact the automaton was loaded from
    /// ([`DSfa::from_parts`]); false when it holds just the tables
    /// [`DSfa::from_dfa`] wrote.
    loaded: bool,
    classes: ByteClasses,
    stride: usize,
    /// The packed width both transition tables store ids at (never
    /// narrower than `|S_d|` requires; see [`StateIdRepr`]).
    repr: StateIdRepr,
    num_states: usize,
    /// Class-compressed rows: `|S_d| × stride` ids.
    table: Range<usize>,
    /// Premultiplied dense `256 × |S_d|` byte→state table (row `s` holds
    /// the successor of `s` for every raw byte value), built when
    /// [`SfaConfig::premultiply`] is set and the **packed** table fits the
    /// size ceiling. Fuses the `class_of` indirection out of the hot loop.
    byte_table: Option<Range<usize>>,
    /// The state mappings: `|S_d| × |D|` `u32` DFA state ids, row `s`
    /// being the transformation carried by SFA state `s`.
    mappings: Range<usize>,
    /// `sink[s]` is true when every transition of `s` loops back to `s` —
    /// once reached, the mapping can never change again, so a chunk run may
    /// stop early (the constant/synchronizing-word early exit: the all-dead
    /// mapping is always a sink, and in `Contains` mode so is the
    /// constant-to-accepting mapping).
    sink: Box<[bool]>,
    accepting: Box<[bool]>,
    /// Mapping → state-id index, built lazily on the first
    /// [`state_of`](DSfa::state_of) / [`compose_states`](DSfa::compose_states)
    /// call that needs it (streaming composition does; the chunk-scan hot
    /// paths never do). Costs roughly as much memory as the mappings
    /// themselves, which is why it is not built eagerly for every SFA.
    state_index: OnceLock<HashMap<Transformation, SfaStateId>>,
    /// SIMD kernels for this automaton, built lazily on the first scan
    /// after runtime CPU detection (`None` when only the scalar loops
    /// apply — no premultiplied table, unsupported CPU, or non-x86_64).
    #[cfg(feature = "simd")]
    simd: OnceLock<Option<simd::SimdKernels>>,
    dfa_start: StateId,
    dfa_accepting: Box<[bool]>,
    /// Number of original patterns compiled into the source DFA.
    pattern_count: usize,
    /// Per-DFA-state index into `dfa_accept_sets` (copied from the source
    /// DFA): which patterns each DFA state accepts.
    dfa_accept_index: Box<[u32]>,
    /// The distinct pattern accept sets of the source DFA (entry 0 is the
    /// empty set).
    dfa_accept_sets: Vec<PatternSet>,
}

impl std::fmt::Debug for DSfa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DSfa")
            .field("num_states", &self.num_states)
            .field("num_dfa_states", &self.num_dfa_states())
            .field("repr", &self.repr)
            .field("premultiplied", &self.premultiplied())
            .field("artifact_bytes", &self.artifact_bytes())
            .finish()
    }
}

impl DSfa {
    /// **Algorithm 4 (correspondence construction)** specialized to a
    /// deterministic source automaton.
    ///
    /// Starting from the identity mapping `f_I`, repeatedly extends every
    /// discovered mapping by every byte class:
    /// `f_next(q) = δ(f(q), σ)`. Mappings are interned so each distinct
    /// transformation becomes exactly one SFA state.
    pub fn from_dfa(dfa: &Dfa, config: &SfaConfig) -> Result<DSfa, CompileError> {
        let d = dfa.num_states();
        let stride = dfa.num_classes();

        // The interning keys share their mapping with `mappings` (one copy
        // per state, not two), so flattening into the buffer below never
        // holds more than the mappings plus the buffer.
        let mut ids: HashMap<Rc<Transformation>, SfaStateId> = HashMap::new();
        let mut mappings: Vec<Rc<Transformation>> = Vec::new();
        let mut table: Vec<SfaStateId> = Vec::new();

        let intern = |f: Transformation,
                      mappings: &mut Vec<Rc<Transformation>>,
                      ids: &mut HashMap<Rc<Transformation>, SfaStateId>|
         -> Result<SfaStateId, CompileError> {
            if let Some(&id) = ids.get(&f) {
                return Ok(id);
            }
            if mappings.len() >= config.max_states {
                return Err(CompileError::TooManyStates { limit: config.max_states });
            }
            let id = mappings.len() as SfaStateId;
            let f = Rc::new(f);
            ids.insert(Rc::clone(&f), id);
            mappings.push(f);
            Ok(id)
        };

        let initial = intern(Transformation::identity(d), &mut mappings, &mut ids)?;
        debug_assert_eq!(initial, 0);

        let mut processed = 0usize;
        while processed < mappings.len() {
            let current = Rc::clone(&mappings[processed]);
            processed += 1;
            for class in 0..stride {
                let next = Transformation::from_vec(
                    current
                        .as_slice()
                        .iter()
                        .map(|&q| dfa.next_by_class(q, class as u16))
                        .collect(),
                );
                let next_id = intern(next, &mut mappings, &mut ids)?;
                table.push(next_id);
            }
        }
        drop(ids);

        // Interning works in full-width ids; only now that |S_d| is known
        // can the storage width be chosen. A configured override is
        // honored only when it is at least as wide as the automaton
        // requires (a narrower one would truncate ids).
        let n = mappings.len();
        let auto = StateIdRepr::for_states(n);
        let repr = match config.repr {
            Some(r) if r.bytes() >= auto.bytes() => r,
            _ => auto,
        };
        let w = repr.bytes();
        let premultiply = config.premultiply
            && n.saturating_mul(256).saturating_mul(w) <= SfaConfig::PREMULTIPLY_MAX_BYTES;

        // Every size is known, so the buffer is allocated once at its
        // exact length and never grows.
        let table_range = 0..n * stride * w;
        let byte_table = premultiply.then(|| table_range.end..table_range.end + n * 256 * w);
        let map_start = byte_table.as_ref().map_or(table_range.end, |r| r.end);
        let mapping_range = map_start..map_start + n * d * 4;
        let mut buf = vec![0u8; mapping_range.end];
        with_width!(repr, pack(&mut buf[table_range.clone()], table.iter().copied()));
        if let Some(range) = &byte_table {
            let classes = dfa.classes();
            let dense = table
                .chunks_exact(stride)
                .flat_map(|row| (0..=255u8).map(move |b| row[classes.class_of(b) as usize]));
            with_width!(repr, pack(&mut buf[range.clone()], dense));
        }
        drop(table);
        // Each mapping moves into its row and is freed as it goes (the
        // interning map that shared it is already gone).
        let rows = buf[mapping_range.clone()].as_chunks_mut::<4>().0;
        for (row, f) in rows.chunks_exact_mut(d).zip(mappings) {
            for (slot, &q) in row.iter_mut().zip(f.as_slice()) {
                *slot = q.to_le_bytes();
            }
        }

        let parts = DSfaParts {
            data: Arc::new(buf),
            repr,
            num_states: n,
            table: table_range,
            byte_table,
            mappings: mapping_range,
        };
        Ok(DSfa::assemble(parts, dfa, false))
    }

    /// Validates tables stored in a shared buffer — a loaded artifact's
    /// sections — and assembles the automaton around them without copying
    /// them.
    ///
    /// `dfa` is the reconstructed (and already [`Dfa::validate`]d) source
    /// automaton; its accept metadata is copied — it is small — while the
    /// SFA tables stay in `parts.data`. Every invariant a scan loop relies
    /// on is checked here so corrupt artifacts fail closed with a reason
    /// instead of panicking mid-match:
    ///
    /// * all three ranges lie inside the buffer and have exactly the
    ///   advertised `count × width` lengths,
    /// * every transition target (class rows *and* byte table) is a valid
    ///   SFA state id,
    /// * every mapping entry is a valid DFA state id,
    /// * state 0 carries the identity mapping (the composition shortcuts
    ///   assume it).
    ///
    /// The sink and accepting bitmaps are then derived from the validated
    /// tables, never read from the artifact.
    pub fn from_parts(parts: DSfaParts, dfa: &Dfa) -> Result<DSfa, String> {
        let DSfaParts { data, repr, num_states: n, table, byte_table, mappings } = &parts;
        let (n, repr) = (*n, *repr);
        let buf = (**data).as_ref();
        let d = dfa.num_states();
        let stride = dfa.num_classes();
        let w = repr.bytes();
        if n == 0 {
            return Err("an SFA needs at least one state".to_string());
        }
        if n > repr.max_states() {
            return Err(format!("{n} states do not fit the declared {repr} id width"));
        }
        let check_range = |range: &Range<usize>, len: usize, what: &str| -> Result<(), String> {
            if range.start > range.end || range.end > buf.len() {
                return Err(format!(
                    "{what} range {}..{} escapes the {}-byte buffer",
                    range.start,
                    range.end,
                    buf.len()
                ));
            }
            if range.len() != len {
                return Err(format!("{what} has {} bytes, expected {len}", range.len()));
            }
            Ok(())
        };
        let size = |per_state: usize| {
            n.checked_mul(per_state).ok_or_else(|| format!("{n} states overflow the table size"))
        };
        check_range(table, size(stride * w)?, "class-row table")?;
        if let Some(bt) = byte_table {
            check_range(bt, size(256 * w)?, "premultiplied byte table")?;
        }
        check_range(mappings, size(d.saturating_mul(4))?, "mapping table")?;

        let check_ids = |range: &Range<usize>, limit: usize, what: &str| -> Result<(), String> {
            let bytes = &buf[range.clone()];
            for i in 0..bytes.len() / w {
                let id = read(bytes, repr, i);
                if id as usize >= limit {
                    return Err(format!("{what} entry {i} is {id}, out of range (0..{limit})"));
                }
            }
            Ok(())
        };
        check_ids(table, n, "class-row")?;
        if let Some(bt) = byte_table {
            check_ids(bt, n, "byte-table")?;
        }
        let maps = ids::<4>(&buf[mappings.clone()]);
        if let Some((i, q)) = maps
            .iter()
            .map(|&q| StateId::from_le_bytes(q))
            .enumerate()
            .find(|&(_, q)| q as usize >= d)
        {
            return Err(format!("mapping entry {i} is {q}, out of range (0..{d})"));
        }
        if !maps[..d].iter().enumerate().all(|(q, &m)| StateId::from_le_bytes(m) as usize == q) {
            return Err("state 0 does not carry the identity mapping".to_string());
        }
        Ok(DSfa::assemble(parts, dfa, true))
    }

    /// Wraps tables whose ids are known to be in range, deriving the sink
    /// and accepting bitmaps from them and copying the small accept
    /// metadata of `dfa`.
    fn assemble(parts: DSfaParts, dfa: &Dfa, loaded: bool) -> DSfa {
        let DSfaParts { data, repr, num_states: n, table, byte_table, mappings } = parts;
        let stride = dfa.num_classes();
        let d = dfa.num_states();
        let buf = (*data).as_ref();
        let rows = &buf[table.clone()];
        let sink: Box<[bool]> = (0..n)
            .map(|s| (0..stride).all(|c| read(rows, repr, s * stride + c) as usize == s))
            .collect();
        let start = dfa.start();
        let maps = ids::<4>(&buf[mappings.clone()]);
        let accepting: Box<[bool]> =
            (0..n).map(|s| dfa.is_accepting(id(maps, s * d + start as usize))).collect();
        DSfa {
            data,
            loaded,
            classes: dfa.classes().clone(),
            stride,
            repr,
            num_states: n,
            table,
            byte_table,
            mappings,
            sink,
            accepting,
            state_index: OnceLock::new(),
            #[cfg(feature = "simd")]
            simd: OnceLock::new(),
            dfa_start: start,
            dfa_accepting: dfa.accepting().into(),
            pattern_count: dfa.pattern_count(),
            dfa_accept_index: dfa.accept_indices().into(),
            dfa_accept_sets: dfa.distinct_accept_sets().to_vec(),
        }
    }

    /// Convenience: pattern → NFA → DFA → minimal DFA → D-SFA with default
    /// limits.
    pub fn from_pattern(pattern: &str) -> Result<DSfa, CompileError> {
        let dfa = sfa_automata::minimal_dfa_from_pattern(pattern)?;
        DSfa::from_dfa(&dfa, &SfaConfig::default())
    }

    /// The whole shared buffer.
    #[inline]
    fn bytes(&self) -> &[u8] {
        (*self.data).as_ref()
    }

    /// The class-compressed transition rows as stored: `|S_d| × classes`
    /// little-endian ids at the packed width — byte for byte the
    /// artifact's class-row section.
    pub fn table_section(&self) -> &[u8] {
        &self.bytes()[self.table.clone()]
    }

    /// The premultiplied byte table as stored (`|S_d| × 256` little-endian
    /// ids at the packed width), when it was built.
    pub fn byte_table_section(&self) -> Option<&[u8]> {
        self.byte_table.as_ref().map(|r| &self.bytes()[r.clone()])
    }

    /// The state mappings as stored: `|S_d| × |D|` little-endian `u32`
    /// DFA state ids, row `s` being the mapping of SFA state `s`.
    pub fn mapping_section(&self) -> &[u8] {
        &self.bytes()[self.mappings.clone()]
    }

    /// Size of the serialized artifact this automaton was loaded from
    /// ([`DSfa::from_parts`]) — what an on-disk size report should
    /// attribute to it. `None` for an automaton built in memory.
    pub fn artifact_bytes(&self) -> Option<usize> {
        self.loaded.then(|| self.bytes().len())
    }

    /// Number of SFA states (`|S_d|` in the paper).
    #[inline]
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of states of the source DFA.
    #[inline]
    pub fn num_dfa_states(&self) -> usize {
        self.dfa_accepting.len()
    }

    /// The byte classes shared with the source DFA.
    #[inline]
    pub fn classes(&self) -> &ByteClasses {
        &self.classes
    }

    /// Number of byte classes (row width of the transition table).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.stride
    }

    /// The initial state (always 0: the identity mapping `f_I`).
    #[inline]
    pub fn initial(&self) -> SfaStateId {
        0
    }

    /// The start state of the source DFA.
    #[inline]
    pub fn dfa_start(&self) -> StateId {
        self.dfa_start
    }

    /// Returns true if the DFA state is accepting (used by reductions).
    #[inline]
    pub fn dfa_is_accepting(&self, q: StateId) -> bool {
        self.dfa_accepting[q as usize]
    }

    /// Returns true if the SFA state is accepting
    /// (`F_s = { f | f(q_0) ∈ F_D }`).
    #[inline]
    pub fn is_accepting(&self, state: SfaStateId) -> bool {
        self.accepting[state as usize]
    }

    /// Number of original patterns compiled into the source DFA (1 for
    /// single-pattern automata).
    #[inline]
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// The set of patterns a source-DFA state accepts (the per-rule
    /// verdict carried through from compilation — used by the reductions,
    /// which end on a DFA state).
    #[inline]
    pub fn dfa_accepting_patterns(&self, q: StateId) -> &PatternSet {
        &self.dfa_accept_sets[self.dfa_accept_index[q as usize] as usize]
    }

    /// The set of patterns matched when the whole input lands in `state`:
    /// the accept set of `f(q_0)`. The multi-pattern refinement of
    /// [`is_accepting`](DSfa::is_accepting) — non-empty exactly when the
    /// state accepts — and the hook the streaming matcher reads its
    /// per-rule verdict from. `O(1)`: one mapping lookup plus one
    /// interned-set index.
    #[inline]
    pub fn accepting_patterns(&self, state: SfaStateId) -> &PatternSet {
        self.dfa_accepting_patterns(self.apply(state, self.dfa_start))
    }

    /// Row `state` of the flat mapping table.
    #[inline]
    fn mapping_row(&self, state: SfaStateId) -> &[[u8; 4]] {
        let d = self.num_dfa_states();
        &ids::<4>(self.mapping_section())[state as usize * d..][..d]
    }

    /// Applies the mapping of `state` to one DFA state — one `u32` load,
    /// no allocation (the sequential reduction's `f(q)` lookup).
    #[inline]
    pub fn apply(&self, state: SfaStateId, q: StateId) -> StateId {
        StateId::from_le_bytes(self.mapping_row(state)[q as usize])
    }

    /// The mapping (transformation) carried by an SFA state, materialized
    /// from the flat table (`O(|D|)`).
    pub fn mapping(&self, state: SfaStateId) -> Transformation {
        Transformation::from_vec(
            self.mapping_row(state).iter().map(|&q| StateId::from_le_bytes(q)).collect(),
        )
    }

    /// Transition on a byte class.
    #[inline]
    pub fn next_by_class(&self, state: SfaStateId, class: u16) -> SfaStateId {
        read(self.table_section(), self.repr, state as usize * self.stride + class as usize)
    }

    /// Transition on a byte — one table lookup, exactly like the DFA.
    #[inline]
    pub fn next_state(&self, state: SfaStateId, byte: u8) -> SfaStateId {
        match self.byte_table_section() {
            Some(bt) => read(bt, self.repr, state as usize * 256 + byte as usize),
            None => self.next_by_class(state, self.classes.class_of(byte)),
        }
    }

    /// The packed width this automaton's tables store state ids at. The
    /// automatic choice is the narrowest width fitting
    /// [`num_states`](DSfa::num_states); [`SfaConfig::repr`] can force a
    /// wider one.
    #[inline]
    pub fn repr(&self) -> StateIdRepr {
        self.repr
    }

    /// Bytes per stored state id (1, 2 or 4) — `repr().bytes()`.
    #[inline]
    pub fn state_id_bytes(&self) -> usize {
        self.repr.bytes()
    }

    /// True when the premultiplied dense byte table was built (see
    /// [`SfaConfig::premultiply`]).
    #[inline]
    pub fn premultiplied(&self) -> bool {
        self.byte_table.is_some()
    }

    /// True when every transition of `state` loops back to itself: the
    /// mapping carried by the state can never change again, whatever input
    /// follows. [`DSfa::run_from`] stops as soon as it reaches such a
    /// state.
    #[inline]
    pub fn is_sink(&self, state: SfaStateId) -> bool {
        self.sink[state as usize]
    }

    /// Runs the SFA over `input` starting from the identity state.
    pub fn run(&self, input: &[u8]) -> SfaStateId {
        self.run_from(self.initial(), input)
    }

    /// Runs the SFA over `input` from an arbitrary state (each worker of
    /// Algorithm 5 calls this on its chunk, always starting from the
    /// identity state).
    ///
    /// Two hot-loop refinements over the naive walk:
    /// * with a premultiplied table the per-byte step is a single dense
    ///   lookup, no `class_of` indirection;
    /// * reaching a sink state (a constant mapping that can no longer
    ///   change, e.g. the all-dead mapping after a synchronizing word)
    ///   stops the scan early — the remaining bytes cannot alter the
    ///   result. A sink can only ever be entered, never left, so the
    ///   `sink` bitmap is consulted only when the state changes; the
    ///   common self-looping byte costs just the lookup and a register
    ///   compare.
    ///
    /// With the `simd` feature the call dispatches once — never per byte —
    /// to the shuffle kernel when this automaton qualifies (see
    /// [`scan_kernel`](DSfa::scan_kernel)); the scalar loop remains the
    /// fallback and returns identical states.
    pub fn run_from(&self, state: SfaStateId, input: &[u8]) -> SfaStateId {
        if self.sink[state as usize] {
            return state;
        }
        #[cfg(feature = "simd")]
        if let Some(simd::SimdKernels::Shuffle(k)) = self.simd_kernels() {
            return k.run(&self.sink, state, input);
        }
        self.scan_scalar(state, input)
    }

    /// [`run_from`](DSfa::run_from) restricted to the scalar loops: never
    /// dispatches to a SIMD kernel, whatever features and CPU are
    /// available. This is the semantic reference the kernels are tested
    /// against and the baseline the benchmarks compare them to; verdicts
    /// are identical to `run_from` by construction.
    pub fn run_from_scalar(&self, state: SfaStateId, input: &[u8]) -> SfaStateId {
        if self.sink[state as usize] {
            return state;
        }
        self.scan_scalar(state, input)
    }

    /// The monomorphized scalar loops behind
    /// [`run_from_scalar`](DSfa::run_from_scalar).
    #[inline]
    fn scan_scalar(&self, state: SfaStateId, input: &[u8]) -> SfaStateId {
        match self.byte_table_section() {
            Some(t) => with_width!(self.repr, scan_dense(t, &self.sink, state, input)),
            None => with_width!(
                self.repr,
                scan_classes(
                    self.table_section(),
                    &self.classes,
                    self.stride,
                    &self.sink,
                    state,
                    input
                )
            ),
        }
    }

    /// Runs several independent `(state, input)` jobs, walking
    /// [`INTERLEAVE_LANES`] of them in lockstep to hide table-load
    /// latency.
    ///
    /// A single scan is one long dependent-load chain — every lookup
    /// waits for the previous one. Four independent chains keep four
    /// loads in flight, so a worker handed several sub-chunks (the
    /// interleaved lanes of a parallel scan) approaches the cache's
    /// bandwidth instead of its latency. Groups of four run over their common prefix length with
    /// no per-byte sink branch (a sink self-loops harmlessly); each tail
    /// then finishes through [`run_from`](DSfa::run_from), which keeps
    /// the sink early-exit. Results are returned in job order, and equal
    /// `run_from(state, input)` for every job. Without a premultiplied
    /// table the jobs simply run one by one.
    ///
    /// With the `simd` feature the whole batch dispatches once to the
    /// automaton's kernel when one applies (see
    /// [`scan_kernel`](DSfa::scan_kernel)): the gather kernel widens the
    /// lockstep walk to 8 lanes with vectorized table loads, the shuffle
    /// kernel runs each job at ~1 byte/cycle.
    pub fn run_from_many(&self, jobs: &[(SfaStateId, &[u8])]) -> Vec<SfaStateId> {
        #[cfg(feature = "simd")]
        if let Some(kernels) = self.simd_kernels() {
            return self.run_from_many_simd(kernels, jobs);
        }
        self.run_from_many_scalar(jobs)
    }

    /// [`run_from_many`](DSfa::run_from_many) restricted to the scalar
    /// loops (the [`INTERLEAVE_LANES`]-wide lockstep walk) — the
    /// reference and benchmark baseline for the SIMD batch path, with
    /// identical results.
    pub fn run_from_many_scalar(&self, jobs: &[(SfaStateId, &[u8])]) -> Vec<SfaStateId> {
        let mut out = Vec::with_capacity(jobs.len());
        let Some(bt) = self.byte_table_section() else {
            out.extend(jobs.iter().map(|&(s, input)| self.run_from_scalar(s, input)));
            return out;
        };
        let mut groups = jobs.chunks_exact(INTERLEAVE_LANES);
        for group in groups.by_ref() {
            let mut f = [group[0].0, group[1].0, group[2].0, group[3].0];
            let inputs = [group[0].1, group[1].1, group[2].1, group[3].1];
            let common = inputs.iter().map(|s| s.len()).min().unwrap_or(0);
            with_width!(self.repr, scan_dense_lanes(bt, &mut f, &inputs, common));
            for (lane, input) in inputs.iter().enumerate() {
                out.push(self.run_from_scalar(f[lane], &input[common..]));
            }
        }
        out.extend(groups.remainder().iter().map(|&(s, input)| self.run_from_scalar(s, input)));
        out
    }

    /// The SIMD batch path behind [`run_from_many`](DSfa::run_from_many).
    #[cfg(feature = "simd")]
    fn run_from_many_simd(
        &self,
        kernels: &simd::SimdKernels,
        jobs: &[(SfaStateId, &[u8])],
    ) -> Vec<SfaStateId> {
        match kernels {
            // The shuffle kernel already saturates on a single input;
            // lockstep interleaving would only add bookkeeping.
            simd::SimdKernels::Shuffle(k) => jobs
                .iter()
                .map(
                    |&(s, input)| {
                        if self.sink[s as usize] {
                            s
                        } else {
                            k.run(&self.sink, s, input)
                        }
                    },
                )
                .collect(),
            simd::SimdKernels::Gather(k) => {
                let bt =
                    self.byte_table_section().expect("gather kernel implies a premultiplied table");
                let mut out = Vec::with_capacity(jobs.len());
                let mut groups = jobs.chunks_exact(simd::GATHER_LANES);
                for group in groups.by_ref() {
                    let mut f = [0 as SfaStateId; simd::GATHER_LANES];
                    let mut inputs: [&[u8]; simd::GATHER_LANES] = [&[]; simd::GATHER_LANES];
                    for (lane, &(s, input)) in group.iter().enumerate() {
                        // The gather reads `s * 256 + byte` unchecked.
                        assert!((s as usize) < self.num_states, "state {s} out of range");
                        f[lane] = s;
                        inputs[lane] = input;
                    }
                    let common = inputs.iter().map(|s| s.len()).min().unwrap_or(0);
                    k.run_lanes(bt, &self.sink, &mut f, &inputs, common);
                    for (lane, input) in inputs.iter().enumerate() {
                        out.push(self.run_from_scalar(f[lane], &input[common..]));
                    }
                }
                out.extend(
                    groups.remainder().iter().map(|&(s, input)| self.run_from_scalar(s, input)),
                );
                out
            }
        }
    }

    /// The lazily built SIMD kernels for this automaton (`None` when the
    /// scalar loops are the only applicable path).
    #[cfg(feature = "simd")]
    #[inline]
    fn simd_kernels(&self) -> Option<&simd::SimdKernels> {
        self.simd
            .get_or_init(|| {
                simd::SimdKernels::build(self.byte_table_section(), self.repr, self.num_states)
            })
            .as_ref()
    }

    /// Name of the transition kernel [`run_from`](DSfa::run_from) /
    /// [`run_from_many`](DSfa::run_from_many) dispatch to on this build,
    /// CPU and automaton shape: `"shuffle"` (SSSE3 `pshufb`, `u8` repr,
    /// ≤ 16 states, premultiplied), `"gather"` (AVX2 `vpgatherdd`, any
    /// premultiplied automaton) or `"scalar"` (the monomorphized loops —
    /// always the answer without the `simd` feature). Surfaced through
    /// `SizeReport` as the `scan_kernel` JSON field.
    pub fn scan_kernel(&self) -> &'static str {
        #[cfg(feature = "simd")]
        {
            simd::kernel_name(self.premultiplied(), self.repr, self.num_states)
        }
        #[cfg(not(feature = "simd"))]
        {
            "scalar"
        }
    }

    /// How many independent sub-chunks an *interleaving* caller should
    /// drive through one [`run_from_many`](DSfa::run_from_many) call to
    /// saturate this automaton's scan kernel on a single large haystack:
    ///
    /// * `"gather"` kernel → 8 (one AVX2 register of lane states): the
    ///   vector gather issues all lane loads at once, so more lanes means
    ///   more memory-level parallelism on cache-missing tables;
    /// * scalar premultiplied → [`INTERLEAVE_LANES`] (4): the lockstep
    ///   scalar walk keeps that many dependent-load chains in flight;
    /// * `"shuffle"` kernel or no premultiplied table → 1: the shuffle
    ///   kernel already runs at ~1 byte/cycle from a 4 KiB L1-resident
    ///   table (splitting only adds composition overhead), and without a
    ///   premultiplied table batch jobs run one by one anyway.
    ///
    /// `sfa-matcher` consumes this through
    /// `Engine::plan_chunks_interleaved` to split each worker's chunk;
    /// composing the per-sub-chunk states (Lemma 1) keeps verdicts exact.
    pub fn preferred_lanes(&self) -> usize {
        if !self.premultiplied() {
            return 1;
        }
        #[cfg(feature = "simd")]
        {
            match self.scan_kernel() {
                "gather" => simd::GATHER_LANES,
                "shuffle" => 1,
                _ => INTERLEAVE_LANES,
            }
        }
        #[cfg(not(feature = "simd"))]
        {
            INTERLEAVE_LANES
        }
    }

    /// Whole-input membership using the SFA alone (sequential; the parallel
    /// version lives in `sfa-matcher`).
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.is_accepting(self.run(input))
    }

    /// Composes the mappings of two SFA states: if `a = f_w` and `b = f_v`,
    /// the result is `f_wv`. This is the `⋄` operator of the reduction step.
    pub fn compose(&self, a: SfaStateId, b: SfaStateId) -> Transformation {
        let second = self.mapping_row(b);
        Transformation::from_vec(
            self.mapping_row(a)
                .iter()
                .map(|&q| StateId::from_le_bytes(second[StateId::from_le_bytes(q) as usize]))
                .collect(),
        )
    }

    /// Composes two SFA states *as states*: the state whose mapping is
    /// `f_w ⋄ f_v` when `a = f_w` and `b = f_v`.
    ///
    /// This is total: the reachable transformations are closed under
    /// composition (Lemma 1 — `f_w ⋄ f_v = f_wv`, the mapping of an actual
    /// word), so the composite is always an existing state. It is what lets
    /// a streaming matcher fold the per-block states produced by parallel
    /// chunk scans into one running state and keep matching from it.
    ///
    /// Three compositions resolve without touching the mapping index:
    /// identity on either side is a no-op, and a [sink](DSfa::is_sink) on
    /// the left absorbs anything (a sink's image state loops on every byte,
    /// so no suffix can move it). The general case composes the two
    /// mappings (`O(|D|)`) and resolves the result through the lazily built
    /// state index.
    pub fn compose_states(&self, a: SfaStateId, b: SfaStateId) -> SfaStateId {
        if a == self.initial() {
            return b;
        }
        if b == self.initial() || self.is_sink(a) {
            return a;
        }
        let composed = self.compose(a, b);
        *self
            .state_index()
            .get(&composed)
            .expect("SFA states are closed under composition (Lemma 1)")
    }

    /// Looks up the SFA state corresponding to a transformation, if that
    /// transformation is reachable (i.e. is an actual SFA state).
    ///
    /// The first call builds a mapping → id hash index (costing about as
    /// much memory as the mappings themselves); subsequent calls are one
    /// hash lookup.
    pub fn state_of(&self, mapping: &Transformation) -> Option<SfaStateId> {
        self.state_index().get(mapping).copied()
    }

    /// The lazily built mapping → state-id index backing
    /// [`state_of`](DSfa::state_of) and
    /// [`compose_states`](DSfa::compose_states).
    fn state_index(&self) -> &HashMap<Transformation, SfaStateId> {
        self.state_index.get_or_init(|| {
            (0..self.num_states as SfaStateId).map(|s| (self.mapping(s), s)).collect()
        })
    }

    /// Bytes occupied by the (class-compressed) transition table, at the
    /// packed width.
    pub fn table_bytes(&self) -> usize {
        self.table.len()
    }

    /// Bytes occupied by the premultiplied dense byte table at the packed
    /// width (0 when it was not built).
    pub fn byte_table_bytes(&self) -> usize {
        self.byte_table.as_ref().map_or(0, |r| r.len())
    }

    /// Bytes occupied by the state mappings (needed by the reduction step).
    pub fn mapping_bytes(&self) -> usize {
        self.mappings.len()
    }

    /// Re-interprets the SFA as a plain DFA over the same byte classes
    /// (the SFA *is* deterministic). Used for equivalence checking. The
    /// packed rows are widened back to the automata layer's `u32` ids at
    /// this boundary.
    pub fn as_dfa(&self) -> Dfa {
        let rows = self.table_section();
        Dfa::from_parts(
            self.classes.clone(),
            (0..self.num_states * self.stride).map(|i| read(rows, self.repr, i)).collect(),
            self.accepting.to_vec(),
            self.initial(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_automata::equivalence::equivalent;
    use sfa_automata::minimal_dfa_from_pattern;

    fn dsfa(pattern: &str) -> (Dfa, DSfa) {
        let dfa = minimal_dfa_from_pattern(pattern).unwrap();
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        (dfa, sfa)
    }

    #[test]
    fn paper_example_ab_star_has_six_states() {
        // Fig. 2 / Table I: the D-SFA of (ab)* has exactly 6 states
        // f0..f5, built from the 3-state DFA (2 live + dead).
        let (dfa, sfa) = dsfa("(ab)*");
        assert_eq!(dfa.num_states(), 3);
        assert_eq!(sfa.num_states(), 6);
        assert_eq!(sfa.num_dfa_states(), 3);
        // The initial state is the identity mapping.
        assert!(sfa.mapping(sfa.initial()).is_identity());
    }

    #[test]
    fn paper_example_computation_over_abab() {
        // Example 1: f0 -a-> f1 -b-> f4 -a-> f1 -b-> f4 and f4(0) = 0,
        // so abab is accepted.
        let (dfa, sfa) = dsfa("(ab)*");
        let f = sfa.run(b"abab");
        assert!(sfa.is_accepting(f));
        assert_eq!(sfa.mapping(f).apply(dfa.start()), dfa.start());
        // The same SFA state is reached after ab (period 2).
        assert_eq!(sfa.run(b"ab"), f);
        // And a different, non-accepting state after aba.
        let g = sfa.run(b"aba");
        assert_ne!(g, f);
        assert!(!sfa.is_accepting(g));
    }

    #[test]
    fn sfa_equivalent_to_dfa() {
        for pattern in
            ["(ab)*", "a|bc|d", "(a|b)*abb", "([0-4]{2}[5-9]{2})*", "a{2,4}b{1,3}", "(?i)get|post"]
        {
            let (dfa, sfa) = dsfa(pattern);
            assert!(equivalent(&dfa, &sfa.as_dfa()), "pattern {:?}", pattern);
            for input in [&b""[..], b"ab", b"abab", b"abb", b"0055", b"GET", b"zzz"] {
                assert_eq!(dfa.accepts(input), sfa.accepts(input), "{:?} {:?}", pattern, input);
            }
        }
    }

    #[test]
    fn rn_family_sizes_match_paper() {
        // Sect. VI-B: |D| = 2n (live) and |S_d| is "almost the square" of
        // |D|. Analytically the reachable transformations of the complete
        // DFA number d(d+1) with d = 2n (d^2 single-survivor mappings, d-2
        // prefix mappings, the identity and the all-dead sink). The paper
        // reports 109 for n = 5, i.e. one fewer — it does not count one of
        // the sink states; we assert our exact count and check the
        // "quadratic, not exponential" property the paper cares about.
        for n in [2usize, 3, 5] {
            let pattern = format!("([0-4]{{{n}}}[5-9]{{{n}}})*");
            let (dfa, sfa) = dsfa(&pattern);
            let d = 2 * n;
            assert_eq!(dfa.num_live_states(), d);
            assert_eq!(sfa.num_states(), d * (d + 1), "n = {}", n);
            assert!(sfa.num_states() <= (dfa.num_states()) * (dfa.num_states()));
        }
        // The paper's headline number for n = 5 is 109; ours counts 110
        // (the all-dead mapping included).
        let (_, sfa) = dsfa("([0-4]{5}[5-9]{5})*");
        assert_eq!(sfa.num_states(), 110);
    }

    #[test]
    fn fig10_expression_sfa_size() {
        // Sect. VI-C: (([02468][13579]){5})* — "the size of DFA is 10, and
        // the size of SFA is 21". Our count is 22 because the all-dead
        // mapping is included as a state; the live structure (10 even-phase
        // mappings, 10 odd-phase mappings, identity) matches the paper.
        let (dfa, sfa) = dsfa("(([02468][13579]){5})*");
        assert_eq!(dfa.num_live_states(), 10);
        assert_eq!(sfa.num_states(), 22);
    }

    #[test]
    fn composition_matches_concatenated_run() {
        let (_, sfa) = dsfa("([0-4]{2}[5-9]{2})*");
        let w1 = b"0456";
        let w2 = b"0055044";
        let f1 = sfa.run(w1);
        let f2 = sfa.run(w2);
        let mut whole = Vec::new();
        whole.extend_from_slice(w1);
        whole.extend_from_slice(w2);
        let f12 = sfa.run(&whole);
        // Lemma 1: f_{w1} ⋄ f_{w2} = f_{w1 w2}.
        assert_eq!(sfa.compose(f1, f2), sfa.mapping(f12));
        assert_eq!(sfa.state_of(&sfa.compose(f1, f2)), Some(f12));
    }

    #[test]
    fn compose_states_matches_concatenated_run() {
        // compose_states is the state-level form of Lemma 1: for any two
        // reachable states the composite is again a state, and it is the
        // state of the concatenated word.
        let (_, sfa) = dsfa("([0-4]{2}[5-9]{2})*");
        let words: [&[u8]; 5] = [b"", b"0456", b"0055044", b"9", b"005504590055"];
        for w1 in words {
            for w2 in words {
                let f1 = sfa.run(w1);
                let f2 = sfa.run(w2);
                let mut whole = w1.to_vec();
                whole.extend_from_slice(w2);
                assert_eq!(sfa.compose_states(f1, f2), sfa.run(&whole), "w1 {:?} w2 {:?}", w1, w2);
            }
        }
    }

    #[test]
    fn compose_states_shortcuts_identity_and_sink() {
        let (_, sfa) = dsfa("(ab)*");
        let id = sfa.initial();
        let f = sfa.run(b"ab");
        let dead = sfa.run(b"aa");
        assert!(sfa.is_sink(dead));
        // Identity is neutral on both sides.
        assert_eq!(sfa.compose_states(id, f), f);
        assert_eq!(sfa.compose_states(f, id), f);
        // A sink on the left absorbs any right-hand state.
        for g in 0..sfa.num_states() as SfaStateId {
            assert_eq!(sfa.compose_states(dead, g), dead);
        }
    }

    #[test]
    fn state_limit_enforced() {
        let dfa = minimal_dfa_from_pattern("([0-4]{5}[5-9]{5})*").unwrap();
        let err = DSfa::from_dfa(&dfa, &SfaConfig { max_states: 50, ..SfaConfig::default() })
            .unwrap_err();
        assert_eq!(err, CompileError::TooManyStates { limit: 50 });
    }

    #[test]
    fn accepting_patterns_refine_is_accepting() {
        use sfa_automata::{determinize, minimize, DfaConfig, Nfa};
        let nfa = Nfa::from_patterns(["(ab)*", "a+", "[ab]{2}"]).unwrap();
        let dfa = minimize(&determinize(&nfa, &DfaConfig::default()).unwrap());
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        assert_eq!(sfa.pattern_count(), 3);
        for input in [&b""[..], b"a", b"ab", b"aa", b"abab", b"ba", b"zz"] {
            let state = sfa.run(input);
            let pats = sfa.accepting_patterns(state);
            assert_eq!(pats, dfa.matching_patterns(input), "input {:?}", input);
            assert_eq!(sfa.is_accepting(state), !pats.is_empty(), "input {:?}", input);
            assert_eq!(pats, sfa.dfa_accepting_patterns(dfa.run(input)));
        }
        // "ab" fires (ab)* and [ab]{2} together in a single pass.
        let hits = sfa.accepting_patterns(sfa.run(b"ab"));
        assert_eq!(hits.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn accepting_states_check_dfa_start_image() {
        let (dfa, sfa) = dsfa("(ab)*");
        for s in 0..sfa.num_states() as SfaStateId {
            let expected = dfa.is_accepting(sfa.mapping(s).apply(dfa.start()));
            assert_eq!(sfa.is_accepting(s), expected);
        }
    }

    #[test]
    fn table_and_mapping_sizes() {
        let (_, sfa) = dsfa("(ab)*");
        // 6 states pack to u8: one byte per stored id.
        assert_eq!(sfa.repr(), StateIdRepr::U8);
        assert_eq!(sfa.state_id_bytes(), 1);
        assert_eq!(sfa.table_bytes(), sfa.num_states() * sfa.num_classes() * sfa.state_id_bytes());
        assert_eq!(sfa.mapping_bytes(), sfa.num_states() * sfa.num_dfa_states() * 4);
    }

    #[test]
    fn premultiplied_table_agrees_with_class_rows() {
        let dfa = minimal_dfa_from_pattern("(a|b)*abb").unwrap();
        let fast = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        let slow = DSfa::from_dfa(&dfa, &SfaConfig { premultiply: false, ..SfaConfig::default() })
            .unwrap();
        assert!(fast.premultiplied());
        assert!(!slow.premultiplied());
        assert_eq!(fast.byte_table_bytes(), fast.num_states() * 256 * fast.state_id_bytes());
        assert_eq!(slow.byte_table_bytes(), 0);
        // Every single-byte step agrees between the dense and the
        // class-compressed layout.
        for s in 0..fast.num_states() as SfaStateId {
            for byte in 0..=255u8 {
                assert_eq!(fast.next_state(s, byte), slow.next_state(s, byte));
            }
        }
        for input in [&b""[..], b"abb", b"aababb", b"zzz", b"abba"] {
            assert_eq!(fast.run(input), slow.run(input));
            assert_eq!(fast.accepts(input), dfa.accepts(input));
        }
    }

    #[test]
    fn sink_states_are_constant_and_absorbing() {
        let (_, sfa) = dsfa("(ab)*");
        let mut sinks = 0;
        for s in 0..sfa.num_states() as SfaStateId {
            if sfa.is_sink(s) {
                sinks += 1;
                // A sink's mapping is constant and survives any further byte.
                assert!(sfa.mapping(s).is_constant());
                for byte in [b'a', b'b', b'z'] {
                    assert_eq!(sfa.next_state(s, byte), s);
                }
            }
        }
        // (ab)* has exactly one sink: the all-dead mapping (reached e.g.
        // after the synchronizing word "aa").
        assert_eq!(sinks, 1);
        let dead = sfa.run(b"aa");
        assert!(sfa.is_sink(dead));
        // The early exit must not change the result: a long tail after the
        // synchronizing word still lands in the same state.
        let mut long = b"aa".to_vec();
        long.resize(long.len() + 10_000, b'a');
        assert_eq!(sfa.run(&long), dead);
        assert!(!sfa.accepts(&long));
    }

    #[test]
    fn empty_and_universal_languages() {
        let (_, sfa) = dsfa("(?s).*");
        assert_eq!(sfa.num_states(), 1, "universal language: identity only");
        assert!(sfa.accepts(b""));
        assert!(sfa.accepts(b"anything"));

        use sfa_automata::determinize::{dfa_from_ast, DfaConfig};
        use sfa_regex_syntax::ast::Ast;
        use sfa_regex_syntax::ByteSet;
        let void = sfa_automata::minimize(
            &dfa_from_ast(&Ast::Class(ByteSet::EMPTY), &DfaConfig::default()).unwrap(),
        );
        let sfa = DSfa::from_dfa(&void, &SfaConfig::default()).unwrap();
        assert_eq!(sfa.num_states(), 1);
        assert!(!sfa.accepts(b""));
        assert!(!sfa.accepts(b"a"));
    }

    /// An `n`-state rotation DFA (state `i` steps to `i+1 mod n` on every
    /// byte, state 0 accepts) whose D-SFA has *exactly* `n` states — the
    /// reachable transformations are the `n` rotations — which pins the
    /// repr promotion boundaries precisely.
    fn cycle_dfa(n: usize) -> Dfa {
        let table: Vec<StateId> = (0..n).map(|i| ((i + 1) % n) as StateId).collect();
        let mut accepting = vec![false; n];
        accepting[0] = true;
        Dfa::from_parts(ByteClasses::single(), table, accepting, 0)
    }

    #[test]
    fn repr_selection_rule() {
        assert_eq!(StateIdRepr::for_states(1), StateIdRepr::U8);
        assert_eq!(StateIdRepr::for_states(255), StateIdRepr::U8);
        assert_eq!(StateIdRepr::for_states(256), StateIdRepr::U8);
        assert_eq!(StateIdRepr::for_states(257), StateIdRepr::U16);
        assert_eq!(StateIdRepr::for_states(65_536), StateIdRepr::U16);
        assert_eq!(StateIdRepr::for_states(65_537), StateIdRepr::U32);
        for repr in [StateIdRepr::U8, StateIdRepr::U16, StateIdRepr::U32] {
            assert_eq!(StateIdRepr::parse(repr.as_str()), Some(repr));
            assert_eq!(repr.to_string(), repr.as_str());
        }
        assert_eq!(StateIdRepr::parse("u64"), None);
    }

    #[test]
    fn u8_to_u16_promotion_boundary() {
        // Automata with exactly 255 / 256 / 257 SFA states: ids 0..=254
        // and 0..=255 fit one byte; 257 states force two.
        for (n, expected) in
            [(255, StateIdRepr::U8), (256, StateIdRepr::U8), (257, StateIdRepr::U16)]
        {
            let dfa = cycle_dfa(n);
            let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
            assert_eq!(sfa.num_states(), n, "rotation SFA has exactly n states");
            assert_eq!(sfa.repr(), expected, "n = {n}");
            assert_eq!(sfa.table_bytes(), n * sfa.num_classes() * expected.bytes());
            // The walk crosses the full id range: after k bytes the state
            // is rotation k, and n bytes return to the identity.
            let mut f = sfa.initial();
            for step in 1..=n {
                f = sfa.next_state(f, b'x');
                assert_eq!(sfa.is_accepting(f), step % n == 0 || step == n);
            }
            assert_eq!(f, sfa.initial());
            assert_eq!(sfa.run(&vec![b'x'; n]), sfa.initial());
        }
    }

    #[test]
    fn forced_repr_widens_but_never_narrows() {
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        // 6 states: auto is u8; forcing wider widths is honored.
        for (forced, expected) in [
            (None, StateIdRepr::U8),
            (Some(StateIdRepr::U8), StateIdRepr::U8),
            (Some(StateIdRepr::U16), StateIdRepr::U16),
            (Some(StateIdRepr::U32), StateIdRepr::U32),
        ] {
            let sfa =
                DSfa::from_dfa(&dfa, &SfaConfig { repr: forced, ..SfaConfig::default() }).unwrap();
            assert_eq!(sfa.repr(), expected, "forced {forced:?}");
            assert_eq!(sfa.state_id_bytes(), expected.bytes());
        }
        // 257 states: a forced u8 cannot hold the ids and is widened.
        let big = cycle_dfa(257);
        let sfa = DSfa::from_dfa(
            &big,
            &SfaConfig { repr: Some(StateIdRepr::U8), ..SfaConfig::default() },
        )
        .unwrap();
        assert_eq!(sfa.repr(), StateIdRepr::U16);
    }

    #[test]
    fn packed_reprs_agree_on_runs_and_tables() {
        let dfa = minimal_dfa_from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let base = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        for forced in [StateIdRepr::U8, StateIdRepr::U16, StateIdRepr::U32] {
            for premultiply in [true, false] {
                let cfg = SfaConfig { repr: Some(forced), premultiply, ..SfaConfig::default() };
                let sfa = DSfa::from_dfa(&dfa, &cfg).unwrap();
                // Interning order is repr-independent, so state ids agree
                // exactly, not just up to isomorphism.
                for input in [&b""[..], b"0055", b"00550459", b"005", b"5500", b"zzz"] {
                    assert_eq!(sfa.run(input), base.run(input), "{forced:?} {input:?}");
                }
                for s in 0..sfa.num_states() as SfaStateId {
                    for byte in [b'0', b'5', b'9', b'z'] {
                        assert_eq!(sfa.next_state(s, byte), base.next_state(s, byte));
                    }
                }
            }
        }
    }

    #[test]
    fn run_from_many_agrees_with_run_from() {
        let (_, sfa) = dsfa("([0-4]{2}[5-9]{2})*");
        let dead = sfa.run(b"z");
        assert!(sfa.is_sink(dead));
        let long = b"00550459".repeat(100);
        // Mixed lengths (forcing unequal tails), a sink start, an empty
        // input, and a count that is not a multiple of the lane width.
        let jobs: Vec<(SfaStateId, &[u8])> = vec![
            (sfa.initial(), &long[..]),
            (sfa.initial(), b"0055"),
            (dead, &long[..]),
            (sfa.initial(), b""),
            (sfa.run(b"00"), b"550459"),
            (sfa.initial(), b"zz"),
            (sfa.initial(), &long[..17]),
        ];
        let expected: Vec<SfaStateId> = jobs.iter().map(|&(s, i)| sfa.run_from(s, i)).collect();
        assert_eq!(sfa.run_from_many(&jobs), expected);
        // The class-row fallback path (no premultiplied table) agrees too.
        let dfa = minimal_dfa_from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let slow = DSfa::from_dfa(&dfa, &SfaConfig { premultiply: false, ..SfaConfig::default() })
            .unwrap();
        assert_eq!(slow.run_from_many(&jobs), expected);
        assert!(sfa.run_from_many(&[]).is_empty());
    }

    /// `run_from` / `run_from_many` must return exactly what their
    /// `*_scalar` references do, whatever kernel the dispatch picks —
    /// trivial without the `simd` feature, the real agreement check with
    /// it (shuffle on the 6-state automaton, gather on the wider ones).
    /// Lengths cover 0, 1, the shuffle kernel's 64-byte block boundary,
    /// lane-remainder tails and mid-input sink entry.
    #[test]
    fn simd_dispatch_agrees_with_scalar() {
        let automata: Vec<DSfa> = vec![
            dsfa("(ab)*").1,               // 6 states: shuffle candidate
            dsfa("([0-4]{2}[5-9]{2})*").1, // 20 states: u8 gather candidate
            DSfa::from_dfa(&cycle_dfa(300), &SfaConfig::default()).unwrap(), // u16
            DSfa::from_dfa(
                &minimal_dfa_from_pattern("(ab)*").unwrap(),
                &SfaConfig { repr: Some(StateIdRepr::U32), ..SfaConfig::default() },
            )
            .unwrap(), // forced u32
        ];
        let ab = b"ab".repeat(300);
        for sfa in &automata {
            let mut inputs: Vec<Vec<u8>> = Vec::new();
            for len in [0usize, 1, 2, 63, 64, 65, 128, 300, 599] {
                inputs.push(ab[..len].to_vec());
            }
            // Sink entry mid-input: a byte outside every pattern's
            // alphabet early, then a long tail (and one past the first
            // block boundary).
            let mut poisoned = ab[..7].to_vec();
            poisoned.push(b'!');
            poisoned.extend_from_slice(&ab[..200]);
            inputs.push(poisoned);
            let mut late_poison = ab[..100].to_vec();
            late_poison.push(b'!');
            late_poison.extend_from_slice(&ab[..100]);
            inputs.push(late_poison);
            // Keeps the window automaton out of its sink for the whole
            // scan (and covers a non-multiple-of-64 length).
            inputs.push(b"00550459".repeat(37));
            for input in &inputs {
                assert_eq!(
                    sfa.run_from(sfa.initial(), input),
                    sfa.run_from_scalar(sfa.initial(), input)
                );
            }
            // Batches of every size 0..=13 exercise both the 8-lane
            // gather groups and the remainder path.
            let jobs: Vec<(SfaStateId, &[u8])> =
                inputs.iter().cycle().take(13).map(|v| (sfa.initial(), &v[..])).collect();
            for n in 0..=jobs.len() {
                assert_eq!(sfa.run_from_many(&jobs[..n]), sfa.run_from_many_scalar(&jobs[..n]));
            }
            // From every state, single bytes agree too.
            for s in 0..sfa.num_states().min(64) as SfaStateId {
                for b in [b'a', b'b', b'0', b'7', b'!'] {
                    assert_eq!(sfa.run_from(s, &[b]), sfa.run_from_scalar(s, &[b]));
                }
            }
        }
    }

    /// Copies `sfa`'s table sections into a fresh buffer behind one byte
    /// of padding (so every table starts at an odd offset, as nothing in
    /// an artifact guarantees alignment), and returns the buffer plus a
    /// parts builder, so tests can corrupt the buffer first.
    fn sections(sfa: &DSfa) -> (Vec<u8>, impl Fn(ArtifactBytes) -> DSfaParts + use<>) {
        let mut buf = vec![0xAA];
        buf.extend_from_slice(sfa.table_section());
        let table = 1..buf.len();
        let byte_table = sfa.byte_table_section().map(|bt| {
            let start = buf.len();
            buf.extend_from_slice(bt);
            start..buf.len()
        });
        let map_start = buf.len();
        buf.extend_from_slice(sfa.mapping_section());
        let mappings = map_start..buf.len();
        let (repr, num_states) = (sfa.repr(), sfa.num_states());
        let parts = move |data: ArtifactBytes| DSfaParts {
            data,
            repr,
            num_states,
            table: table.clone(),
            byte_table: byte_table.clone(),
            mappings: mappings.clone(),
        };
        (buf, parts)
    }

    fn loaded(pattern: &str, premultiply: bool) -> (Dfa, DSfa, DSfa) {
        let dfa = minimal_dfa_from_pattern(pattern).unwrap();
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig { premultiply, ..SfaConfig::default() }).unwrap();
        let (buf, parts_of) = sections(&sfa);
        let loaded = DSfa::from_parts(parts_of(Arc::new(buf)), &dfa).unwrap();
        (dfa, sfa, loaded)
    }

    #[test]
    fn loaded_scans_agree_with_built() {
        for premultiply in [true, false] {
            for pattern in ["(ab)*", "(a|b)*abb", "([0-4]{2}[5-9]{2})*", "a{2,4}b{1,3}"] {
                let (dfa, sfa, loaded) = loaded(pattern, premultiply);
                assert_eq!(loaded.num_states(), sfa.num_states());
                assert_eq!(loaded.premultiplied(), sfa.premultiplied());
                assert_eq!(loaded.repr(), sfa.repr());
                // The same layout runs the same kernels.
                assert_eq!(loaded.scan_kernel(), sfa.scan_kernel());
                assert_eq!(loaded.preferred_lanes(), sfa.preferred_lanes());
                let long = b"00550459ab".repeat(40);
                let inputs = [&b""[..], b"ab", b"abab", b"abb", b"0055", b"aabbb", b"zzz", &long];
                for input in inputs {
                    let (fo, fl) = (sfa.run(input), loaded.run(input));
                    assert_eq!(fo, fl, "{pattern} {input:?} premultiply={premultiply}");
                    assert_eq!(fl, loaded.run_from_scalar(loaded.initial(), input));
                    assert_eq!(loaded.is_accepting(fl), sfa.is_accepting(fo));
                    assert_eq!(loaded.is_sink(fl), sfa.is_sink(fo));
                    assert_eq!(loaded.accepts(input), dfa.accepts(input));
                    assert_eq!(loaded.mapping(fl), sfa.mapping(fo));
                    for q in 0..dfa.num_states() as StateId {
                        assert_eq!(loaded.apply(fl, q), sfa.mapping(fo).apply(q));
                    }
                }
                // Composition and state lookup go through the mapping
                // index built from the loaded table.
                let (a, b) = (loaded.run(b"ab"), loaded.run(b"ba"));
                assert_eq!(loaded.compose_states(a, b), sfa.compose_states(a, b));
                assert_eq!(loaded.state_of(&sfa.mapping(a)), Some(a));
                // The batch path (lanes and kernels) agrees with one-by-one
                // scans.
                let jobs: Vec<(SfaStateId, &[u8])> =
                    inputs.iter().cycle().take(11).map(|&i| (loaded.initial(), i)).collect();
                let expected: Vec<SfaStateId> =
                    jobs.iter().map(|&(s, i)| sfa.run_from(s, i)).collect();
                assert_eq!(loaded.run_from_many(&jobs), expected);
                assert_eq!(loaded.run_from_many_scalar(&jobs), expected);
            }
        }
    }

    #[test]
    fn from_parts_rejects_out_of_range_and_misshapen_tables() {
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        let (buf, parts_of) = sections(&sfa);
        let from = |bytes: Vec<u8>| DSfa::from_parts(parts_of(Arc::new(bytes)), &dfa);

        // Pristine buffer loads.
        assert!(from(buf.clone()).is_ok());

        // An out-of-range state id in the class rows fails closed.
        let mut bad = buf.clone();
        bad[1] = 0xFF;
        let err = from(bad).unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        // An out-of-range id in the byte table fails closed too.
        let bt = parts_of(Arc::new(Vec::new())).byte_table.unwrap();
        let mut bad = buf.clone();
        bad[bt.end - 1] = 0xFF;
        let err = from(bad).unwrap_err();
        assert!(err.contains("byte-table entry"), "{err}");

        // A truncated buffer fails the range check, not a panic.
        let err = from(buf[..buf.len() - 1].to_vec()).unwrap_err();
        assert!(err.contains("escapes"), "{err}");

        // A corrupted identity row (state 0) is rejected.
        let map_range = parts_of(Arc::new(Vec::new())).mappings;
        let mut bad = buf.clone();
        bad[map_range.start] = 1;
        let err = from(bad).unwrap_err();
        assert!(err.contains("identity"), "{err}");

        // A mapping entry pointing at a nonexistent DFA state is rejected.
        let mut bad = buf;
        bad[map_range.start + 4] = 0xEE;
        let err = from(bad).unwrap_err();
        assert!(err.contains("mapping entry"), "{err}");
    }

    #[test]
    fn loaded_bitmaps_match_the_built_automaton() {
        let (_, sfa, loaded) = loaded("(a|b)*abb", true);
        for s in 0..sfa.num_states() as SfaStateId {
            assert_eq!(loaded.is_sink(s), sfa.is_sink(s), "sink {s}");
            assert_eq!(loaded.is_accepting(s), sfa.is_accepting(s), "accepting {s}");
            assert_eq!(loaded.accepting_patterns(s), sfa.accepting_patterns(s));
        }
        assert_eq!(loaded.table_bytes(), sfa.table_bytes());
        assert_eq!(loaded.byte_table_bytes(), sfa.byte_table_bytes());
        assert_eq!(loaded.mapping_bytes(), sfa.mapping_bytes());
        assert_eq!(sfa.artifact_bytes(), None);
        let whole = 1 + sfa.table_bytes() + sfa.byte_table_bytes() + sfa.mapping_bytes();
        assert_eq!(loaded.artifact_bytes(), Some(whole));
    }

    #[test]
    fn scan_kernel_and_preferred_lanes_are_consistent() {
        // Without a premultiplied table there is nothing to vectorize.
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        let plain = DSfa::from_dfa(&dfa, &SfaConfig { premultiply: false, ..SfaConfig::default() })
            .unwrap();
        assert_eq!(plain.scan_kernel(), "scalar");
        assert_eq!(plain.preferred_lanes(), 1);

        // Premultiplied automata report whichever kernel this build/CPU
        // dispatches to, and lanes consistent with it.
        let small = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        assert!(small.num_states() <= 16);
        assert!(matches!(small.scan_kernel(), "shuffle" | "gather" | "scalar"));
        let wide = DSfa::from_dfa(&cycle_dfa(300), &SfaConfig::default()).unwrap();
        assert!(matches!(wide.scan_kernel(), "gather" | "scalar"));
        for sfa in [&small, &wide] {
            let lanes = sfa.preferred_lanes();
            match sfa.scan_kernel() {
                "gather" => assert_eq!(lanes, 8),
                "shuffle" => assert_eq!(lanes, 1),
                _ => assert_eq!(lanes, INTERLEAVE_LANES),
            }
        }
        #[cfg(not(feature = "simd"))]
        {
            assert_eq!(small.scan_kernel(), "scalar");
            assert_eq!(small.preferred_lanes(), INTERLEAVE_LANES);
        }
    }
}
