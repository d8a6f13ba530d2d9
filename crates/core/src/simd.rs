//! Explicit-SIMD transition kernels for the eager D-SFA (feature `simd`).
//!
//! Two kernels, picked at runtime per automaton shape and CPU:
//!
//! * **Shuffle** (SSSE3 `pshufb`): for `u8`-repr automata with at most 16
//!   live states the premultiplied byte table is transposed into 256
//!   16-byte *columns* — `cols[b]` holds `δ(s, b)` for every state `s` —
//!   and one `_mm_shuffle_epi8(cols[b], v)` advances the scan. The column
//!   load depends only on the input byte, never on the current state, so
//!   the dependent-load chain of the scalar walk collapses to one
//!   register-to-register shuffle per byte (~1 byte/cycle instead of one
//!   L1 latency per byte).
//! * **Gather** (AVX2 `vpgatherdd`): for any premultiplied automaton,
//!   [`GATHER_LANES`] independent input lanes advance per iteration with
//!   one vector gather — the table loads of all lanes are issued at once,
//!   so a cache-missing table (the 16 384-state window workload) is hit at
//!   memory-level-parallelism bandwidth instead of serial miss latency.
//!
//! Kernels are built lazily on first use (see `DSfa::run_from`) and only
//! when the CPU supports them — the scalar loops in `dsfa` remain the
//! mandatory fallback and the semantic reference: every kernel returns
//! exactly the state the scalar scan would. Narrow gather tables are
//! *copied* with a few zero bytes of tail padding because `vpgatherdd`
//! always reads a 4-byte dword per lane; the automaton's own tables are
//! never touched, so size reports stay exact.

use crate::dsfa::{SfaStateId, StateIdRepr};

/// Lanes advanced per gather iteration (one AVX2 register of `i32` ids).
pub(crate) const GATHER_LANES: usize = 8;

/// Largest automaton the 16-wide `pshufb` shuffle kernel can address.
pub(crate) const SHUFFLE_MAX_STATES: usize = 16;

/// Input bytes scanned between all-lanes-in-sink checks of the gather
/// kernel. Sinks self-loop, so overshooting a sink entry by at most this
/// many bytes is harmless — the check only bounds wasted work on
/// synchronizing inputs.
const SINK_CHECK_BYTES: usize = 512;

/// The SIMD kernel selected for one automaton (mutually exclusive: an
/// automaton that qualifies for the shuffle kernel never uses gather).
#[derive(Clone, Debug)]
pub(crate) enum SimdKernels {
    /// 16-state `pshufb` kernel over a column-major table copy.
    Shuffle(ShuffleKernel),
    /// Multi-lane `vpgatherdd` kernel over the premultiplied table.
    Gather(GatherKernel),
}

/// Which kernel [`SimdKernels::build`] would select for this table shape
/// on this CPU: `"shuffle"`, `"gather"` or `"scalar"`. Pure
/// classification — no tables are copied — so size reporting can name the
/// kernel without paying for it.
pub(crate) fn kernel_name(
    premultiplied: bool,
    repr: StateIdRepr,
    num_states: usize,
) -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if !premultiplied {
            "scalar"
        } else if repr == StateIdRepr::U8
            && num_states <= SHUFFLE_MAX_STATES
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            "shuffle"
        } else if std::arch::is_x86_feature_detected!("avx2") {
            "gather"
        } else {
            "scalar"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (premultiplied, repr, num_states);
        "scalar"
    }
}

impl SimdKernels {
    /// Builds the kernel [`kernel_name`] names for the premultiplied
    /// table `byte_table` (little-endian ids at `repr` width), or `None`
    /// when only the scalar loops apply (no premultiplied table,
    /// unsupported CPU, or a non-x86_64 target).
    pub(crate) fn build(
        byte_table: Option<&[u8]>,
        repr: StateIdRepr,
        num_states: usize,
    ) -> Option<SimdKernels> {
        let table = byte_table?;
        match kernel_name(true, repr, num_states) {
            "shuffle" => Some(SimdKernels::Shuffle(ShuffleKernel::build(table, num_states))),
            "gather" => Some(SimdKernels::Gather(GatherKernel::build(table, repr))),
            _ => None,
        }
    }
}

/// The SSSE3 shuffle kernel: a 4 KiB column-major transpose of the
/// premultiplied byte table, `cols[b * 16 + s] = δ(s, b)`.
#[derive(Clone, Debug)]
pub(crate) struct ShuffleKernel {
    cols: Box<[u8]>,
}

impl ShuffleKernel {
    fn build(byte_table: &[u8], num_states: usize) -> ShuffleKernel {
        debug_assert!(num_states <= SHUFFLE_MAX_STATES);
        let mut cols = vec![0u8; 256 * SHUFFLE_MAX_STATES];
        for s in 0..num_states {
            for b in 0..256 {
                cols[b * SHUFFLE_MAX_STATES + s] = byte_table[s * 256 + b];
            }
        }
        ShuffleKernel { cols: cols.into_boxed_slice() }
    }

    /// Scans `input` from `state`, returning exactly what the scalar
    /// dense loop would (including the sink early exit, checked once per
    /// 64-byte block — a sink self-loops, so overshooting inside a block
    /// cannot change the result).
    pub(crate) fn run(&self, sink: &[bool], state: SfaStateId, input: &[u8]) -> SfaStateId {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: the kernel is only built after `is_x86_feature_detected!`
            // confirmed SSSE3 (see `kernel_name`).
            #[allow(unsafe_code)]
            unsafe {
                self.run_ssse3(sink, state, input)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (sink, state, input);
            unreachable!("shuffle kernel is only built on x86_64")
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "ssse3")]
    #[allow(unsafe_code)]
    unsafe fn run_ssse3(&self, sink: &[bool], state: SfaStateId, input: &[u8]) -> SfaStateId {
        use std::arch::x86_64::*;
        const BLOCK: usize = 64;
        let cols = self.cols.as_ptr();
        // All 16 lanes carry the same (valid, < 16) state id, so the
        // shuffle result is again a broadcast state: `pshufb` picks
        // `cols[b][state]` into every lane.
        let mut v = _mm_set1_epi8(state as i8);
        let mut i = 0;
        while i + BLOCK <= input.len() {
            for &b in &input[i..i + BLOCK] {
                // SAFETY: `(b as usize) << 4` is at most 255 * 16 and
                // `cols` holds 256 * 16 bytes, so the 16-byte load is in
                // bounds. No alignment requirement (`loadu`).
                let col = _mm_loadu_si128(cols.add((b as usize) << 4) as *const __m128i);
                v = _mm_shuffle_epi8(col, v);
            }
            i += BLOCK;
            let s = (_mm_cvtsi128_si32(v) & 0xFF) as usize;
            if sink[s] {
                return s as SfaStateId;
            }
        }
        // Tail: scalar steps through the same column table.
        let mut f = (_mm_cvtsi128_si32(v) & 0xFF) as SfaStateId;
        for &b in &input[i..] {
            let next = self.cols[((b as usize) << 4) + f as usize] as SfaStateId;
            if next != f {
                f = next;
                if sink[f as usize] {
                    return f;
                }
            }
        }
        f
    }
}

/// The AVX2 gather kernel. Narrow widths hold a tail-padded copy of the
/// premultiplied table (a gather reads a whole dword per lane, so the
/// last `u8`/`u16` entry needs 3 / 2 trailing bytes of slack); the `u32`
/// width gathers straight from the automaton's own table, whose last
/// entry already spans a full dword.
#[derive(Clone, Debug)]
pub(crate) struct GatherKernel {
    repr: StateIdRepr,
    /// The padded copy of a `u8`/`u16` table; `None` for `u32`, which
    /// gathers from the table passed at call time.
    padded: Option<Box<[u8]>>,
}

impl GatherKernel {
    fn build(byte_table: &[u8], repr: StateIdRepr) -> GatherKernel {
        let padded = (repr != StateIdRepr::U32).then(|| {
            let mut padded = byte_table.to_vec();
            padded.extend_from_slice(&[0; 3]);
            padded.into_boxed_slice()
        });
        GatherKernel { repr, padded }
    }

    /// Advances all [`GATHER_LANES`] lanes over the first `common` bytes
    /// of their inputs, exactly like the scalar `scan_dense_lanes` (no
    /// per-byte sink branch; every [`SINK_CHECK_BYTES`] the kernel stops
    /// early if *all* lanes sit in sinks). `byte_table` must be the table
    /// this kernel was built from.
    pub(crate) fn run_lanes(
        &self,
        byte_table: &[u8],
        sink: &[bool],
        f: &mut [SfaStateId; GATHER_LANES],
        inputs: &[&[u8]; GATHER_LANES],
        common: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            let table = self.padded.as_deref().unwrap_or(byte_table);
            // SAFETY: the kernel is only built after
            // `is_x86_feature_detected!` confirmed AVX2, and the table
            // padding invariants are established in `build`.
            #[allow(unsafe_code)]
            unsafe {
                match self.repr {
                    StateIdRepr::U8 => gather_u8(table, sink, f, inputs, common),
                    StateIdRepr::U16 => gather_u16(table, sink, f, inputs, common),
                    StateIdRepr::U32 => gather_u32(table, sink, f, inputs, common),
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (byte_table, sink, f, inputs, common);
            unreachable!("gather kernel is only built on x86_64")
        }
    }
}

/// Generates one monomorphic gather loop per table width. `$mask` is the
/// entry-width bitmask stripping the neighboring table bytes a dword
/// gather drags in (`0` for the full-width `u32` table, where the branch
/// folds away).
#[cfg(target_arch = "x86_64")]
macro_rules! gather_impl {
    ($name:ident, $scale:literal, $mask:literal) => {
        /// # Safety
        /// Caller detected AVX2 at runtime. Every gathered index is
        /// `state * 256 + byte` with `state` a valid id, so with the
        /// padding established in [`GatherKernel::build`] each dword read
        /// at `index * $scale` stays inside `table`.
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        unsafe fn $name(
            table: &[u8],
            sink: &[bool],
            f: &mut [SfaStateId; GATHER_LANES],
            inputs: &[&[u8]; GATHER_LANES],
            common: usize,
        ) {
            use std::arch::x86_64::*;
            let base = table.as_ptr() as *const i32;
            #[allow(clippy::cast_possible_wrap)]
            let mut states = _mm256_set_epi32(
                f[7] as i32,
                f[6] as i32,
                f[5] as i32,
                f[4] as i32,
                f[3] as i32,
                f[2] as i32,
                f[1] as i32,
                f[0] as i32,
            );
            let mut j = 0;
            while j < common {
                let stop = (j + SINK_CHECK_BYTES).min(common);
                while j < stop {
                    let bytes = _mm256_set_epi32(
                        inputs[7][j] as i32,
                        inputs[6][j] as i32,
                        inputs[5][j] as i32,
                        inputs[4][j] as i32,
                        inputs[3][j] as i32,
                        inputs[2][j] as i32,
                        inputs[1][j] as i32,
                        inputs[0][j] as i32,
                    );
                    let idx = _mm256_add_epi32(_mm256_slli_epi32::<8>(states), bytes);
                    let g = _mm256_i32gather_epi32::<$scale>(base, idx);
                    states =
                        if $mask != 0 { _mm256_and_si256(g, _mm256_set1_epi32($mask)) } else { g };
                    j += 1;
                }
                let mut ids = [0i32; GATHER_LANES];
                _mm256_storeu_si256(ids.as_mut_ptr() as *mut __m256i, states);
                for (lane, &id) in ids.iter().enumerate() {
                    f[lane] = id as SfaStateId;
                }
                // All lanes in sinks: no further byte can move any of
                // them, so the remaining `common - j` bytes are no-ops.
                if f.iter().all(|&s| sink[s as usize]) {
                    return;
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
gather_impl!(gather_u8, 1, 0xFF);
#[cfg(target_arch = "x86_64")]
gather_impl!(gather_u16, 2, 0xFFFF);
#[cfg(target_arch = "x86_64")]
gather_impl!(gather_u32, 4, 0);
