//! Size statistics for DFA/SFA pairs — the raw material of Figure 3 and
//! Table III of the paper.

use crate::backend::{BackendKind, SfaBackend};
use crate::dsfa::DSfa;
use sfa_automata::Dfa;

/// Size relationship between a minimal DFA and its D-SFA, as classified in
/// Section VI-A of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GrowthClass {
    /// `|S_d| ≤ |D|` — the SFA is no bigger than the DFA.
    AtMostLinear,
    /// `|D| < |S_d| ≤ |D|²` — at most quadratic (the common case; the paper
    /// reports 98.6 % of SNORT patterns here or below).
    AtMostSquare,
    /// `|D|² < |S_d| ≤ |D|³` — "over-square" (1.4 % of SNORT patterns).
    OverSquare,
    /// `|D|³ < |S_d| ≤ |D|⁴` — "over-cubed" (6 patterns in SNORT).
    OverCube,
    /// `|S_d| > |D|⁴` — the paper found none of these in SNORT.
    OverQuartic,
}

/// Size statistics of one pattern's DFA and D-SFA.
///
/// For an **eager** backend every field describes the fully materialized
/// automaton. For a **lazy** backend the SFA-side fields
/// (`sfa_states`, table/mapping bytes, `ratio`, `growth`) describe the
/// states *materialized so far* — a live lower bound on `|S_d|` that
/// grows as inputs explore the automaton; re-query after matching to see
/// how much the traffic actually touched.
#[derive(Clone, Debug)]
pub struct SizeReport {
    /// Which backend produced the SFA-side numbers.
    pub backend: BackendKind,
    /// Number of original patterns compiled into the automaton (1 for a
    /// single pattern, the rule count for a `RegexSet`, 0 for an empty
    /// set).
    pub patterns: usize,
    /// Number of states of the (minimal) DFA, including the dead state.
    pub dfa_states: usize,
    /// Number of live DFA states (the count the paper reports as `|D|`).
    pub dfa_live_states: usize,
    /// Number of D-SFA states: the full `|S_d|` for an eager backend, the
    /// materialized count for a lazy one (equals
    /// [`materialized_states`](SizeReport::materialized_states) there).
    pub sfa_states: usize,
    /// Number of SFA states actually materialized in memory at report
    /// time. Equal to `sfa_states` for eager backends; for lazy backends
    /// this is the live cache size — the number the paper bounds by the
    /// input length in Section V-A.
    pub materialized_states: usize,
    /// Number of byte classes shared by both transition tables.
    pub byte_classes: usize,
    /// DFA transition-table size in bytes.
    pub dfa_table_bytes: usize,
    /// SFA transition-table size in bytes (class-compressed rows, at the
    /// packed width).
    pub sfa_table_bytes: usize,
    /// Memory held by the SFA state mappings (needed for reductions).
    pub sfa_mapping_bytes: usize,
    /// Bytes per stored SFA state id: the packed width of an eager
    /// backend's tables (1, 2 or 4 — see
    /// [`StateIdRepr`](crate::StateIdRepr)), always 4 for a lazy backend.
    /// For a combined (sharded) report this is the *widest* shard, so a
    /// value below 4 certifies that every shard packed.
    pub state_id_bytes: usize,
    /// Total transition-table footprint in bytes: the DFA rows plus the
    /// SFA class rows plus the premultiplied dense byte table (when
    /// built). This is the resident working set the packed repr shrinks —
    /// compare against `dfa_table_bytes + sfa_table_bytes × 4 ÷
    /// state_id_bytes` to see the saving.
    pub table_bytes: usize,
    /// `|S_d| / |D|`, the y/x ratio of Figure 3 (using the complete DFA
    /// state count, which is how the paper's Fig. 1 counts `D_1`).
    pub ratio: f64,
    /// Growth classification relative to the complete DFA size.
    pub growth: GrowthClass,
    /// Convergence horizon of the DFA from the offline analysis
    /// (`sfa_analysis::ConvergenceReport`): the reset-word length for a
    /// synchronizing automaton, the reach-fixpoint depth otherwise. `0`
    /// when the automaton is trivially synchronizing *or* when no
    /// analysis ran (legacy reports). For a combined report this is the
    /// slowest shard (per-shard maximum).
    pub convergence_horizon: usize,
    /// `|R_∞|` — the number of DFA states still reachable after
    /// arbitrarily long input, i.e. the worst-case speculative entry-set
    /// size. Equals `dfa_states` when no analysis ran (every state
    /// survives — the paper's Algorithm 3 assumption). Summed across
    /// shards in a combined report, like the state counts.
    pub survivor_states: usize,
    /// Number of automata this report aggregates: `1` for a single
    /// compiled pattern or an unsharded set, the shard count for a
    /// sharded set (see [`SizeReport::combine`]). When greater than `1`
    /// the state/byte fields are sums over the shards.
    pub shards: usize,
    /// The largest single-shard DFA state count — equals `dfa_states`
    /// when `shards == 1`. For a sharded set this is the number a
    /// per-shard state budget bounds (fallback shards excepted).
    pub max_shard_dfa_states: usize,
    /// The transition kernel scans of this automaton dispatch to on the
    /// reporting build and CPU: `"shuffle"`, `"gather"` or `"scalar"`
    /// (see [`DSfa::scan_kernel`]) — `"mixed"` for a combined report
    /// whose shards disagree. Machine-dependent by design: the same
    /// artifact reports `"scalar"` where the `simd` feature or the CPU
    /// support is absent.
    pub scan_kernel: String,
    /// On-disk footprint of the serialized artifact this automaton was
    /// loaded from (or written to), in bytes. `None` when the automaton
    /// never touched disk — freshly compiled backends and legacy JSON
    /// reports, which serialize this as `null`. Summed across shards in a
    /// combined report once any shard carries a value.
    pub artifact_bytes: Option<usize>,
}

impl SizeReport {
    /// Computes the report for a DFA / eager D-SFA pair.
    pub fn new(dfa: &Dfa, sfa: &DSfa) -> SizeReport {
        Self::build(
            dfa,
            BackendKind::Eager,
            sfa.num_states(),
            sfa.table_bytes(),
            sfa.mapping_bytes(),
            sfa.state_id_bytes(),
            sfa.byte_table_bytes(),
            sfa.scan_kernel(),
        )
    }

    /// Computes the report for a DFA and whichever backend sits on top of
    /// it. For lazy backends the SFA-side numbers are a snapshot of the
    /// materialized cache (see the type docs).
    pub fn of_backend(dfa: &Dfa, backend: &SfaBackend) -> SizeReport {
        let mut report = Self::build(
            dfa,
            backend.kind(),
            backend.num_states(),
            backend.table_bytes(),
            backend.mapping_bytes(),
            backend.state_id_bytes(),
            backend.byte_table_bytes(),
            backend.scan_kernel(),
        );
        report.artifact_bytes = backend.eager().and_then(DSfa::artifact_bytes);
        report
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        dfa: &Dfa,
        backend: BackendKind,
        sfa_states: usize,
        sfa_table_bytes: usize,
        sfa_mapping_bytes: usize,
        state_id_bytes: usize,
        byte_table_bytes: usize,
        scan_kernel: &str,
    ) -> SizeReport {
        SizeReport {
            backend,
            patterns: dfa.pattern_count(),
            dfa_states: dfa.num_states(),
            dfa_live_states: dfa.num_live_states(),
            sfa_states,
            materialized_states: sfa_states,
            byte_classes: dfa.num_classes(),
            dfa_table_bytes: dfa.table_bytes(),
            sfa_table_bytes,
            sfa_mapping_bytes,
            state_id_bytes,
            table_bytes: dfa.table_bytes() + sfa_table_bytes + byte_table_bytes,
            ratio: sfa_states as f64 / dfa.num_states() as f64,
            growth: classify(dfa.num_states(), sfa_states),
            convergence_horizon: 0,
            survivor_states: dfa.num_states(),
            shards: 1,
            max_shard_dfa_states: dfa.num_states(),
            scan_kernel: scan_kernel.to_string(),
            artifact_bytes: None,
        }
    }

    /// Aggregates per-shard reports into one report for a sharded set:
    /// state counts and byte footprints are summed (they all coexist in
    /// memory), `byte_classes`, `state_id_bytes` and
    /// `max_shard_dfa_states` take the per-shard maximum (the widest
    /// shard bounds the packing claim), `shards` sums the inputs' shard
    /// counts, the
    /// backend is `Eager` only when every shard is eager,
    /// `scan_kernel` is kept when every shard agrees (`"mixed"`
    /// otherwise), and `ratio`/`growth` are recomputed from the summed
    /// totals. An empty slice yields an all-zero eager report (`ratio` is
    /// `NaN`, `scan_kernel` is `"scalar"`).
    pub fn combine(reports: &[SizeReport]) -> SizeReport {
        let backend = if reports.iter().any(|r| r.backend == BackendKind::Lazy) {
            BackendKind::Lazy
        } else {
            BackendKind::Eager
        };
        let dfa_states: usize = reports.iter().map(|r| r.dfa_states).sum();
        let sfa_states: usize = reports.iter().map(|r| r.sfa_states).sum();
        SizeReport {
            backend,
            patterns: reports.iter().map(|r| r.patterns).sum(),
            dfa_states,
            dfa_live_states: reports.iter().map(|r| r.dfa_live_states).sum(),
            sfa_states,
            materialized_states: reports.iter().map(|r| r.materialized_states).sum(),
            byte_classes: reports.iter().map(|r| r.byte_classes).max().unwrap_or(0),
            dfa_table_bytes: reports.iter().map(|r| r.dfa_table_bytes).sum(),
            sfa_table_bytes: reports.iter().map(|r| r.sfa_table_bytes).sum(),
            sfa_mapping_bytes: reports.iter().map(|r| r.sfa_mapping_bytes).sum(),
            state_id_bytes: reports.iter().map(|r| r.state_id_bytes).max().unwrap_or(0),
            table_bytes: reports.iter().map(|r| r.table_bytes).sum(),
            ratio: sfa_states as f64 / dfa_states as f64,
            growth: classify(dfa_states, sfa_states),
            convergence_horizon: reports.iter().map(|r| r.convergence_horizon).max().unwrap_or(0),
            survivor_states: reports.iter().map(|r| r.survivor_states).sum(),
            shards: reports.iter().map(|r| r.shards).sum(),
            max_shard_dfa_states: reports.iter().map(|r| r.max_shard_dfa_states).max().unwrap_or(0),
            scan_kernel: match reports.first() {
                None => "scalar".to_string(),
                Some(first) if reports.iter().all(|r| r.scan_kernel == first.scan_kernel) => {
                    first.scan_kernel.clone()
                }
                Some(_) => "mixed".to_string(),
            },
            artifact_bytes: if reports.iter().any(|r| r.artifact_bytes.is_some()) {
                Some(reports.iter().filter_map(|r| r.artifact_bytes).sum())
            } else {
                None
            },
        }
    }
}

impl GrowthClass {
    /// The classification's name, used in the JSON report.
    pub fn as_str(&self) -> &'static str {
        match self {
            GrowthClass::AtMostLinear => "AtMostLinear",
            GrowthClass::AtMostSquare => "AtMostSquare",
            GrowthClass::OverSquare => "OverSquare",
            GrowthClass::OverCube => "OverCube",
            GrowthClass::OverQuartic => "OverQuartic",
        }
    }

    /// Parses a classification name produced by [`GrowthClass::as_str`].
    pub fn parse(s: &str) -> Option<GrowthClass> {
        Some(match s {
            "AtMostLinear" => GrowthClass::AtMostLinear,
            "AtMostSquare" => GrowthClass::AtMostSquare,
            "OverSquare" => GrowthClass::OverSquare,
            "OverCube" => GrowthClass::OverCube,
            "OverQuartic" => GrowthClass::OverQuartic,
            _ => return None,
        })
    }
}

impl SizeReport {
    /// Serializes the report to a single-line JSON object. (Hand-rolled —
    /// the build environment vendors no serde.)
    ///
    /// A non-finite `ratio` (`NaN`/`±inf` — `{}` would format those bare,
    /// which is invalid JSON) is serialized as `null`;
    /// [`SizeReport::from_json`] reads `null` back as `NaN`.
    pub fn to_json(&self) -> String {
        let ratio =
            if self.ratio.is_finite() { self.ratio.to_string() } else { "null".to_string() };
        format!(
            concat!(
                "{{\"backend\":\"{}\",\"patterns\":{},\"dfa_states\":{},\"dfa_live_states\":{},",
                "\"sfa_states\":{},\"materialized_states\":{},",
                "\"byte_classes\":{},\"dfa_table_bytes\":{},\"sfa_table_bytes\":{},",
                "\"sfa_mapping_bytes\":{},\"state_id_bytes\":{},\"table_bytes\":{},",
                "\"ratio\":{},\"growth\":\"{}\",",
                "\"convergence_horizon\":{},\"survivor_states\":{},",
                "\"shards\":{},\"max_shard_dfa_states\":{},\"scan_kernel\":\"{}\",",
                "\"artifact_bytes\":{}}}"
            ),
            self.backend.as_str(),
            self.patterns,
            self.dfa_states,
            self.dfa_live_states,
            self.sfa_states,
            self.materialized_states,
            self.byte_classes,
            self.dfa_table_bytes,
            self.sfa_table_bytes,
            self.sfa_mapping_bytes,
            self.state_id_bytes,
            self.table_bytes,
            ratio,
            self.growth.as_str(),
            self.convergence_horizon,
            self.survivor_states,
            self.shards,
            self.max_shard_dfa_states,
            self.scan_kernel,
            match self.artifact_bytes {
                Some(n) => n.to_string(),
                None => "null".to_string(),
            },
        )
    }

    /// Parses a JSON object produced by [`SizeReport::to_json`]. Returns
    /// `None` when a field is missing or malformed.
    pub fn from_json(json: &str) -> Option<SizeReport> {
        fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
            let needle = format!("\"{key}\":");
            let start = json.find(&needle)? + needle.len();
            let rest = &json[start..];
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim())
        }
        Some(SizeReport {
            backend: BackendKind::parse(field(json, "backend")?.trim_matches('"'))?,
            patterns: field(json, "patterns")?.parse().ok()?,
            dfa_states: field(json, "dfa_states")?.parse().ok()?,
            dfa_live_states: field(json, "dfa_live_states")?.parse().ok()?,
            sfa_states: field(json, "sfa_states")?.parse().ok()?,
            materialized_states: field(json, "materialized_states")?.parse().ok()?,
            byte_classes: field(json, "byte_classes")?.parse().ok()?,
            dfa_table_bytes: field(json, "dfa_table_bytes")?.parse().ok()?,
            sfa_table_bytes: field(json, "sfa_table_bytes")?.parse().ok()?,
            sfa_mapping_bytes: field(json, "sfa_mapping_bytes")?.parse().ok()?,
            // Reports written before packed state ids existed lack these
            // fields: their tables stored plain `u32` ids and never
            // carried a premultiplied byte table in the report.
            state_id_bytes: match field(json, "state_id_bytes") {
                Some(s) => s.parse().ok()?,
                None => 4,
            },
            table_bytes: match field(json, "table_bytes") {
                Some(s) => s.parse().ok()?,
                None => {
                    field(json, "dfa_table_bytes")?.parse::<usize>().ok()?
                        + field(json, "sfa_table_bytes")?.parse::<usize>().ok()?
                }
            },
            ratio: match field(json, "ratio")? {
                "null" => f64::NAN,
                s => s.parse().ok()?,
            },
            growth: GrowthClass::parse(field(json, "growth")?.trim_matches('"'))?,
            // Reports written before convergence analysis existed lack
            // these fields: no analysis ran, so every state survives.
            convergence_horizon: match field(json, "convergence_horizon") {
                Some(s) => s.parse().ok()?,
                None => 0,
            },
            survivor_states: match field(json, "survivor_states") {
                Some(s) => s.parse().ok()?,
                None => field(json, "dfa_states")?.parse().ok()?,
            },
            // Reports written before sharding existed lack these fields:
            // they describe exactly one automaton.
            shards: match field(json, "shards") {
                Some(s) => s.parse().ok()?,
                None => 1,
            },
            max_shard_dfa_states: match field(json, "max_shard_dfa_states") {
                Some(s) => s.parse().ok()?,
                None => field(json, "dfa_states")?.parse().ok()?,
            },
            // Reports written before the SIMD kernels existed lack this
            // field: every scan was the scalar loop.
            scan_kernel: match field(json, "scan_kernel") {
                Some(s) => s.trim_matches('"').to_string(),
                None => "scalar".to_string(),
            },
            // Reports written before durable artifacts existed lack this
            // field: nothing was ever serialized to disk.
            artifact_bytes: match field(json, "artifact_bytes") {
                None => None,
                Some("null") => None,
                Some(s) => Some(s.parse().ok()?),
            },
        })
    }
}

/// Classifies `|S_d|` against powers of `|D|`.
pub fn classify(dfa_states: usize, sfa_states: usize) -> GrowthClass {
    let d = dfa_states as u128;
    let s = sfa_states as u128;
    if s <= d {
        GrowthClass::AtMostLinear
    } else if s <= d.saturating_pow(2) {
        GrowthClass::AtMostSquare
    } else if s <= d.saturating_pow(3) {
        GrowthClass::OverSquare
    } else if s <= d.saturating_pow(4) {
        GrowthClass::OverCube
    } else {
        GrowthClass::OverQuartic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SfaConfig;
    use sfa_automata::minimal_dfa_from_pattern;

    fn report(pattern: &str) -> SizeReport {
        let dfa = minimal_dfa_from_pattern(pattern).unwrap();
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        SizeReport::new(&dfa, &sfa)
    }

    #[test]
    fn rn_family_is_at_most_square() {
        let r = report("([0-4]{3}[5-9]{3})*");
        assert_eq!(r.dfa_live_states, 6);
        assert_eq!(r.growth, GrowthClass::AtMostSquare);
        assert!(r.ratio > 1.0);
    }

    #[test]
    fn literal_pattern_is_linear() {
        // For a plain literal the SFA is essentially the DFA plus suffix
        // bookkeeping: still far below square.
        let r = report("abcdef");
        assert!(r.sfa_states >= r.dfa_live_states);
        assert!(matches!(r.growth, GrowthClass::AtMostLinear | GrowthClass::AtMostSquare));
    }

    #[test]
    fn chained_dot_star_is_over_square() {
        // The paper's pathological SNORT shape: several `.*` in sequence
        // (".*(T.*Y.*P.*E.*)" style) pushes the SFA over |D|².
        let r = report(".*T.*Y.*P.*E.*");
        assert_eq!(classify(r.dfa_states, r.sfa_states), r.growth);
        assert!(
            matches!(r.growth, GrowthClass::OverSquare | GrowthClass::OverCube),
            "got {:?} (|D|={}, |S|={})",
            r.growth,
            r.dfa_live_states,
            r.sfa_states
        );
    }

    #[test]
    fn classify_boundaries() {
        assert_eq!(classify(10, 9), GrowthClass::AtMostLinear);
        assert_eq!(classify(10, 10), GrowthClass::AtMostLinear);
        assert_eq!(classify(10, 100), GrowthClass::AtMostSquare);
        assert_eq!(classify(10, 101), GrowthClass::OverSquare);
        assert_eq!(classify(10, 1000), GrowthClass::OverSquare);
        assert_eq!(classify(10, 1001), GrowthClass::OverCube);
        assert_eq!(classify(10, 10000), GrowthClass::OverCube);
        assert_eq!(classify(10, 10001), GrowthClass::OverQuartic);
        // Degenerate single-state DFA.
        assert_eq!(classify(1, 1), GrowthClass::AtMostLinear);
        assert_eq!(classify(1, 2), GrowthClass::OverQuartic);
    }

    #[test]
    fn report_serializes_to_json() {
        let r = report("(ab)*");
        let json = r.to_json();
        assert!(json.contains("\"sfa_states\":6"), "{json}");
        assert!(json.contains("\"backend\":\"Eager\""), "{json}");
        assert!(json.contains("\"materialized_states\":6"), "{json}");
        assert!(json.contains("\"patterns\":1"), "{json}");
        let back = SizeReport::from_json(&json).unwrap();
        assert_eq!(back.backend, BackendKind::Eager);
        assert_eq!(back.patterns, 1);
        assert_eq!(back.sfa_states, r.sfa_states);
        assert_eq!(back.materialized_states, r.materialized_states);
        assert_eq!(back.growth, r.growth);
        assert_eq!(back.dfa_table_bytes, r.dfa_table_bytes);
        assert_eq!(back.state_id_bytes, r.state_id_bytes);
        assert_eq!(back.table_bytes, r.table_bytes);
        assert!((back.ratio - r.ratio).abs() < 1e-12);
        assert!(SizeReport::from_json("{}").is_none());
        assert!(SizeReport::from_json("{\"dfa_states\":oops}").is_none());
    }

    #[test]
    fn lazy_backend_report_counts_materialized_states() {
        use crate::LazyDSfa;
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        let backend = SfaBackend::from(LazyDSfa::new(dfa.clone()));
        let fresh = SizeReport::of_backend(&dfa, &backend);
        assert_eq!(fresh.backend, BackendKind::Lazy);
        assert_eq!(fresh.materialized_states, 1, "identity only before any input");
        assert_eq!(fresh.sfa_states, 1);

        backend.run(b"abab");
        let after = SizeReport::of_backend(&dfa, &backend);
        assert!(after.materialized_states > 1, "the run materialized states");
        assert!(after.materialized_states <= 6, "never more than the eager |S_d|");
        assert!(after.sfa_table_bytes >= fresh.sfa_table_bytes);
        // The lazy report round-trips through JSON like the eager one.
        let back = SizeReport::from_json(&after.to_json()).unwrap();
        assert_eq!(back.backend, BackendKind::Lazy);
        assert_eq!(back.materialized_states, after.materialized_states);

        // The eager constructor and of_backend agree on an eager backend.
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        let via_new = SizeReport::new(&dfa, &sfa);
        let via_backend = SizeReport::of_backend(&dfa, &SfaBackend::from(sfa));
        assert_eq!(via_new.backend, via_backend.backend);
        assert_eq!(via_new.sfa_states, via_backend.sfa_states);
        assert_eq!(via_new.materialized_states, via_backend.materialized_states);
    }

    #[test]
    fn combine_sums_states_and_tracks_the_largest_shard() {
        let a = report("([0-4]{3}[5-9]{3})*");
        let b = report("abcdef");
        let combined = SizeReport::combine(&[a.clone(), b.clone()]);
        assert_eq!(combined.shards, 2);
        assert_eq!(combined.dfa_states, a.dfa_states + b.dfa_states);
        assert_eq!(combined.sfa_states, a.sfa_states + b.sfa_states);
        assert_eq!(combined.patterns, a.patterns + b.patterns);
        assert_eq!(combined.max_shard_dfa_states, a.dfa_states.max(b.dfa_states));
        assert_eq!(combined.byte_classes, a.byte_classes.max(b.byte_classes));
        assert_eq!(combined.dfa_table_bytes, a.dfa_table_bytes + b.dfa_table_bytes);
        assert_eq!(combined.backend, BackendKind::Eager);
        assert_eq!(combined.growth, classify(combined.dfa_states, combined.sfa_states));
        let expected_ratio = combined.sfa_states as f64 / combined.dfa_states as f64;
        assert!((combined.ratio - expected_ratio).abs() < 1e-12);
        // One lazy shard makes the aggregate lazy; nesting combines adds
        // up the shard counts.
        let mut lazy = b.clone();
        lazy.backend = BackendKind::Lazy;
        assert_eq!(SizeReport::combine(&[a, lazy]).backend, BackendKind::Lazy);
        let nested = SizeReport::combine(&[combined.clone(), combined]);
        assert_eq!(nested.shards, 4);
        // Empty input: zeroed report, NaN ratio.
        let empty = SizeReport::combine(&[]);
        assert_eq!(empty.shards, 0);
        assert_eq!(empty.dfa_states, 0);
        assert!(empty.ratio.is_nan());
    }

    #[test]
    fn sharded_report_round_trips_and_old_json_defaults_to_one_shard() {
        let combined = SizeReport::combine(&[report("(ab)*"), report("abcdef")]);
        let json = combined.to_json();
        assert!(json.contains("\"shards\":2"), "{json}");
        let back = SizeReport::from_json(&json).unwrap();
        assert_eq!(back.shards, 2);
        assert_eq!(back.max_shard_dfa_states, combined.max_shard_dfa_states);
        // JSON written before the shard fields existed still parses: one
        // automaton, its own DFA as the largest shard.
        let old = report("(ab)*");
        let legacy_json = old
            .to_json()
            .replace(&format!(",\"shards\":1,\"max_shard_dfa_states\":{}", old.dfa_states), "");
        assert!(!legacy_json.contains("shards"), "{legacy_json}");
        let parsed = SizeReport::from_json(&legacy_json).unwrap();
        assert_eq!(parsed.shards, 1);
        assert_eq!(parsed.max_shard_dfa_states, old.dfa_states);
    }

    #[test]
    fn packed_fields_report_width_and_total_footprint() {
        use crate::{LazyDSfa, StateIdRepr};
        // (ab)* has 6 D-SFA states: auto-packs to u8, and the default
        // config premultiplies, so the total footprint includes the dense
        // 256-column byte table.
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        let r = SizeReport::new(&dfa, &sfa);
        assert_eq!(r.state_id_bytes, 1);
        assert_eq!(r.table_bytes, r.dfa_table_bytes + r.sfa_table_bytes + sfa.byte_table_bytes());
        assert!(sfa.byte_table_bytes() > 0);

        // A forced-u32 build of the same automaton reports the wider id
        // and the proportionally larger footprint.
        let wide_cfg = SfaConfig { repr: Some(StateIdRepr::U32), ..SfaConfig::default() };
        let wide = DSfa::from_dfa(&dfa, &wide_cfg).unwrap();
        let rw = SizeReport::new(&dfa, &wide);
        assert_eq!(rw.state_id_bytes, 4);
        assert_eq!(rw.sfa_table_bytes, r.sfa_table_bytes * 4);
        assert!(rw.table_bytes > r.table_bytes);

        // Lazy backends always report the u32 width and no byte table.
        let lazy = SfaBackend::from(LazyDSfa::new(dfa.clone()));
        let rl = SizeReport::of_backend(&dfa, &lazy);
        assert_eq!(rl.state_id_bytes, 4);
        assert_eq!(rl.table_bytes, rl.dfa_table_bytes + rl.sfa_table_bytes);

        // combine(): the widest shard wins the width, footprints sum.
        let combined = SizeReport::combine(&[r.clone(), rl.clone()]);
        assert_eq!(combined.state_id_bytes, 4);
        assert_eq!(combined.table_bytes, r.table_bytes + rl.table_bytes);

        // JSON written before these fields existed still parses: u32 ids,
        // footprint reconstructed from the per-table byte fields.
        let legacy_json = r.to_json().replace(
            &format!(",\"state_id_bytes\":{},\"table_bytes\":{}", r.state_id_bytes, r.table_bytes),
            "",
        );
        assert!(!legacy_json.contains("state_id_bytes"), "{legacy_json}");
        let parsed = SizeReport::from_json(&legacy_json).unwrap();
        assert_eq!(parsed.state_id_bytes, 4);
        assert_eq!(parsed.table_bytes, r.dfa_table_bytes + r.sfa_table_bytes);
    }

    #[test]
    fn convergence_fields_round_trip_and_legacy_json_means_all_states_survive() {
        let mut r = report("(ab)*");
        // Fresh reports carry the "no analysis ran" sentinel.
        assert_eq!(r.convergence_horizon, 0);
        assert_eq!(r.survivor_states, r.dfa_states);
        r.convergence_horizon = 7;
        r.survivor_states = 2;
        let json = r.to_json();
        assert!(json.contains("\"convergence_horizon\":7"), "{json}");
        assert!(json.contains("\"survivor_states\":2"), "{json}");
        let back = SizeReport::from_json(&json).unwrap();
        assert_eq!(back.convergence_horizon, 7);
        assert_eq!(back.survivor_states, 2);
        // JSON written before the analysis existed still parses: horizon
        // 0, every DFA state a survivor.
        let legacy_json = json.replace(",\"convergence_horizon\":7,\"survivor_states\":2", "");
        assert!(!legacy_json.contains("convergence"), "{legacy_json}");
        let parsed = SizeReport::from_json(&legacy_json).unwrap();
        assert_eq!(parsed.convergence_horizon, 0);
        assert_eq!(parsed.survivor_states, parsed.dfa_states);
        // combine(): slowest shard's horizon, survivors summed.
        let mut a = report("(ab)*");
        a.convergence_horizon = 3;
        a.survivor_states = 1;
        let mut b = report("abcdef");
        b.convergence_horizon = 9;
        b.survivor_states = 4;
        let combined = SizeReport::combine(&[a, b]);
        assert_eq!(combined.convergence_horizon, 9);
        assert_eq!(combined.survivor_states, 5);
    }

    #[test]
    fn scan_kernel_field_round_trips_and_legacy_defaults_to_scalar() {
        let r = report("(ab)*");
        // Whatever this build/CPU dispatches to, the report names it and
        // round-trips it.
        assert!(
            matches!(r.scan_kernel.as_str(), "shuffle" | "gather" | "scalar"),
            "{}",
            r.scan_kernel
        );
        #[cfg(not(feature = "simd"))]
        assert_eq!(r.scan_kernel, "scalar");
        let json = r.to_json();
        assert!(json.contains(&format!("\"scan_kernel\":\"{}\"", r.scan_kernel)), "{json}");
        let back = SizeReport::from_json(&json).unwrap();
        assert_eq!(back.scan_kernel, r.scan_kernel);
        // JSON written before the field existed still parses as scalar.
        let legacy_json = json.replace(&format!(",\"scan_kernel\":\"{}\"", r.scan_kernel), "");
        assert!(!legacy_json.contains("scan_kernel"), "{legacy_json}");
        assert_eq!(SizeReport::from_json(&legacy_json).unwrap().scan_kernel, "scalar");
        // combine(): agreement keeps the kernel, disagreement is "mixed",
        // empty input defaults to scalar.
        let same = SizeReport::combine(&[r.clone(), r.clone()]);
        assert_eq!(same.scan_kernel, r.scan_kernel);
        let mut other = r.clone();
        other.scan_kernel = "something-else".to_string();
        assert_eq!(SizeReport::combine(&[r, other]).scan_kernel, "mixed");
        assert_eq!(SizeReport::combine(&[]).scan_kernel, "scalar");
    }

    #[test]
    fn artifact_bytes_round_trips_and_legacy_defaults_to_null() {
        let mut r = report("(ab)*");
        // Freshly compiled automata never touched disk.
        assert_eq!(r.artifact_bytes, None);
        let json = r.to_json();
        assert!(json.contains("\"artifact_bytes\":null"), "{json}");
        assert_eq!(SizeReport::from_json(&json).unwrap().artifact_bytes, None);
        // A loaded automaton reports its on-disk footprint.
        r.artifact_bytes = Some(4096);
        let json = r.to_json();
        assert!(json.contains("\"artifact_bytes\":4096"), "{json}");
        let back = SizeReport::from_json(&json).unwrap();
        assert_eq!(back.artifact_bytes, Some(4096));
        // JSON written before the field existed still parses as None.
        let legacy_json = json.replace(",\"artifact_bytes\":4096", "");
        assert!(!legacy_json.contains("artifact_bytes"), "{legacy_json}");
        assert_eq!(SizeReport::from_json(&legacy_json).unwrap().artifact_bytes, None);
        // combine(): None until any shard carries a value, then the sum
        // over the shards that do.
        let plain = report("abcdef");
        assert_eq!(SizeReport::combine(&[plain.clone(), plain.clone()]).artifact_bytes, None);
        let combined = SizeReport::combine(&[r.clone(), plain]);
        assert_eq!(combined.artifact_bytes, Some(4096));
        let both = SizeReport::combine(&[r.clone(), r]);
        assert_eq!(both.artifact_bytes, Some(8192));
    }

    #[test]
    fn loaded_backend_reports_artifact_footprint() {
        use crate::DSfaParts;
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig { premultiply: false, ..SfaConfig::default() })
            .unwrap();
        assert_eq!(sfa.artifact_bytes(), None);
        // The tables behind a 40-byte stand-in header, the way an
        // artifact stores them.
        let mut buf = vec![0u8; 40];
        buf.extend_from_slice(sfa.table_section());
        let table = 40..buf.len();
        buf.extend_from_slice(sfa.mapping_section());
        let mappings = table.end..buf.len();
        let artifact_len = buf.len();
        let parts = DSfaParts {
            data: std::sync::Arc::new(buf),
            repr: sfa.repr(),
            num_states: sfa.num_states(),
            table,
            byte_table: None,
            mappings,
        };
        let backend = SfaBackend::from(DSfa::from_parts(parts, &dfa).unwrap());
        assert_eq!(backend.kind(), BackendKind::Eager);
        let r = SizeReport::of_backend(&dfa, &backend);
        assert_eq!(r.backend, BackendKind::Eager);
        assert_eq!(r.artifact_bytes, Some(artifact_len));
        assert_eq!(r.sfa_states, sfa.num_states());
        assert_eq!(r.scan_kernel, sfa.scan_kernel());
        let back = SizeReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.artifact_bytes, Some(artifact_len));
        // combine(): a loaded shard with a built one stays eager, any lazy
        // shard wins.
        let eager = report("(ab)*");
        assert_eq!(SizeReport::combine(&[r.clone(), eager]).backend, BackendKind::Eager);
        let mut lazy = report("(ab)*");
        lazy.backend = BackendKind::Lazy;
        assert_eq!(SizeReport::combine(&[r, lazy]).backend, BackendKind::Lazy);
    }

    #[test]
    fn non_finite_ratio_round_trips_as_null() {
        let mut r = report("(ab)*");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            r.ratio = bad;
            let json = r.to_json();
            assert!(json.contains("\"ratio\":null"), "{json}");
            // Still valid JSON: no bare NaN/inf tokens anywhere.
            assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
            let back = SizeReport::from_json(&json).expect("null ratio must parse");
            assert!(back.ratio.is_nan(), "non-finite ratios read back as NaN");
            assert_eq!(back.sfa_states, r.sfa_states);
        }
        // Finite ratios are unaffected.
        r.ratio = 2.5;
        let back = SizeReport::from_json(&r.to_json()).unwrap();
        assert!((back.ratio - 2.5).abs() < 1e-12);
    }
}
