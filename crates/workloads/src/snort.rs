//! A synthetic SNORT-like ruleset.
//!
//! The paper's Figure 3 is computed over ~20 000 PCREs extracted from the
//! SNORT 2940 rulesets, which are not redistributable here. This module
//! synthesizes a corpus with the same *structural* mix — literal content
//! strings, case-insensitive keywords, URI fragments with hex escapes,
//! bounded counted repetitions, header scans like `[^\r\n]{N,}`, IP/number
//! templates, and a small fraction of pathological patterns chaining
//! several `.*` — because those are the features that determine how the
//! D-SFA size relates to the DFA size (see DESIGN.md §4 for the
//! substitution rationale).
//!
//! The generator is fully deterministic for a given seed, so Figure 3 can
//! be regenerated bit-for-bit.

use rand::prelude::*;
use rand::rngs::StdRng;

/// A curated set of realistic, handwritten patterns in the style of SNORT
/// web/exploit rules. These anchor the corpus; the generator adds
/// parameterized variations around them.
pub const CURATED_PATTERNS: &[&str] = &[
    "(?i)user-agent\\x3a[^\\r\\n]{0,64}curl",
    "(?i)get\\s+/[a-z0-9_\\-]{1,32}\\.php\\?id=[0-9]{1,8}",
    "/cgi-bin/ph[a-z]{1,8}",
    "\\x2fscripts\\x2f\\.\\.%c0%af\\.\\.\\x2f",
    "(?i)(select|union|insert|delete)\\s+[a-z0-9_,\\* ]{1,64}\\s+from",
    "(?i)host\\x3a\\s*[a-z0-9\\.\\-]{4,64}",
    "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}",
    "(?i)content-length\\x3a\\s*[0-9]{7,12}",
    "\\x90{16,64}",
    "(?i)\\.(exe|dll|scr|pif)\\x00",
    "(?i)powershell(\\.exe)?\\s+-e[a-z]{0,16}\\s+[a-z0-9+/=]{32,256}",
    "(?i)referer\\x3a[^\\r\\n]{0,32}(casino|poker|viagra)",
    "\\x7fELF[\\x01\\x02][\\x01\\x02]",
    "(?i)jndi\\x3a(ldap|rmi|dns)\\x3a//",
    "(?i)etc/(passwd|shadow|group)",
    "(?i)cmd(\\.exe)?\\s*/c\\s+[a-z0-9_\\-\\. ]{1,40}",
    "[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f]{8,32}",
    "(?i)authorization\\x3a\\s*basic\\s+[a-z0-9+/=]{8,128}",
    "(?i)<script[^>]{0,64}>",
    "(?i)eval\\(base64_decode\\(",
    "(?i)x-forwarded-for\\x3a[^\\r\\n]{0,48}[';\\-]{2,8}",
    "(?i)\\\\x5cpipe\\\\x5c(samr|lsarpc|netlogon)",
    "(?i)ssh-[12]\\.[0-9]{1,2}",
    "(?i)smtp\\s+(helo|ehlo)\\s+[a-z0-9\\.\\-]{1,48}",
    "(?i)(wget|curl)\\s+http://[a-z0-9\\./\\-]{8,64}",
];

/// The full SQL-injection scan rule of the `ids_scan` example, untamed.
///
/// Its D-SFA is the repo's canonical explosion witness: in `Contains`
/// mode the `\s+` separator, the long permissive class run and the
/// keyword alternation interact so that the *eager* correspondence
/// construction exceeds 750 000 states (measured: the combined
/// [`IDS_SCAN_RULES`] automaton blew through a 750 001-state cap while
/// its any-match minimal DFA had only 787 states; with per-rule verdict
/// tracking the combined minimal DFA is 5 668 states and the eager SFA
/// still explodes), which is why an earlier revision had to replace it
/// with a bounded `[ +]{1,3}` separator. The lazy backend
/// (`BackendChoice::Auto` / `Lazy` in `sfa-matcher`) makes the original
/// rule feasible again: scanning a multi-megabyte HTTP log materializes
/// only a few hundred states.
pub const SQLI_RULE: &str = "(?i)(select|union)\\s+[a-z0-9_, ]{1,40}\\s+from";

/// The `ids_scan` example's full ruleset — [`SQLI_RULE`] included in its
/// original, untamed form.
pub const IDS_SCAN_RULES: &[&str] = &[
    "/cgi-bin/ph[a-z]{1,8}",
    "(?i)etc/(passwd|shadow|group)",
    "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}",
    SQLI_RULE,
];

/// Size of the pinned benchmark corpus returned by [`corpus_1k`].
pub const CORPUS_1K: usize = 1_000;

/// Seed of the pinned benchmark corpus. Changing it (or the generator)
/// invalidates every committed baseline measured against [`corpus_1k`];
/// the fingerprint test below exists to make such a change loud.
pub const CORPUS_1K_SEED: u64 = 0x5FA_2013;

/// The pinned 1 000-rule benchmark corpus: the curated patterns followed
/// by generated rules from the default shape mix under
/// [`CORPUS_1K_SEED`]. This is the ruleset `benches/multimatch.rs` and
/// `reproduce multimatch` shard — byte-for-byte stable across runs and
/// machines, so committed numbers stay comparable.
pub fn corpus_1k() -> Vec<String> {
    ruleset(&SnortConfig { count: CORPUS_1K, seed: CORPUS_1K_SEED, dot_star_fraction: 0.004 })
}

/// Structural shapes the generator mixes, with weights chosen so the
/// resulting size distribution resembles the paper's Figure 3 (dominated by
/// literal-ish patterns, a thin tail of `.*`-chained ones).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// A literal keyword, possibly case-insensitive.
    Literal,
    /// keyword + bounded wildcard run + keyword (header-style rule).
    HeaderScan,
    /// Alternation of a few keywords followed by a class run.
    KeywordAlt,
    /// Numeric / IP-like template with counted repetitions.
    Numeric,
    /// Hex-escape byte run (shellcode-ish).
    HexRun,
    /// A bounded repetition of a character class.
    ClassRepeat,
    /// The pathological shape: literals separated by several `.*`.
    DotStarChain,
}

const WORDS: &[&str] = &[
    "admin", "login", "passwd", "select", "union", "script", "shell", "cmd", "root", "exec",
    "upload", "config", "backup", "token", "cookie", "session", "proxy", "agent", "host",
    "referer", "index", "search", "query", "download", "update", "install", "setup", "debug",
    "trace", "status", "health", "metrics", "attack", "payload", "exploit", "overflow",
];

/// Configuration of the synthetic ruleset generator.
#[derive(Clone, Debug)]
pub struct SnortConfig {
    /// Number of patterns to generate (the paper uses 20 312).
    pub count: usize,
    /// RNG seed (the corpus is deterministic per seed).
    pub seed: u64,
    /// Fraction (0..=1) of pathological `.*`-chained patterns; the paper
    /// observes roughly 0.3 % of rules in that family.
    pub dot_star_fraction: f64,
}

impl Default for SnortConfig {
    fn default() -> Self {
        SnortConfig { count: 20_000, seed: 0x5FA_2013, dot_star_fraction: 0.004 }
    }
}

/// Generates the synthetic ruleset: the curated patterns first, then
/// generated ones up to `config.count`.
pub fn ruleset(config: &SnortConfig) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out: Vec<String> =
        CURATED_PATTERNS.iter().take(config.count).map(|s| s.to_string()).collect();
    while out.len() < config.count {
        out.push(generate_pattern(&mut rng, config));
    }
    out
}

fn pick_word(rng: &mut StdRng) -> &'static str {
    WORDS.choose(rng).unwrap()
}

fn generate_pattern(rng: &mut StdRng, config: &SnortConfig) -> String {
    let shape = if rng.gen_bool(config.dot_star_fraction) {
        Shape::DotStarChain
    } else {
        *[
            Shape::Literal,
            Shape::Literal,
            Shape::Literal,
            Shape::HeaderScan,
            Shape::HeaderScan,
            Shape::KeywordAlt,
            Shape::Numeric,
            Shape::HexRun,
            Shape::ClassRepeat,
        ]
        .choose(rng)
        .unwrap()
    };
    let ci = if rng.gen_bool(0.6) { "(?i)" } else { "" };
    match shape {
        Shape::Literal => {
            let sep = ["/", "_", "-", "\\x3a", "\\x2f", "="].choose(rng).unwrap();
            format!("{ci}{}{}{}", pick_word(rng), sep, pick_word(rng))
        }
        Shape::HeaderScan => {
            let bound = rng.gen_range(8..64);
            format!("{ci}{}\\x3a[^\\r\\n]{{0,{bound}}}{}", pick_word(rng), pick_word(rng))
        }
        Shape::KeywordAlt => {
            let k = rng.gen_range(2..5usize);
            let mut words: Vec<&str> = (0..k).map(|_| pick_word(rng)).collect();
            words.dedup();
            let run = rng.gen_range(1..16);
            format!("{ci}({})[a-z0-9_]{{1,{run}}}", words.join("|"))
        }
        Shape::Numeric => {
            let a = rng.gen_range(1..4);
            let b = rng.gen_range(1..6);
            format!("{}[0-9]{{1,{a}}}\\.[0-9]{{1,{b}}}\\.[0-9]{{1,{b}}}", pick_word(rng))
        }
        Shape::HexRun => {
            let byte = rng.gen_range(0x80..=0xffu32);
            let lo = rng.gen_range(4..16);
            let hi = lo + rng.gen_range(4..32);
            format!("\\x{byte:02x}{{{lo},{hi}}}")
        }
        Shape::ClassRepeat => {
            let class = ["[a-z0-9]", "[^\\r\\n]", "[a-f0-9]", "[\\x20-\\x7e]", "[0-9a-z+/=]"]
                .choose(rng)
                .unwrap();
            let lo = rng.gen_range(1..8);
            let hi = lo + rng.gen_range(1..24);
            format!("{ci}{}{class}{{{lo},{hi}}}{}", pick_word(rng), pick_word(rng))
        }
        Shape::DotStarChain => {
            // e.g. .*(T.*Y.*P.*E.*) — the over-square family of Sect. VI-A.
            let stars = rng.gen_range(3..7usize);
            let mut s = String::from(".*");
            let word = pick_word(rng);
            for ch in word.chars().take(stars) {
                s.push(ch);
                s.push_str(".*");
            }
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_regex_syntax::parse;

    #[test]
    fn curated_patterns_all_parse() {
        for p in CURATED_PATTERNS {
            parse(p).unwrap_or_else(|e| panic!("curated pattern `{}` failed: {}", p, e));
        }
    }

    #[test]
    fn ids_scan_rules_parse_and_include_the_untamed_sqli_rule() {
        for p in IDS_SCAN_RULES {
            parse(p).unwrap_or_else(|e| panic!("ids_scan rule `{}` failed: {}", p, e));
        }
        assert!(IDS_SCAN_RULES.contains(&SQLI_RULE));
        assert!(SQLI_RULE.contains("\\s+"), "the rule must keep its untamed separator");
    }

    #[test]
    fn sqli_rule_explodes_eagerly_but_runs_lazily() {
        use sfa_matcher::{BackendChoice, BackendKind, MatchMode, Reduction, Regex, Strategy};
        // A small cap keeps the eager attempt cheap; the real automaton
        // explodes far beyond it (>750k states, measured — see
        // `SQLI_RULE`'s docs).
        let builder = Regex::builder().mode(MatchMode::Contains).max_sfa_states(2_000);
        assert!(
            builder.clone().backend(BackendChoice::Eager).build(SQLI_RULE).is_err(),
            "the untamed rule must overflow the eager construction"
        );
        let re = builder.backend(BackendChoice::Auto).build(SQLI_RULE).unwrap();
        assert_eq!(re.backend_kind(), BackendKind::Lazy);
        assert!(re.is_match(b"GET /q?u=UNION  SELECT name, pass FROM users"));
        assert!(re.is_match_with(
            &b"benign "
                .repeat(2_000)
                .into_iter()
                .chain(*b"union select x from y")
                .collect::<Vec<_>>(),
            Strategy::Parallel { threads: 4, reduction: Reduction::Tree }
        ));
        assert!(!re.is_match(b"GET /index.html HTTP/1.1"));
        let report = re.size_report();
        assert!(
            report.materialized_states < 2_000,
            "lazy matching stays bounded, got {}",
            report.materialized_states
        );
    }

    #[test]
    fn ids_scan_rules_pin_their_convergence_class() {
        use sfa_matcher::{BackendChoice, ConvergenceClass, MatchMode, Regex, RegexSet, Strategy};
        // Each rule alone, in Contains mode, compiles to a small
        // synchronizing automaton: scanning automata reset once the
        // needle (or a benign stretch) has been consumed, which is
        // exactly what makes guided speculation the right default.
        let builder = Regex::builder().mode(MatchMode::Contains).threads(4);
        let scan = builder.clone().build(crate::LOG_SCAN_RULE).unwrap();
        let report = scan.convergence_report();
        assert!(
            matches!(report.class(), ConvergenceClass::Synchronizing { .. }),
            "scan rule must be synchronizing, got {:?}",
            report.class()
        );
        assert!(report.reset_word().is_some());
        assert!(matches!(scan.auto_strategy(), Strategy::Speculative { threads: 4, .. }));
        // The streaming workload's pinned rule is ids_scan rule 0.
        assert_eq!(crate::LOG_SCAN_RULE, IDS_SCAN_RULES[0]);

        // The full tracked product automaton (5 668 DFA states) is past
        // the pair-analysis cap: the verdict degrades conservatively —
        // never to Synchronizing — so Auto keeps the SFA composition
        // path for the big set instead of speculating on 5 668 states.
        let set = RegexSet::new(
            IDS_SCAN_RULES.iter().copied(),
            &Regex::builder()
                .mode(MatchMode::Contains)
                .threads(4)
                .backend(BackendChoice::Auto)
                .max_sfa_states(2_000),
        )
        .unwrap();
        let product = set.regex();
        let report = product.convergence_report();
        assert!(!report.pair_analysis_ran(), "5 668 states must skip the O(n²) pair BFS");
        assert!(!report.prefers_speculation());
        assert!(matches!(product.auto_strategy(), Strategy::Parallel { threads: 4, .. }));
        // And the analysis surfaces through the size report.
        let size = set.size_report();
        assert_eq!(size.survivor_states, report.survivor_count());
        assert_eq!(size.convergence_horizon, report.compaction_horizon());
    }

    #[test]
    fn generated_ruleset_parses_and_is_deterministic() {
        let config = SnortConfig { count: 500, seed: 7, dot_star_fraction: 0.01 };
        let a = ruleset(&config);
        let b = ruleset(&config);
        assert_eq!(a, b, "same seed ⇒ same corpus");
        assert_eq!(a.len(), 500);
        for p in &a {
            parse(p).unwrap_or_else(|e| panic!("generated pattern `{}` failed: {}", p, e));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ruleset(&SnortConfig { count: 100, seed: 1, ..Default::default() });
        let b = ruleset(&SnortConfig { count: 100, seed: 2, ..Default::default() });
        assert_ne!(a, b);
    }

    #[test]
    fn corpus_contains_pathological_fraction() {
        let corpus = ruleset(&SnortConfig { count: 2000, seed: 3, dot_star_fraction: 0.01 });
        let chained = corpus.iter().filter(|p| p.matches(".*").count() >= 3).count();
        assert!(chained >= 5, "expected a handful of .*-chained patterns, got {}", chained);
        assert!(chained < 200, "the tail must stay thin, got {}", chained);
    }

    #[test]
    fn corpus_1k_is_pinned_byte_for_byte() {
        // FNV-1a over the newline-joined corpus: any change to the
        // generator, the seed, the curated prefix or the shape mix moves
        // this fingerprint and must come with a baseline refresh (see
        // BENCH_multimatch.json).
        use sfa_serialize::fnv1a;
        let corpus = corpus_1k();
        assert_eq!(corpus.len(), CORPUS_1K);
        assert_eq!(&corpus[..CURATED_PATTERNS.len()], CURATED_PATTERNS);
        assert_eq!(corpus, corpus_1k(), "pinned seed ⇒ identical corpus");
        for p in &corpus {
            parse(p).unwrap_or_else(|e| panic!("corpus rule `{}` failed: {}", p, e));
        }
        let fingerprint = fnv1a(corpus.join("\n").as_bytes());
        assert_eq!(fingerprint, 0x4fce_5e19_56e7_40ab, "corpus drifted: got {fingerprint:#x}");
    }

    #[test]
    fn small_count_returns_only_curated_prefix() {
        let corpus = ruleset(&SnortConfig { count: 5, ..Default::default() });
        assert_eq!(corpus.len(), 5);
        assert_eq!(corpus[0], CURATED_PATTERNS[0]);
    }
}
