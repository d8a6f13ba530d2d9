//! Facade-level integration tests for durable compiled artifacts: a
//! compiled regex round-trips through its binary artifact **verdict
//! exact** — in memory and through the memory-mapped file path — and a
//! damaged artifact always fails with a typed error, never a panic and
//! never a wrong-answer automaton.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use sfa::prelude::*;
use sfa::serialize::FORMAT_VERSION;
use sfa::workloads;

fn eager_contains() -> RegexBuilder {
    Regex::builder().mode(MatchMode::Contains).max_dfa_states(50_000).max_sfa_states(4_000)
}

/// Keywords the snort-style generator builds rules from; salting
/// haystacks with them makes both verdict polarities common.
const SALT: &[&str] =
    &["admin", "passwd", "select", "attack", "exploit", "shell", "cgi-bin/phf", "etc/passwd"];

fn salted_haystacks(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let log = workloads::http_log(30, 7, seed);
    let mut haystacks: Vec<Vec<u8>> = log.split(|&b| b == b'\n').map(|l| l.to_vec()).collect();
    for _ in 0..8 {
        let a = SALT.choose(&mut rng).unwrap();
        let n = rng.gen_range(0..100u32);
        haystacks.push(format!("GET /{a}{n} HTTP/1.1").into_bytes());
    }
    haystacks.push(Vec::new());
    haystacks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Compile → encode → decode (both the in-memory and the mmap file
    /// path): the loaded automaton answers exactly like the original on
    /// every haystack.
    #[test]
    fn artifact_round_trip_is_verdict_exact(seed in any::<u64>(), pick in any::<prop::sample::Index>()) {
        let pool = workloads::ruleset(&workloads::SnortConfig {
            count: 40,
            seed: 5,
            dot_star_fraction: 0.05,
        });
        let pattern = pool[pick.index(pool.len())].as_str();
        // Rules too large for an eager automaton have no durable form;
        // nothing to round-trip.
        let Ok(re) = eager_contains().build(pattern) else { return Ok(()) };
        let Ok(artifact) = re.to_artifact() else { return Ok(()) };

        let from_memory = Regex::from_artifact(std::sync::Arc::new(artifact.clone())).unwrap();
        let dir = std::env::temp_dir().join(format!("sfa-test-art-{}-{seed:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.sfa");
        std::fs::write(&path, &artifact).unwrap();
        let from_file = Regex::load_artifact(&path).unwrap();

        for hay in salted_haystacks(seed) {
            let want = re.is_match(&hay);
            prop_assert_eq!(from_memory.is_match(&hay), want);
            prop_assert_eq!(from_file.is_match(&hay), want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every single-byte corruption is caught: the checksum covers the
    /// whole payload and the header fields are validated individually,
    /// so a flipped artifact loads as a typed error — one of the three
    /// artifact variants — and nothing else.
    #[test]
    fn corrupt_artifacts_fail_typed(seed in any::<u64>(), flip in any::<prop::sample::Index>()) {
        let re = eager_contains().build("exploit[0-9]{1,4}").unwrap();
        let mut artifact = re.to_artifact().unwrap();
        let index = flip.index(artifact.len());
        let mut rng = StdRng::seed_from_u64(seed);
        artifact[index] ^= rng.gen_range(1..=255u8);

        let err = match Regex::from_artifact(std::sync::Arc::new(artifact)) {
            Err(err) => err,
            Ok(_) => panic!("a flipped byte must not load"),
        };
        prop_assert!(
            matches!(
                err,
                Error::ArtifactCorrupt { .. }
                    | Error::ArtifactVersionMismatch { .. }
                    | Error::ArtifactIo(_)
            ),
            "untyped artifact failure: {err}"
        );
    }
}

/// A version bump in the header is reported as exactly
/// [`Error::ArtifactVersionMismatch`], carrying both versions.
#[test]
fn version_skew_is_reported_as_such() {
    let re = eager_contains().build("(ab)+c").unwrap();
    let mut artifact = re.to_artifact().unwrap();
    // Bytes 8..12 are the little-endian format version.
    artifact[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match Regex::from_artifact(std::sync::Arc::new(artifact)) {
        Err(Error::ArtifactVersionMismatch { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

/// Truncation at any prefix fails typed — including cuts inside the
/// header, inside the payload, and the empty file.
#[test]
fn truncated_artifacts_fail_typed() {
    let re = eager_contains().build("worm").unwrap();
    let artifact = re.to_artifact().unwrap();
    for cut in [0, 7, sfa::serialize::HEADER_LEN - 1, artifact.len() / 2, artifact.len() - 1] {
        let err = Regex::from_artifact(std::sync::Arc::new(artifact[..cut].to_vec()))
            .err()
            .unwrap_or_else(|| panic!("a {cut}-byte prefix must not load"));
        assert!(
            matches!(err, Error::ArtifactCorrupt { .. } | Error::ArtifactIo(_)),
            "untyped truncation failure at {cut}: {err}"
        );
    }
}

/// An artifact held at an odd address: the loaded automaton reads its
/// tables in place, and nothing in the format promises the buffer's
/// alignment.
struct OddBase(Vec<u8>);

impl AsRef<[u8]> for OddBase {
    fn as_ref(&self) -> &[u8] {
        &self.0[1..]
    }
}

fn load_at_odd_base(artifact: &[u8]) -> Regex {
    let mut padded = vec![0u8];
    padded.extend_from_slice(artifact);
    let data = OddBase(padded);
    assert_eq!(data.as_ref().as_ptr() as usize % 2, 1, "the tables must start unaligned");
    Regex::from_artifact(std::sync::Arc::new(data)).unwrap()
}

/// A regex loaded from an artifact at an odd base address scans with the
/// compiled regex's kernel and lane count and gives its verdicts under
/// every strategy, across the shuffle (≤ 16 states), `u8`/`u16` gather
/// and forced-`u32` shapes.
#[test]
fn unaligned_artifact_matches_the_compiled_regex_under_every_strategy() {
    // The execution strategy, not proptest's generator trait.
    use sfa::core::StateIdRepr;
    use sfa::matcher::Strategy;
    let cases: [(&str, Option<StateIdRepr>); 5] = [
        ("(ab)*", None),
        ("([0-4]{2}[5-9]{2})*", None),
        ("([0-4]{8}[5-9]{8})*", None),
        ("([0-4]{2}[5-9]{2})*", Some(StateIdRepr::U32)),
        ("(a|b)*abb", Some(StateIdRepr::U16)),
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let noise: Vec<u8> = (0..70_000).map(|_| *b"0123456789ab".choose(&mut rng).unwrap()).collect();
    for (pattern, repr) in cases {
        let mut builder = Regex::builder();
        if let Some(repr) = repr {
            builder = builder.state_id_repr(repr);
        }
        let re = builder.build(pattern).unwrap();
        let loaded = load_at_odd_base(&re.to_artifact().unwrap());
        assert_eq!(loaded.backend_kind(), BackendKind::Eager);
        assert_eq!(loaded.sfa().repr(), re.sfa().repr(), "{pattern}");
        assert_eq!(loaded.sfa().scan_kernel(), re.sfa().scan_kernel(), "{pattern}");
        assert_eq!(loaded.sfa().preferred_lanes(), re.sfa().preferred_lanes(), "{pattern}");

        let inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"ab".to_vec(),
            b"abab".repeat(20_000),
            b"00550459".repeat(9_000),
            b"0000055555".repeat(100),
            b"0000000055555555".repeat(5_000),
            [b"ab".repeat(10_000), b"abb".to_vec()].concat(),
            noise.clone(),
            noise[..5_000].to_vec(),
        ];
        for input in &inputs {
            let want = re.run(input, Strategy::Sequential);
            assert_eq!(want, re.dfa().run(input));
            let mut strategies = vec![Strategy::Sequential, Strategy::Auto];
            for threads in [2, 4] {
                for reduction in [Reduction::Sequential, Reduction::Tree] {
                    strategies.push(Strategy::Parallel { threads, reduction });
                    strategies.push(Strategy::Speculative { threads, reduction });
                }
            }
            for strategy in strategies {
                assert_eq!(
                    loaded.run(input, strategy),
                    want,
                    "{pattern} ({repr:?}), {} bytes, {strategy:?}",
                    input.len()
                );
                assert_eq!(
                    loaded.is_match_with(input, strategy),
                    re.is_match_with(input, strategy)
                );
            }
        }
    }
}

/// Re-encoding a loaded regex reproduces the artifact it came from, byte
/// for byte: the automaton's tables are the artifact's sections, and the
/// stored metadata and convergence summary travel with it.
#[test]
fn loaded_regex_re_encodes_to_identical_bytes() {
    let builder = eager_contains();
    let regexes = [
        Regex::new("(ab)*").unwrap(),
        builder.clone().build("attack[0-9]{2}").unwrap(),
        Regex::builder().state_id_repr(sfa::core::StateIdRepr::U32).build("(a|b)*abb").unwrap(),
        RegexSet::new(["GET /[a-z]+", "POST /login", "GET /[a-z]+"], &builder)
            .unwrap()
            .regex()
            .clone(),
    ];
    for re in regexes {
        let artifact = re.to_artifact().unwrap();
        let loaded = Regex::from_artifact(std::sync::Arc::new(artifact.clone())).unwrap();
        assert!(
            loaded.to_artifact().unwrap() == artifact,
            "{} re-encodes differently",
            re.pattern()
        );
        // Unaligned, too.
        assert!(load_at_odd_base(&artifact).to_artifact().unwrap() == artifact);
    }
}
