//! Batch verdict parity: every batch API — `Regex::{is_match,matches}_batch`
//! and `RegexSet::{match,matches}_batch` — reports exactly what
//! `Strategy::Sequential` (Algorithm 2) reports haystack by haystack,
//! whatever the backend (eager, lazy, artifact-loaded), whether the set is
//! sharded, and whether the batch runs inline or on the pool.

use sfa::automata::{StateId, DFA_LANES};
use sfa::prelude::*;
use std::sync::Arc;

/// Few and small enough rules that the tracked union's eager D-SFA stays
/// cheap to build in debug tests.
const RULES: &[&str] = &["attack[0-9]{2}", "(?i)etc/passwd", "exploit[a-z]{2}"];

fn builder(threads: usize) -> RegexBuilder {
    Regex::builder()
        .mode(MatchMode::Contains)
        .max_dfa_states(50_000)
        .threads(threads)
        .engine(Engine::new(threads))
}

/// A benign log-like filler of `len` bytes that matches no rule.
fn filler(len: usize, seed: usize) -> Vec<u8> {
    let words: [&[u8]; 6] = [b"GET ", b"/index ", b"200 ", b"user=bob ", b"0.0.0.0 ", b"- "];
    let mut out = Vec::with_capacity(len + 16);
    let mut i = seed;
    while out.len() < len {
        out.extend_from_slice(words[i % words.len()]);
        i = i.wrapping_mul(7).wrapping_add(3);
    }
    out.truncate(len);
    out
}

/// More than two lane groups of ragged haystacks: empty ones, hits near
/// the start, the middle and the end, hits that straddle a 128-byte block
/// boundary, and misses — plus one haystack big enough to take the
/// chunk-parallel path on a multi-worker engine.
fn haystacks() -> Vec<Vec<u8>> {
    let needles: [&[u8]; 4] = [b"attack42", b"ETC/PASSWD", b"exploitab", b"attack4"];
    let mut out = Vec::new();
    for i in 0..2 * DFA_LANES + 3 {
        let mut h = filler(37 * i + (i % 3) * 300, i);
        if i % 4 != 3 && !h.is_empty() {
            let at = (i * 97) % h.len();
            let needle = needles[i % needles.len()];
            h.splice(at..at, needle.iter().copied());
        }
        out.push(h);
    }
    out.push(Vec::new());
    let mut big = filler(96 * 1024, 5);
    big.extend_from_slice(b"exploitzz");
    out.push(big);
    out
}

fn refs(haystacks: &[Vec<u8>]) -> Vec<&[u8]> {
    haystacks.iter().map(Vec::as_slice).collect()
}

/// Asserts every batch API of `re` against per-haystack Sequential runs.
fn check_regex(re: &Regex, haystacks: &[&[u8]], label: &str) {
    let seq: Vec<StateId> = haystacks.iter().map(|h| re.run(h, Strategy::Sequential)).collect();
    let want_any: Vec<bool> = seq.iter().map(|&q| re.dfa().is_accepting(q)).collect();
    let want_sets: Vec<Vec<usize>> =
        seq.iter().map(|&q| re.dfa().accept_set(q).iter().map(|p| p as usize).collect()).collect();
    assert_eq!(re.is_match_batch(haystacks), want_any, "{label}: is_match_batch");
    let got: Vec<Vec<usize>> =
        re.matches_batch(haystacks).iter().map(|m| m.iter().collect()).collect();
    assert_eq!(got, want_sets, "{label}: matches_batch");
}

/// Asserts both batch APIs of `set` against per-haystack Sequential runs.
fn check_set(set: &RegexSet, haystacks: &[&[u8]], label: &str) {
    let want: Vec<SetMatches> =
        haystacks.iter().map(|h| set.matches_with(h, Strategy::Sequential)).collect();
    let want_any: Vec<bool> = want.iter().map(SetMatches::matched_any).collect();
    assert!(want_any.iter().any(|&m| m) && !want_any.iter().all(|&m| m), "{label}: mixed batch");
    assert_eq!(set.matches_batch(haystacks), want, "{label}: matches_batch");
    assert_eq!(set.match_batch(haystacks), want_any, "{label}: match_batch");
}

#[test]
fn batch_apis_agree_with_sequential_on_every_build() {
    let owned = haystacks();
    let hay = refs(&owned);
    for threads in [1, 2] {
        for backend in [BackendChoice::Eager, BackendChoice::Lazy] {
            let b = builder(threads).backend(backend);
            let label = format!("{backend:?}, {threads} thread(s)");

            let single = b.clone().build(RULES[0]).unwrap();
            check_regex(&single, &hay, &format!("single regex, {label}"));

            let unsharded = RegexSet::new(RULES.iter().copied(), &b).unwrap();
            assert!(!unsharded.is_sharded());
            check_regex(unsharded.regex(), &hay, &format!("union regex, {label}"));
            check_set(&unsharded, &hay, &format!("unsharded set, {label}"));

            let sharded =
                RegexSet::new(RULES.iter().copied(), &b.clone().shard_state_budget(20)).unwrap();
            assert!(sharded.is_sharded() && sharded.shards().len() > 1);
            check_set(&sharded, &hay, &format!("sharded set, {label}"));
            assert_eq!(
                sharded.matches_batch(&hay),
                unsharded.matches_batch(&hay),
                "{label}: sharded = unsharded"
            );
        }
        // The artifact round trip serves an eager backend over the
        // artifact's own tables.
        let eager = RegexSet::new(RULES.iter().copied(), &builder(threads)).unwrap();
        let artifact = eager.regex().to_artifact().unwrap();
        let artifact_len = artifact.len();
        let loaded = Regex::from_artifact(Arc::new(artifact)).unwrap();
        assert_eq!(loaded.sfa().kind(), BackendKind::Eager);
        assert_eq!(loaded.size_report().artifact_bytes, Some(artifact_len));
        check_regex(&loaded, &hay, &format!("artifact-loaded, {threads} thread(s)"));
    }
}

/// Contains-mode haystacks that hit in their first bytes and then carry
/// long tails: the batch kernel retires their lanes at the sink the first
/// hit leads to, and must still report exactly the Sequential verdicts
/// (including for the tail-only misses interleaved with them).
#[test]
fn early_hits_with_long_tails_keep_sequential_verdicts() {
    let mut owned = Vec::new();
    for i in 0..2 * DFA_LANES + 1 {
        let mut h = if i % 5 == 4 { Vec::new() } else { b"attack42 ".to_vec() };
        h.extend(filler(3000 + 61 * i, i));
        owned.push(h);
    }
    let hay = refs(&owned);
    for backend in [BackendChoice::Eager, BackendChoice::Lazy] {
        let b = builder(1).backend(backend);
        let re = b.clone().build(RULES[0]).unwrap();
        let any_sink = re.dfa().run_many(&hay).iter().any(|&q| re.dfa().is_sink(q));
        assert!(any_sink, "the hits must lead into a sink");
        check_regex(&re, &hay, &format!("{backend:?}"));
        check_set(
            &RegexSet::new(RULES.iter().copied(), &b).unwrap(),
            &hay,
            &format!("{backend:?}"),
        );
    }
}

/// Batch traffic runs the shards' DFAs, never their SFAs, so a lazy
/// shard's state cache — unbounded over a process lifetime — does not
/// grow however many batches it serves.
#[test]
fn batches_do_not_grow_lazy_shard_caches() {
    let owned = haystacks();
    let hay = refs(&owned);
    let set = RegexSet::new(
        RULES.iter().copied(),
        &builder(2).backend(BackendChoice::Lazy).shard_state_budget(20),
    )
    .unwrap();
    assert!(set.is_sharded());
    let states = |set: &RegexSet| -> Vec<usize> {
        set.shards().iter().map(|s| s.regex().sfa().num_states()).collect()
    };
    let before = states(&set);
    // The any-match batch sends an oversized haystack down the chunk-
    // parallel path, which does scan the SFA; keep to the small ones.
    let small = &hay[..hay.len() - 1];
    for _ in 0..3 {
        set.matches_batch(&hay);
        set.match_batch(small);
    }
    assert_eq!(states(&set), before);
}
