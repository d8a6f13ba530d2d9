//! `ruleset_batch`: the IDS use. The first 100 rules of the pinned
//! corpus compile through `RegexSet::new` in Contains mode under a
//! 2 000-state shard budget, which packs them into shards gated by the
//! literal prefilter. The scan streams batches of ~2 KiB grouped log
//! lines through `RegexSet::matches_batch`. Every haystack is below the
//! pool's chunk threshold, so chunk parallelism is bypassed and the
//! prefilter, the shard runs and the per-haystack batch path do the work.

use crate::report::Outcome;
use crate::stats::{median, percentile, LoopResult, Op, Summary};
use crate::trace::{self, timed};
use crate::RunConfig;
use sfa_automata::{determinize, minimize, DfaConfig, Nfa};
use sfa_core::{DSfa, SfaConfig};
use sfa_matcher::{BackendChoice, Engine, MatchMode, Regex, RegexSet, Strategy};
use sfa_regex_syntax::Parser;
use sfa_workloads::{corpus_1k, service_requests, ServiceConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const RULES: usize = 100;
/// Per-shard DFA state budget of the packer.
const SHARD_BUDGET: usize = 2_000;
/// Eager D-SFA state cap: a shard whose D-SFA would be larger falls back
/// to the lazy backend.
const MAX_SFA_STATES: usize = 2_000;
const MAX_DFA_STATES: usize = 2_000_000;
/// Requests replayed for the per-layer shard-scan breakdown.
const SHARD_SCAN_REQUESTS: usize = 32;

/// The seeded request stream shared with the `service` workload: batches
/// of 16 haystacks, each 40 grouped log lines (~2 KiB).
pub fn requests(seed: u64) -> Vec<Vec<Vec<u8>>> {
    service_requests(&ServiceConfig {
        requests: 256,
        batch: 16,
        lines_per_haystack: 40,
        attack_every: 97,
        seed,
    })
}

/// Borrowed haystacks of one request.
pub fn haystacks(request: &[Vec<u8>]) -> Vec<&[u8]> {
    request.iter().map(Vec::as_slice).collect()
}

/// Set-up: engine start, the sharded compile, one untimed batch. Returns
/// the set, the seconds it took, and the milliseconds of `RegexSet::new`.
fn set_up(rules: &[String], requests: &[Vec<Vec<u8>>], threads: usize) -> (RegexSet, f64, f64) {
    let _span = trace::span("setup", 0);
    let start = Instant::now();
    let builder = Regex::builder()
        .mode(MatchMode::Contains)
        .backend(BackendChoice::Auto)
        .max_dfa_states(MAX_DFA_STATES)
        .max_sfa_states(MAX_SFA_STATES)
        .shard_state_budget(SHARD_BUDGET)
        .threads(threads)
        .engine(Engine::new(threads));
    let (set, compile_ms) = timed("matcher.regexset_new", 0, || {
        RegexSet::new(rules.iter().map(String::as_str), &builder).expect("rules compile")
    });
    black_box(set.matches_batch(&haystacks(&requests[0])));
    (set, start.elapsed().as_secs_f64(), compile_ms)
}

/// One set-up on the run's inputs, for [`crate::cold_setups`].
pub fn set_up_once(config: &RunConfig) -> f64 {
    let rules: Vec<String> = corpus_1k().into_iter().take(RULES).collect();
    set_up(&rules, &requests(config.seed), crate::report::nproc()).1
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let threads = crate::report::nproc();
    let rules: Vec<String> = corpus_1k().into_iter().take(RULES).collect();
    let requests = requests(config.seed);
    trace::set_enabled(config.trace);

    let (set, own_setup_s, compile_ms) = set_up(&rules, &requests, threads);
    let setup_s: Vec<f64> = if config.trace {
        vec![own_setup_s]
    } else {
        std::iter::once(own_setup_s).chain(crate::cold_setups(config)).collect()
    };
    out.set("setup_s", median(&setup_s));
    out.note(format!("set-up: {}", Summary::of(&setup_s).describe("s")));
    out.note(format!(
        "{} rules -> {} shards ({} gated, {} lazy)",
        set.len(),
        set.shards().len(),
        set.shards().iter().filter(|s| s.is_gated()).count(),
        set.shards().iter().filter(|s| s.regex().sfa().lazy().is_some()).count(),
    ));

    // Reference verdicts: every rule compiled alone, scanned by Algorithm 2.
    let singles: Vec<Regex> = rules
        .iter()
        .map(|rule| {
            Regex::builder()
                .mode(MatchMode::Contains)
                .backend(BackendChoice::Lazy)
                .build(rule)
                .expect("rule compiles alone")
        })
        .collect();
    let expected: Vec<Vec<Vec<usize>>> = requests
        .iter()
        .map(|request| {
            request
                .iter()
                .map(|h| {
                    (0..singles.len())
                        .filter(|&i| singles[i].is_match_with(h, Strategy::Sequential))
                        .collect()
                })
                .collect()
        })
        .collect();
    drop(singles);
    for (request, want) in requests.iter().zip(&expected) {
        let got = set.matches_batch(&haystacks(request));
        for (m, want) in got.iter().zip(want) {
            out.check(&m.iter().collect::<Vec<usize>>() == want);
        }
    }

    if config.trace {
        replay_pipeline(&set, &rules, compile_ms, &mut out);
        replay_batch_layers(&set, &requests, &mut out);
        let [plain, traced] =
            timed_loop(&set, &requests, &expected, config.seconds, true, &mut out);
        let batch_ms: Vec<f64> = traced.ops.iter().map(|op| op.latency_ms).collect();
        out.set("matcher.batch_p50_ms", median(&batch_ms));
        out.set("matcher.batch_p99_ms", percentile(&batch_ms, 99.0));
        out.set(
            "trace.overhead_pct",
            (traced.secs_per_byte() / plain.secs_per_byte() - 1.0) * 100.0,
        );
        out.set(
            "trace.unaccounted_pct",
            trace::unaccounted_pct(&trace::snapshot(), "ruleset.call"),
        );
        out.samples = plain.ops.len() + traced.ops.len();
    } else {
        let [run, _] = timed_loop(&set, &requests, &expected, config.seconds, false, &mut out);
        run.report(&mut out, "per-batch latency");
    }
    out
}

/// Streams the requests, in order and wrapping around, through
/// `matches_batch` until `budget` has passed, ending on a whole pass.
/// With `alternate`, every other call is traced (see
/// [`LoopResult`]); the results are `[untraced, traced]`.
fn timed_loop(
    set: &RegexSet,
    requests: &[Vec<Vec<u8>>],
    expected: &[Vec<Vec<usize>>],
    budget: Duration,
    alternate: bool,
    out: &mut Outcome,
) -> [LoopResult; 2] {
    let mut results: [LoopResult; 2] = Default::default();
    let start = Instant::now();
    let mut call = 0usize;
    while !call.is_multiple_of(requests.len()) || start.elapsed() < budget {
        let traced = alternate && call % 2 == 1;
        trace::set_enabled(traced);
        let result = &mut results[usize::from(traced)];
        let k = call % requests.len();
        let begin = Instant::now();
        let (hay, got) = {
            let _root = trace::span("ruleset.call", call as u64);
            let hay = haystacks(&requests[k]);
            let got = {
                let _span = trace::span("matcher.matches_batch", call as u64);
                set.matches_batch(black_box(&hay))
            };
            (hay, got)
        };
        let elapsed = begin.elapsed();
        let bytes = hay.iter().map(|h| h.len()).sum::<usize>();
        let end_s = start.elapsed().as_secs_f64();
        result.ops.push(Op { end_s, latency_ms: elapsed.as_secs_f64() * 1e3, bytes });
        result.wall += elapsed;
        result.bytes += bytes;
        out.check(got.iter().zip(&expected[k]).all(|(m, want)| m.iter().eq(want.iter().copied())));
        call += 1;
    }
    trace::set_enabled(alternate);
    results
}

/// Replays the public compile stages on each final shard's members; what
/// `RegexSet::new` spends beyond them is the shard packer.
fn replay_pipeline(set: &RegexSet, rules: &[String], compile_ms: f64, out: &mut Outcome) {
    // Shard members index the set's deduplicated rules; the pinned rules
    // have no duplicates, so they index `rules` too.
    let members: usize = set.shards().iter().map(|s| s.len()).sum();
    assert_eq!(members, rules.len(), "every rule sits in exactly one shard");
    let parser = Parser::new();
    let mut stages_ms = 0.0;
    for (sid, shard) in set.shards().iter().enumerate() {
        let req = sid as u64;
        let mut asts = Vec::with_capacity(shard.len());
        for &member in shard.members() {
            let (ast, ms) = timed("regex_syntax.parse", req, || {
                parser.parse(&rules[member as usize]).expect("rule parses")
            });
            out.add("regex_syntax.parse_ms", ms);
            stages_ms += ms;
            asts.push(crate::bulk::contains_wrap(ast));
        }
        let (nfa, nfa_ms) = timed("automata.nfa", req, || match asts.as_slice() {
            [only] => Nfa::from_ast(only),
            many => Nfa::from_asts(many),
        });
        let nfa = nfa.expect("shard nfa");
        let (raw, det_ms) = timed("automata.determinize", req, || {
            let config = DfaConfig { max_states: MAX_DFA_STATES, ..DfaConfig::default() };
            determinize(&nfa, &config).expect("shard determinizes")
        });
        let (dfa, min_ms) = timed("automata.minimize", req, || minimize(&raw));
        // A failed eager build is part of compiling a lazy shard.
        let (sfa, sfa_ms) = timed("core.sfa_build", req, || {
            DSfa::from_dfa(&dfa, &SfaConfig { max_states: MAX_SFA_STATES, ..SfaConfig::default() })
        });
        stages_ms += nfa_ms + det_ms + min_ms + sfa_ms;
        out.add("automata.nfa_ms", nfa_ms);
        out.add("automata.nfa_states", nfa.num_states() as f64);
        out.add("automata.determinize_ms", det_ms);
        out.add("automata.dfa_states", dfa.num_states() as f64);
        out.add("automata.minimize_ms", min_ms);
        out.add("core.sfa_build_ms", sfa_ms);
        if let Ok(sfa) = sfa {
            out.add("core.sfa_states", sfa.num_states() as f64);
            out.add("core.table_bytes", (sfa.table_bytes() + sfa.byte_table_bytes()) as f64);
            out.add("core.mapping_bytes", sfa.mapping_bytes() as f64);
        }
    }
    out.set("matcher.shard.pack_ms", (compile_ms - stages_ms).max(0.0));
    out.set("matcher.shard.shards", set.shards().len() as f64);
    out.set("matcher.shard.gated", set.shards().iter().filter(|s| s.is_gated()).count() as f64);
    out.note(format!(
        "RegexSet::new {compile_ms:.1} ms = replayed stages {stages_ms:.1} ms + packing {:.1} ms",
        (compile_ms - stages_ms).max(0.0)
    ));
}

/// The set layer's parts of one batch: the prefilter over every haystack,
/// and every shard's own batch scan (the ungated upper bound).
fn replay_batch_layers(set: &RegexSet, requests: &[Vec<Vec<u8>>], out: &mut Outcome) {
    if let Some(prefilter) = set.prefilter() {
        let mut find_ms = Vec::with_capacity(requests.len());
        let (mut hits, mut total) = (0usize, 0usize);
        for (r, request) in requests.iter().enumerate() {
            let (found, ms) = timed("matcher.prefilter.find", r as u64, || {
                request.iter().map(|h| !prefilter.find(h).is_empty()).collect::<Vec<bool>>()
            });
            find_ms.push(ms);
            hits += found.iter().filter(|&&hit| hit).count();
            total += found.len();
        }
        out.set("matcher.prefilter.find_ms", median(&find_ms));
        out.set("matcher.prefilter.hit_share", hits as f64 / total.max(1) as f64);
    }
    let mut scan_ms = Vec::with_capacity(SHARD_SCAN_REQUESTS);
    for (r, request) in requests.iter().take(SHARD_SCAN_REQUESTS).enumerate() {
        let hay = haystacks(request);
        let mut sum = 0.0;
        for shard in set.shards() {
            sum += timed("matcher.shard.scan", r as u64, || {
                black_box(shard.regex().matches_batch(&hay));
            })
            .1;
        }
        scan_ms.push(sum);
    }
    out.set("matcher.shard.scan_ms", median(&scan_ms));
}
