//! `bulk_scan` / `bulk_scan_seq`: a few automata over large single
//! haystacks, the paper's setting. Each subject is matched through
//! `Regex::is_match_with`, under `Strategy::Auto` at `nproc` threads
//! (`bulk_scan`) or under `Strategy::Sequential`, Algorithm 2
//! (`bulk_scan_seq`).
//!
//! The subjects:
//! * r50, `([0-4]{50}[5-9]{50})*`: a 10 100-state u16 D-SFA whose DFA
//!   synchronizes, so `Auto` picks guided speculation;
//! * window12, `window_pattern(12)`: a 16 384-state u16 table larger than
//!   L2, which `Auto` scans SFA-parallel;
//! * the log rule in Contains mode over an attack-free log. With planted
//!   attacks the sequential scan would exit at the first hit and `Auto`
//!   would not, and the figures would measure the exit point.
//!
//! Input sizes are chosen so each subject takes a similar share of the
//! wall time under `Auto`.

use crate::report::{Outcome, PER_LAYER};
use crate::stats::{median, LoopResult, Op, Summary};
use crate::trace::{self, timed};
use crate::RunConfig;
use sfa_analysis::ConvergenceReport;
use sfa_automata::{determinize, minimize, DfaConfig, Nfa};
use sfa_core::{DSfa, SfaBackend, SfaConfig, SfaStateId};
use sfa_matcher::chunk::{split_chunks, split_chunks_guided};
use sfa_matcher::{Engine, MatchMode, ParallelSfaMatcher, Regex, SpeculativeDfaMatcher, Strategy};
use sfa_regex_syntax::ast::Ast;
use sfa_regex_syntax::class::perl;
use sfa_regex_syntax::Parser;
use sfa_workloads::{digit_text, log_stream_bytes, rn_pattern, rn_text, window_pattern};
use sfa_workloads::{StreamConfig, LOG_SCAN_RULE};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which strategy the timed calls use.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Auto,
    Sequential,
}

impl Mode {
    fn strategy(self) -> Strategy {
        match self {
            Mode::Auto => Strategy::Auto,
            Mode::Sequential => Strategy::Sequential,
        }
    }
}

const R50_BYTES: usize = 2 << 20;
const WINDOW_BYTES: usize = 1 << 20;
const LOG_LINES: usize = 40_000;
/// Lanes of the `run_from_many` kernel measurement (one AVX2 register).
const KERNEL_LANES: usize = 8;
/// Repeats of each replayed layer call; the median is reported.
const REPLAYS: usize = 5;

struct Subject {
    name: &'static str,
    pattern: String,
    mode: MatchMode,
    input: Vec<u8>,
}

fn subjects(seed: u64) -> Vec<Subject> {
    let log = StreamConfig { lines: LOG_LINES, attack_every: 0, mean_block: 512, seed };
    vec![
        Subject {
            name: "r50",
            pattern: rn_pattern(50),
            mode: MatchMode::Whole,
            input: rn_text(50, R50_BYTES, seed),
        },
        Subject {
            name: "window12",
            pattern: window_pattern(12),
            mode: MatchMode::Whole,
            input: digit_text(WINDOW_BYTES, seed ^ 0x9E37_79B9),
        },
        Subject {
            name: "log",
            pattern: LOG_SCAN_RULE.to_string(),
            mode: MatchMode::Contains,
            input: log_stream_bytes(&log),
        },
    ]
}

fn compile(subjects: &[Subject], engine: &Engine, threads: usize) -> Vec<Regex> {
    subjects
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let _span = trace::span("matcher.build", k as u64);
            Regex::builder()
                .mode(s.mode)
                .threads(threads)
                .engine(engine.clone())
                .build(&s.pattern)
                .expect("bulk subjects compile")
        })
        .collect()
}

/// Set-up: engine start, compile, and one untimed first call per
/// subject, which carries `Auto`'s convergence analysis. Returns the
/// compiled subjects and the seconds it took.
fn set_up(subjects: &[Subject], threads: usize, strategy: Strategy) -> (Vec<Regex>, f64) {
    let _span = trace::span("setup", 0);
    let start = Instant::now();
    let engine = Engine::new(threads);
    let regexes = compile(subjects, &engine, threads);
    for (k, (re, s)) in regexes.iter().zip(subjects).enumerate() {
        let _span = trace::span("matcher.first_call", k as u64);
        black_box(re.run(&s.input, strategy));
    }
    (regexes, start.elapsed().as_secs_f64())
}

/// One set-up on the run's inputs, for [`crate::cold_setups`].
pub fn set_up_once(config: &RunConfig, mode: Mode) -> f64 {
    set_up(&subjects(config.seed), crate::report::nproc(), mode.strategy()).1
}

pub fn run(config: &RunConfig, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let threads = crate::report::nproc();
    let strategy = mode.strategy();
    let subjects = subjects(config.seed);
    trace::set_enabled(config.trace);

    let (regexes, own_setup_s) = set_up(&subjects, threads, strategy);
    let setup_s: Vec<f64> = if config.trace {
        vec![own_setup_s]
    } else {
        std::iter::once(own_setup_s).chain(crate::cold_setups(config)).collect()
    };
    out.set("setup_s", median(&setup_s));

    // Verdicts: Auto's final DFA state must equal Algorithm 2's.
    let mut expected = Vec::with_capacity(subjects.len());
    for (re, s) in regexes.iter().zip(&subjects) {
        let auto = re.run(&s.input, Strategy::Auto);
        let seq = re.run(&s.input, Strategy::Sequential);
        out.check(auto == seq);
        expected.push(re.dfa().is_accepting(seq));
        out.note(format!(
            "subject {}: {} bytes, auto -> {:?}, {} SFA states ({}), kernel {}, accepted {}",
            s.name,
            s.input.len(),
            re.auto_strategy(),
            re.sfa().num_states(),
            re.sfa().repr().as_str(),
            re.sfa().scan_kernel(),
            re.dfa().is_accepting(seq),
        ));
    }

    if config.trace {
        replay_compile(&subjects, mode, &mut out);
        replay_kernels(&regexes, &subjects, &mut out);
        if mode == Mode::Auto {
            replay_matcher(&regexes, &subjects, &mut out);
        }
        let [plain, traced] =
            timed_loop(&regexes, &subjects, &expected, strategy, config.seconds, true, &mut out);
        out.set(
            "trace.overhead_pct",
            (traced.secs_per_byte() / plain.secs_per_byte() - 1.0) * 100.0,
        );
        out.set("trace.unaccounted_pct", trace::unaccounted_pct(&trace::snapshot(), "bulk.round"));
        out.samples = plain.ops.len() + traced.ops.len();
    } else {
        let [run, _] =
            timed_loop(&regexes, &subjects, &expected, strategy, config.seconds, false, &mut out);
        run.report(&mut out, "per-call latency");
        for (k, s) in subjects.iter().enumerate() {
            let calls: Vec<f64> =
                run.ops.iter().skip(k).step_by(subjects.len()).map(|op| op.latency_ms).collect();
            out.note(format!("{} calls: {}", s.name, Summary::of(&calls).describe("ms")));
        }
        out.note(format!("set-up: {}", Summary::of(&setup_s).describe("s")));
    }
    out
}

/// Rounds of one call per subject until `budget` has passed, so every
/// run scans the same subject mix. With `alternate`, every other round
/// is traced: the two results are `[untraced, traced]`, and interleaving
/// them keeps machine drift out of the tracing overhead.
fn timed_loop(
    regexes: &[Regex],
    subjects: &[Subject],
    expected: &[bool],
    strategy: Strategy,
    budget: Duration,
    alternate: bool,
    out: &mut Outcome,
) -> [LoopResult; 2] {
    let mut results: [LoopResult; 2] = Default::default();
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed() < budget {
        let traced = alternate && round % 2 == 1;
        trace::set_enabled(traced);
        let result = &mut results[usize::from(traced)];
        let round_start = Instant::now();
        {
            let _root = trace::span("bulk.round", round);
            for (k, (re, s)) in regexes.iter().zip(subjects).enumerate() {
                let begin = Instant::now();
                let verdict = {
                    let _span = trace::span("matcher.is_match", round);
                    re.is_match_with(black_box(&s.input), strategy)
                };
                let latency_ms = begin.elapsed().as_secs_f64() * 1e3;
                let end_s = start.elapsed().as_secs_f64();
                result.ops.push(Op { end_s, latency_ms, bytes: s.input.len() });
                out.check(verdict == expected[k]);
                result.bytes += s.input.len();
            }
        }
        result.wall += round_start.elapsed();
        round += 1;
    }
    trace::set_enabled(alternate);
    results
}

/// Replays the compile pipeline's public stages on every subject.
fn replay_compile(subjects: &[Subject], mode: Mode, out: &mut Outcome) {
    for (k, s) in subjects.iter().enumerate() {
        let req = k as u64;
        let (ast, parse_ms) =
            timed("regex_syntax.parse", req, || Parser::new().parse(&s.pattern).expect("parses"));
        let ast = match s.mode {
            MatchMode::Whole => ast,
            MatchMode::Contains => contains_wrap(ast),
        };
        let (nfa, nfa_ms) = timed("automata.nfa", req, || Nfa::from_ast(&ast).expect("nfa"));
        let (raw, det_ms) = timed("automata.determinize", req, || {
            determinize(&nfa, &DfaConfig::default()).expect("determinizes")
        });
        let (dfa, min_ms) = timed("automata.minimize", req, || minimize(&raw));
        let (sfa, sfa_ms) = timed("core.sfa_build", req, || {
            DSfa::from_dfa(&dfa, &SfaConfig::default()).expect("builds")
        });
        out.add("regex_syntax.parse_ms", parse_ms);
        out.add("automata.nfa_ms", nfa_ms);
        out.add("automata.nfa_states", nfa.num_states() as f64);
        out.add("automata.determinize_ms", det_ms);
        out.add("automata.dfa_states", dfa.num_states() as f64);
        out.add("automata.minimize_ms", min_ms);
        out.add("core.sfa_build_ms", sfa_ms);
        out.add("core.sfa_states", sfa.num_states() as f64);
        out.add("core.table_bytes", (sfa.table_bytes() + sfa.byte_table_bytes()) as f64);
        out.add("core.mapping_bytes", sfa.mapping_bytes() as f64);
        // Only `Auto` resolution consults the analysis.
        if mode == Mode::Auto {
            let (_, ms) = timed("analysis.convergence", req, || ConvergenceReport::analyze(&dfa));
            out.add("analysis.convergence_ms", ms);
        }
    }
}

/// The `(?s:.)*…(?s:.)*` wrap a Contains-mode build applies.
pub fn contains_wrap(ast: Ast) -> Ast {
    Ast::concat(vec![Ast::star(Ast::Class(perl::any())), ast, Ast::star(Ast::Class(perl::any()))])
}

/// Median wall time in ns of `REPLAYS` calls of `work` under a span.
fn median_ns(name: &'static str, req: u64, mut work: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPLAYS).map(|_| timed(name, req, &mut work).1 * 1e6).collect();
    median(&samples)
}

/// The metric name `prefix.<label>` from the per-layer table, if declared.
fn layer_name(prefix: &str, label: &str) -> Option<&'static str> {
    let wanted = format!("{prefix}.{label}");
    PER_LAYER.iter().map(|&(name, _)| name).find(|&name| name == wanted)
}

/// Scan kernels: one lane (`SfaBackend::run`) and `KERNEL_LANES`
/// identity-seeded lanes (`run_from_many`) per subject, labelled by the
/// backend's kernel and id width; plus the DFA scan Algorithm 2 uses on
/// automata whose SFA byte table is too big to stay cached.
fn replay_kernels(regexes: &[Regex], subjects: &[Subject], out: &mut Outcome) {
    let mut by_label: BTreeMap<String, (f64, f64, f64)> = BTreeMap::new();
    let (mut dfa_ns, mut dfa_bytes) = (0.0, 0.0);
    for (k, (re, s)) in regexes.iter().zip(subjects).enumerate() {
        let backend = re.sfa();
        let input = s.input.as_slice();
        let req = k as u64;
        let one = median_ns("core.run", req, || {
            black_box(backend.run(black_box(input)));
        });
        let identity = backend.initial();
        let jobs: Vec<(SfaStateId, &[u8])> =
            split_chunks(input, KERNEL_LANES).into_iter().map(|c| (identity, c)).collect();
        let lanes = median_ns("core.run_from_many", req, || {
            black_box(backend.run_from_many(black_box(&jobs)));
        });
        let dfa = median_ns("automata.run", req, || {
            black_box(re.dfa().run(black_box(input)));
        });
        let label = format!("{}.{}", backend.scan_kernel(), backend.repr().as_str());
        let entry = by_label.entry(label.clone()).or_default();
        entry.0 += one;
        entry.1 += lanes;
        entry.2 += input.len() as f64;
        dfa_ns += dfa;
        dfa_bytes += input.len() as f64;
        out.note(format!(
            "kernel {} on {}: {:.3} ns/B one lane, {:.3} ns/B {KERNEL_LANES} lanes, DFA {:.3} ns/B",
            label,
            s.name,
            one / input.len() as f64,
            lanes / input.len() as f64,
            dfa / input.len() as f64,
        ));
    }
    for (label, (one, lanes, bytes)) in by_label {
        match (
            layer_name("core.scan_ns_per_byte", &label),
            layer_name("core.lanes_ns_per_byte", &label),
        ) {
            (Some(scan), Some(lane)) => {
                out.set(scan, one / bytes);
                out.set(lane, lanes / bytes);
            }
            _ => out.note(format!("kernel label {label} has no declared metric")),
        }
    }
    out.set("automata.scan_ns_per_byte", dfa_ns / dfa_bytes);
}

/// Decomposes one `Auto` call per subject into chunk plan, the slowest
/// chunk scanned alone, the reduction, and the rest (dispatch).
fn replay_matcher(regexes: &[Regex], subjects: &[Subject], out: &mut Outcome) {
    for (k, (re, s)) in regexes.iter().zip(subjects).enumerate() {
        let req = k as u64;
        let input = s.input.as_slice();
        let engine = re.engine().clone();
        let strategy = re.auto_strategy();
        let (plan_ms, chunks, lanes, chunk_ms, reduce_ms, call_ms) = match strategy {
            Strategy::Parallel { threads, reduction } => {
                let backend = re.sfa();
                let (plan, plan_ms) = timed("matcher.plan", req, || {
                    engine.plan_chunks_interleaved(input.len(), threads, backend.preferred_lanes())
                });
                let chunks = split_chunks(input, plan.chunks);
                let slowest = chunks
                    .iter()
                    .map(|chunk| {
                        median_ns("matcher.chunk_scan", req, || {
                            black_box(scan_lanes(backend, chunk, plan.lanes));
                        })
                    })
                    .fold(0.0, f64::max)
                    / 1e6;
                let lane_states: Vec<Vec<SfaStateId>> =
                    chunks.iter().map(|chunk| scan_lanes(backend, chunk, plan.lanes)).collect();
                let reduce_ms = median_ns("matcher.reduce", req, || {
                    let identity = backend.initial();
                    let mut q = backend.dfa_start();
                    for states in &lane_states {
                        let f =
                            states.iter().fold(identity, |acc, &f| backend.compose_states(acc, f));
                        q = backend.apply(f, q);
                    }
                    black_box(q);
                }) / 1e6;
                let matcher = ParallelSfaMatcher::with_engine(backend, engine.clone());
                let call = median_ns("matcher.parallel", req, || {
                    black_box(matcher.run(input, threads, reduction));
                }) / 1e6;
                (plan_ms, plan.chunks, plan.chunks * plan.lanes, slowest, reduce_ms, call)
            }
            Strategy::Speculative { threads, reduction } => {
                let report = re.convergence_report();
                let (plan, plan_ms) =
                    timed("matcher.plan", req, || engine.plan_chunks(input.len(), threads));
                // The guided matcher nudges boundaries within 64 bytes.
                let pieces = split_chunks_guided(input, plan.chunks, 64, |b| {
                    report.is_synchronizing_byte(b)
                });
                // A converged guided chunk costs what a plain DFA scan of
                // it costs; the entry-set surplus lands in dispatch.
                let slowest = pieces
                    .iter()
                    .map(|(_, chunk)| {
                        median_ns("matcher.chunk_scan", req, || {
                            black_box(re.dfa().run(chunk));
                        })
                    })
                    .fold(0.0, f64::max)
                    / 1e6;
                let matcher = SpeculativeDfaMatcher::with_engine(re.dfa(), engine.clone())
                    .with_analysis(report);
                let call = median_ns("matcher.speculative", req, || {
                    black_box(matcher.run(input, threads, reduction));
                }) / 1e6;
                (plan_ms, pieces.len(), pieces.len(), slowest, 0.0, call)
            }
            Strategy::Sequential | Strategy::Auto => {
                let call = median_ns("matcher.sequential", req, || {
                    black_box(re.run(input, Strategy::Sequential));
                }) / 1e6;
                (0.0, 1, 1, call, 0.0, call)
            }
        };
        let dispatch_ms = (call_ms - plan_ms - chunk_ms - reduce_ms).max(0.0);
        out.add("matcher.chunks", chunks as f64);
        out.add("matcher.lanes", lanes as f64);
        out.add("matcher.chunk_scan_ms", chunk_ms);
        out.add("matcher.reduce_us", reduce_ms * 1e3);
        out.add("matcher.dispatch_ms", dispatch_ms);
        out.note(format!(
            "matcher {} ({strategy:?}): call {call_ms:.3} ms = plan {plan_ms:.4} + slowest chunk \
             {chunk_ms:.3} + reduce {reduce_ms:.4} + dispatch {dispatch_ms:.3}; {chunks} chunks, {lanes} lanes",
            s.name
        ));
    }
}

/// One worker's chunk scan: `lanes` identity-seeded sub-chunks through
/// one `run_from_many` call. Returns the lane states.
fn scan_lanes(backend: &SfaBackend, chunk: &[u8], lanes: usize) -> Vec<SfaStateId> {
    if lanes <= 1 || chunk.len() < lanes {
        return vec![backend.run(chunk)];
    }
    let identity = backend.initial();
    let jobs: Vec<(SfaStateId, &[u8])> =
        split_chunks(chunk, lanes).into_iter().map(|c| (identity, c)).collect();
    backend.run_from_many(&jobs)
}
