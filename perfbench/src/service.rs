//! `service`: a match server on loopback serving the eager IDS namespace
//! (the IDS rules minus the SQL-injection rule, whose D-SFA only fits the
//! lazy backend and so has no artifact form).
//!
//! Before anything is timed, one compile writes the namespace's artifact.
//! Each timed start then binds a fresh server and registers over the wire
//! from that artifact, which must report `RegisterSource::Artifact`, so
//! requests are served by the artifact-loaded backend. Requests are the
//! seeded request batches, sent back to back over one connection, each
//! timed from send to reply. The traced run adds an open loop at a fixed
//! rate, timed from when each request was due, and a closed loop over one
//! persistent connection per CPU.

use crate::report::Outcome;
use crate::ruleset::{haystacks, requests};
use crate::stats::{median, percentile, windowed_latency_ms, windowed_mb_s, Op, Summary};
use crate::trace::{self, timed};
use crate::RunConfig;
use sfa_matcher::{MatchMode, Regex, RegexSet};
use sfa_server::protocol::{read_frame, PayloadReader, PayloadWriter, OP_MATCH, STATUS_OK};
use sfa_server::{Client, ClientError, RegisterSource, Server, ServerConfig};
use sfa_workloads::{IDS_SCAN_RULES, SQLI_RULE};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The rate of the traced run's open loop in requests per second, about
/// a third of the closed-loop capacity on the reference machine (at half,
/// a stall of the shared two-core machine let the queue run away).
pub const OPEN_LOOP_RATE: f64 = 3000.0;
/// Cold restarts behind `setup_s`; one is too short to repeat tightly.
const SETUP_RESTARTS: usize = 101;
const TENANT: &str = "ids";

type Expected = Vec<Vec<Vec<u32>>>;

struct Serving {
    server: Server,
    addr: SocketAddr,
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let connections = crate::report::nproc();
    let rules: Vec<String> =
        IDS_SCAN_RULES.iter().filter(|r| **r != SQLI_RULE).map(|r| r.to_string()).collect();
    let rule_refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    let requests = requests(config.seed);
    let dir = Path::new(".bench_out").join(format!("service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the artifact directory");
    let server_config = ServerConfig { artifact_dir: Some(dir.clone()), ..Default::default() };
    trace::set_enabled(config.trace);

    // Untimed: one fresh compile writes the artifact back.
    {
        let server = Server::bind_tcp("127.0.0.1:0", server_config.clone()).expect("bind");
        let (_, source) = server.register(TENANT, &rules).expect("namespace compiles");
        out.note(format!("priming registration: {source:?}"));
        server.shutdown();
    }
    // Reference verdicts: a fresh in-process compile.
    let fresh =
        RegexSet::new(rule_refs.iter().copied(), &Regex::builder().mode(MatchMode::Contains))
            .expect("namespace compiles");
    let expected: Expected = requests
        .iter()
        .map(|r| {
            fresh
                .matches_batch(&haystacks(r))
                .iter()
                .map(|m| m.iter().map(|id| id as u32).collect())
                .collect()
        })
        .collect();
    drop(fresh);

    // Set-up: cold restarts, each bind + register from the artifact +
    // one warm-up request per connection.
    let mut setup_s = Vec::with_capacity(SETUP_RESTARTS);
    let mut register_ms = Vec::with_capacity(SETUP_RESTARTS);
    let mut serving: Option<Serving> = None;
    for _ in 0..SETUP_RESTARTS {
        if let Some(old) = serving.take() {
            old.server.shutdown();
        }
        let _span = trace::span("setup", 0);
        let start = Instant::now();
        let server = Server::bind_tcp("127.0.0.1:0", server_config.clone()).expect("bind");
        let addr = server.local_addr().expect("tcp server has an address");
        let mut clients: Vec<Client> =
            (0..connections).map(|_| Client::connect_tcp(addr).expect("connect")).collect();
        let (registered, ms) =
            timed("server.register", 0, || clients[0].register(TENANT, &rule_refs));
        match registered {
            Ok((count, RegisterSource::Artifact)) if count == rules.len() => out.check(true),
            other => {
                out.error();
                out.note(format!("registration did not load the artifact: {other:?}"));
            }
        }
        for client in &mut clients {
            match client.matches_batch(TENANT, &haystacks(&requests[0])) {
                Ok(got) => out.check(got == expected[0]),
                Err(_) => out.error(),
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        register_ms.push(ms);
        serving = Some(Serving { server, addr });
    }
    let serving = serving.expect("at least one restart");
    out.set("setup_s", median(&setup_s));
    out.note(format!("set-up (cold restarts): {}", Summary::of(&setup_s).describe("s")));

    // Every reply of one pass over the stream equals the fresh compile's.
    {
        let mut client = Client::connect_tcp(serving.addr).expect("connect");
        for (request, want) in requests.iter().zip(&expected) {
            match client.matches_batch(TENANT, &haystacks(request)) {
                Ok(got) => out.check(&got == want),
                Err(_) => out.error(),
            }
        }
    }

    let clients = || -> Vec<Client> {
        (0..connections).map(|_| Client::connect_tcp(serving.addr).expect("connect")).collect()
    };
    // The end-to-end metrics come from one request in flight at a time,
    // sent back to back. With a queue (an open loop), an idle server to
    // wake (paced requests) or more busy threads than CPUs (the closed
    // loop), they followed the load on the shared host, not the server.
    let single = || [Client::connect_tcp(serving.addr).expect("connect")];
    if config.trace {
        let quarter = config.seconds / 4;
        let single = closed_loop(&mut single(), &requests, &expected, quarter, &mut out);
        // The open loop runs untraced: it reports latency from each
        // request's due time, with the backlog a stall leaves.
        trace::set_enabled(false);
        let open = open_loop(&mut clients(), &requests, &expected, quarter, &mut out);
        out.set("service.open_p50_ms", windowed_latency_ms(&open.ops, 50.0));
        out.set("service.open_p90_ms", windowed_latency_ms(&open.ops, 90.0));
        out.set("service.generator_late_p99_ms", percentile(&open.late_ms, 99.0));
        // Untraced and traced slices alternate, so machine drift stays out
        // of the tracing overhead.
        let slice_budget = config.seconds / 16;
        let mut closed: [ClosedResult; 2] = Default::default();
        for slice in 0..8 {
            let traced = slice % 2 == 1;
            trace::set_enabled(traced);
            let part = closed_loop(&mut clients(), &requests, &expected, slice_budget, &mut out);
            closed[usize::from(traced)].absorb(part);
        }
        trace::set_enabled(true);
        let spans = trace::snapshot();
        let rtt = trace::durations_ms(&spans, "server.rtt");
        replay_layers(&dir, &requests, median(&register_ms), &rtt, &mut out);
        let retries = single.retries + open.retries + closed[0].retries + closed[1].retries;
        out.set("server.retries", retries as f64);
        out.set("service.closed_mb_s", closed[0].mb_s());
        out.set("trace.overhead_pct", (closed[0].mb_s() / closed[1].mb_s() - 1.0) * 100.0);
        out.set("trace.unaccounted_pct", trace::unaccounted_pct(&spans, "service.closed"));
        out.samples = rtt.len();
    } else {
        let single = closed_loop(&mut single(), &requests, &expected, config.seconds, &mut out);
        let latencies: Vec<f64> = single.ops.iter().map(|op| op.latency_ms).collect();
        out.set("throughput_mb_s", windowed_mb_s(&single.ops));
        out.set("latency_p50_ms", windowed_latency_ms(&single.ops, 50.0));
        out.set("latency_p90_ms", windowed_latency_ms(&single.ops, 90.0));
        out.note(format!(
            "one connection, back to back: {}",
            Summary::of(&latencies).describe("ms")
        ));
        out.samples = single.ops.len();
    }
    serving.server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// One reply, checked: `Ok(true)` verdicts equal, `Ok(false)` wrong,
/// `Err(true)` a refusal, `Err(false)` another error.
fn send(
    client: &mut Client,
    request: &[Vec<u8>],
    want: &[Vec<u32>],
    id: u64,
) -> Result<bool, bool> {
    let _span = trace::span("server.rtt", id);
    match client.matches_batch(TENANT, &haystacks(request)) {
        Ok(got) => Ok(got == want),
        Err(ClientError::Retry(_)) => Err(true),
        Err(_) => Err(false),
    }
}

#[derive(Default)]
struct Tally {
    ok: u64,
    wrong: u64,
    errors: u64,
    retries: u64,
}

impl Tally {
    fn record(&mut self, result: Result<bool, bool>) {
        match result {
            Ok(true) => self.ok += 1,
            Ok(false) => self.wrong += 1,
            Err(refused) => {
                self.errors += 1;
                self.retries += u64::from(refused);
            }
        }
    }

    fn merge_into(&self, out: &mut Outcome) {
        out.attempted += self.ok + self.wrong + self.errors;
        out.failed += self.wrong + self.errors;
        out.wrong += self.wrong;
    }
}

struct OpenResult {
    ops: Vec<Op>,
    late_ms: Vec<f64>,
    retries: u64,
}

/// Sends request `k` at `start + k / OPEN_LOOP_RATE` for `budget`, over
/// the given connections (each carries one request at a time). Latency
/// runs from the due time to the reply.
fn open_loop(
    clients: &mut [Client],
    requests: &[Vec<Vec<u8>>],
    expected: &Expected,
    budget: Duration,
    out: &mut Outcome,
) -> OpenResult {
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let rx = Mutex::new(rx);
    let interval = Duration::from_secs_f64(1.0 / OPEN_LOOP_RATE);
    let mut late_ms = Vec::new();
    let start = Instant::now();
    let results: Vec<(Vec<Op>, Tally)> = std::thread::scope(|scope| {
        let senders: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let rx = &rx;
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    let mut tally = Tally::default();
                    loop {
                        let next = rx.lock().expect("request queue poisoned").recv();
                        let Ok((k, due)) = next else { break };
                        let r = k % requests.len();
                        tally.record(send(client, &requests[r], &expected[r], k as u64));
                        ops.push(Op {
                            end_s: start.elapsed().as_secs_f64(),
                            latency_ms: due.elapsed().as_secs_f64() * 1e3,
                            bytes: requests[r].iter().map(Vec::len).sum(),
                        });
                    }
                    (ops, tally)
                })
            })
            .collect();
        for k in 0.. {
            let offset = interval * k;
            if offset >= budget {
                break;
            }
            let due = start + offset;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            tx.send((k as usize, due)).expect("senders outlive the generator");
        }
        drop(tx);
        senders.into_iter().map(|s| s.join().expect("sender thread")).collect()
    });
    let mut all = Vec::new();
    let mut retries = 0;
    for (ops, tally) in results {
        all.extend(ops);
        retries += tally.retries;
        tally.merge_into(out);
    }
    OpenResult { ops: all, late_ms, retries }
}

#[derive(Default)]
struct ClosedResult {
    bytes: usize,
    wall: Duration,
    retries: u64,
    ops: Vec<Op>,
}

impl ClosedResult {
    fn mb_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.wall.as_secs_f64()
    }

    fn absorb(&mut self, other: ClosedResult) {
        self.bytes += other.bytes;
        self.ops.extend(other.ops);
        self.wall += other.wall;
        self.retries += other.retries;
    }
}

/// Every connection sends its next request as soon as the previous reply
/// arrives, until `budget` has passed.
fn closed_loop(
    clients: &mut [Client],
    requests: &[Vec<Vec<u8>>],
    expected: &Expected,
    budget: Duration,
    out: &mut Outcome,
) -> ClosedResult {
    let count = clients.len();
    let start = Instant::now();
    let results: Vec<(Vec<Op>, Tally)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let _root = trace::span("service.closed", c as u64);
                    let mut ops = Vec::new();
                    let mut tally = Tally::default();
                    let mut k = c;
                    while start.elapsed() < budget {
                        let r = k % requests.len();
                        let begin = Instant::now();
                        tally.record(send(client, &requests[r], &expected[r], k as u64));
                        ops.push(Op {
                            end_s: start.elapsed().as_secs_f64(),
                            latency_ms: begin.elapsed().as_secs_f64() * 1e3,
                            bytes: requests[r].iter().map(Vec::len).sum(),
                        });
                        k += count;
                    }
                    (ops, tally)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    let mut result = ClosedResult { wall: start.elapsed(), ..Default::default() };
    for (ops, tally) in results {
        result.bytes += ops.iter().map(|op| op.bytes).sum::<usize>();
        result.ops.extend(ops);
        result.retries += tally.retries;
        tally.merge_into(out);
    }
    result
}

/// Artifact load, register, and one request's codec and in-process scan,
/// next to the measured round trips.
fn replay_layers(
    dir: &Path,
    requests: &[Vec<Vec<u8>>],
    register_ms: f64,
    rtt_ms: &[f64],
    out: &mut Outcome,
) {
    let artifact: PathBuf = std::fs::read_dir(dir)
        .expect("artifact directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "sfa"))
        .expect("the priming registration wrote an artifact");
    let loads: Vec<(Regex, f64)> = (0..5)
        .map(|i| timed("serialize.load", i, || Regex::load_artifact(&artifact).expect("loads")))
        .collect();
    let load_ms: Vec<f64> = loads.iter().map(|(_, ms)| *ms).collect();
    let loaded = &loads[0].0;
    out.set("serialize.load_ms", median(&load_ms));
    out.set(
        "serialize.artifact_bytes",
        std::fs::metadata(&artifact).map(|m| m.len() as f64).unwrap_or(0.0),
    );
    out.set("server.register_ms", register_ms);

    let mut codec_us = Vec::with_capacity(requests.len());
    let mut scan_ms = Vec::with_capacity(requests.len());
    for (r, request) in requests.iter().enumerate() {
        let hay = haystacks(request);
        let (verdicts, ms) = timed("matcher.matches_batch", r as u64, || {
            loaded.try_matches_batch(&hay).expect("tracked namespace")
        });
        scan_ms.push(ms);
        let ids: Vec<Vec<u32>> =
            verdicts.iter().map(|m| m.iter().map(|id| id as u32).collect()).collect();
        codec_us
            .push(timed("server.codec", r as u64, || black_box(codec_round(&hay, &ids))).1 * 1e3);
    }
    let codec = median(&codec_us);
    let scan = median(&scan_ms);
    let rtt_p50 = median(rtt_ms);
    out.set("server.rtt_p50_ms", rtt_p50);
    out.set("server.rtt_p99_ms", percentile(rtt_ms, 99.0));
    out.set("server.codec_us", codec);
    out.set("server.scan_ms", scan);
    out.set("server.overhead_ms", rtt_p50 - codec / 1e3 - scan);
}

/// Encodes a match request and its reply the way client and server do,
/// and decodes both back. Returns the decoded haystack bytes.
fn codec_round(hay: &[&[u8]], ids: &[Vec<u32>]) -> usize {
    let mut request = PayloadWriter::new().bytes(TENANT.as_bytes()).u32(hay.len() as u32);
    for h in hay {
        request = request.bytes(h);
    }
    let frame = request.frame(OP_MATCH);
    let (_, body) = read_frame(&mut frame.as_slice()).expect("frame").expect("one frame");
    let mut reader = PayloadReader::new(&body);
    let mut decoded = reader.bytes().expect("tenant").len();
    for _ in 0..reader.u32().expect("count") {
        decoded += reader.bytes().expect("haystack").len();
    }
    let mut reply = PayloadWriter::new().u32(ids.len() as u32);
    for set in ids {
        reply = reply.u32(set.len() as u32);
        for &id in set {
            reply = reply.u32(id);
        }
    }
    let frame = reply.frame(STATUS_OK);
    let (_, body) = read_frame(&mut frame.as_slice()).expect("frame").expect("one frame");
    let mut reader = PayloadReader::new(&body);
    for _ in 0..reader.u32().expect("count") {
        for _ in 0..reader.u32().expect("ids") {
            decoded += reader.u32().expect("id") as usize;
        }
    }
    decoded
}
