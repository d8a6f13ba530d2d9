//! Metric names, provenance and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints every end-to-end metric and a
//! traced run every per-layer metric, by these names and units.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("throughput_mb_s", "MB/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with tracing on. A layer
/// the workload never calls into reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("regex_syntax.parse_ms", "ms"),
    ("automata.nfa_ms", "ms"),
    ("automata.nfa_states", "count"),
    ("automata.determinize_ms", "ms"),
    ("automata.dfa_states", "count"),
    ("automata.minimize_ms", "ms"),
    ("automata.scan_ns_per_byte", "ns/B"),
    ("core.sfa_build_ms", "ms"),
    ("core.sfa_states", "count"),
    ("core.table_bytes", "B"),
    ("core.mapping_bytes", "B"),
    ("analysis.convergence_ms", "ms"),
    ("core.scan_ns_per_byte.gather.u16", "ns/B"),
    ("core.scan_ns_per_byte.gather.u8", "ns/B"),
    ("core.lanes_ns_per_byte.gather.u16", "ns/B"),
    ("core.lanes_ns_per_byte.gather.u8", "ns/B"),
    ("matcher.chunks", "count"),
    ("matcher.lanes", "count"),
    ("matcher.chunk_scan_ms", "ms"),
    ("matcher.reduce_us", "us"),
    ("matcher.dispatch_ms", "ms"),
    ("matcher.shard.pack_ms", "ms"),
    ("matcher.shard.shards", "count"),
    ("matcher.shard.gated", "count"),
    ("matcher.prefilter.find_ms", "ms"),
    ("matcher.prefilter.hit_share", "share"),
    ("matcher.shard.scan_ms", "ms"),
    ("matcher.batch_p50_ms", "ms"),
    ("matcher.batch_p99_ms", "ms"),
    ("serialize.load_ms", "ms"),
    ("serialize.artifact_bytes", "B"),
    ("server.register_ms", "ms"),
    ("server.rtt_p50_ms", "ms"),
    ("server.rtt_p99_ms", "ms"),
    ("server.codec_us", "us"),
    ("server.scan_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.retries", "count"),
    ("service.open_p50_ms", "ms"),
    ("service.open_p90_ms", "ms"),
    ("service.generator_late_p99_ms", "ms"),
    ("service.closed_mb_s", "MB/s"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: timed calls plus verdict checks.
    pub attempted: u64,
    /// Wrong verdicts, typed errors and refusals.
    pub failed: u64,
    /// Wrong verdicts alone (the `correct` flag).
    pub wrong: u64,
    /// Values by metric name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form report lines (per-subject details, sample counts).
    pub notes: Vec<String>,
    /// Timed operations behind the reported figures.
    pub samples: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_default() += value;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
        }
    }

    /// Counts one operation that failed without a verdict (a typed error
    /// or a refusal).
    pub fn error(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }
}

/// Where a result was measured.
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Provenance {
    pub fn json(&self, samples: usize) -> String {
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
                "\"samples\":{},\"nproc\":{},\"cpu_features\":\"{}\",\"simd\":{},",
                "\"rustc\":\"{}\"}}"
            ),
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            samples,
            nproc(),
            cpu_features(),
            cfg!(feature = "simd"),
            env!("PERFBENCH_RUSTC_VERSION"),
        )
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The scan-relevant CPU features present, `+`-joined.
pub fn cpu_features() -> String {
    let mut found: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    found.push($f);
                }
            )*};
        }
        probe!("sse4.2", "ssse3", "avx2", "bmi2", "avx512f", "avx512bw", "avx512vbmi");
    }
    if found.is_empty() {
        "none".to_string()
    } else {
        found.join("+")
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the human-readable report lines and, last, the result object.
/// Only the names of `table` are printed; a name the workload did not set
/// reports 0.
pub fn print(provenance: &Provenance, outcome: &Outcome, table: &[(&str, &str)]) {
    println!("# provenance {}", provenance.json(outcome.samples));
    for line in &outcome.notes {
        println!("# {line}");
    }
    let error_rate =
        if outcome.attempted == 0 { 0.0 } else { outcome.failed as f64 / outcome.attempted as f64 };
    println!(
        "# error_rate {error_rate} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("# {name} = {value} {unit}");
        metrics.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.wrong == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
}
