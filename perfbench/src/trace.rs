//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start and end (nanoseconds since the first span
//! of the process), the span that was open on the same thread when it
//! started, and a request id shared by the spans of one operation. Spans
//! are kept in memory while tracing is on and written out once, at exit.
//! With tracing off, [`span`] costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Closes its span when dropped.
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span named `name` for request `request`; it closes when the
/// returned guard drops.
pub fn span(name: &'static str, request: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { index: None };
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let index = {
        let mut spans = SPANS.lock().expect("span buffer poisoned");
        spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent, request });
        spans.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    Guard { index: Some(index) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end = now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        if let Ok(mut spans) = SPANS.lock() {
            spans[index].end_ns = end;
        }
    }
}

/// Every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().expect("span buffer poisoned").clone()
}

/// Per span name: (count, total ns, self ns). A span's self time is its
/// duration minus the durations of its children, which run nested and
/// one after another on the span's own thread.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += span.duration_ns().saturating_sub(children);
    }
    out
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
}

/// The share (percent) of the wall time of the spans named `root` that
/// none of their child spans covers.
pub fn unaccounted_pct(spans: &[Span], root: &str) -> f64 {
    let times = self_times(spans);
    match times.get(root) {
        Some(&(_, total, own)) if total > 0 => own as f64 / total as f64 * 100.0,
        _ => 0.0,
    }
}

/// Writes `header` (one JSON object) and then one JSON object per span,
/// one per line.
pub fn write(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

/// Runs `work` under a span and returns its result with its wall time in
/// milliseconds (measured whether or not tracing is on).
pub fn timed<T>(name: &'static str, request: u64, work: impl FnOnce() -> T) -> (T, f64) {
    let _span = span(name, request);
    let start = Instant::now();
    let out = work();
    (out, start.elapsed().as_secs_f64() * 1e3)
}
