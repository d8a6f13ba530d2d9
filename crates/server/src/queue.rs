//! Bounded admission with batch draining.
//!
//! Connection threads submit match jobs here; one dispatcher thread
//! drains *everything available* in one go, groups the jobs by tenant,
//! and issues a single batched scan per tenant — concurrent small
//! requests share the lockstep DFA batch walk instead of paying one
//! pool hand-off each.
//!
//! The queue is bounded and **never blocks the submitter**: when full,
//! [`Admission::submit`] refuses immediately so the connection can answer
//! with explicit `STATUS_RETRY` backpressure instead of stacking latency
//! invisibly. Closing the queue stops new admissions but lets the
//! dispatcher drain what was already accepted — the graceful half of
//! shutdown.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// One admitted match request: a tenant's haystacks plus the channel the
/// dispatcher answers on. The haystacks are byte ranges into the request
/// payload, which travels with the job — admission moves one buffer, it
/// never re-copies megabytes of haystack data.
pub(crate) struct Job {
    /// Tenant namespace the haystacks are matched under.
    pub tenant: String,
    /// The raw `MATCH` request payload the ranges index into.
    pub payload: Vec<u8>,
    /// The request's haystacks, in order, as ranges of `payload`.
    pub haystacks: Vec<std::ops::Range<usize>>,
    /// Where the per-haystack pattern-id lists (or an error) go.
    pub reply: std::sync::mpsc::Sender<Result<Vec<Vec<u32>>, sfa_matcher::Error>>,
}

impl Job {
    /// Haystack `i` of the request.
    pub fn haystack(&self, i: usize) -> &[u8] {
        &self.payload[self.haystacks[i].clone()]
    }
}

struct State {
    queue: VecDeque<Job>,
    open: bool,
}

/// The bounded admission queue (see module docs).
pub(crate) struct Admission {
    capacity: usize,
    state: Mutex<State>,
    ready: Condvar,
}

/// [`Admission::submit`] refusal: the queue was at capacity (or closed).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// At capacity — the client should retry after a delay.
    Full,
    /// Shutting down — the client should not retry here.
    Closed,
}

impl Admission {
    pub fn new(capacity: usize) -> Admission {
        Admission {
            capacity: capacity.max(1),
            state: Mutex::new(State { queue: VecDeque::new(), open: true }),
            ready: Condvar::new(),
        }
    }

    /// Admits a job, or refuses *immediately* — admission never blocks,
    /// so a full queue turns into wire-visible backpressure at once.
    pub fn submit(&self, job: Job) -> Result<(), Refusal> {
        let mut state = self.state.lock().unwrap();
        if !state.open {
            return Err(Refusal::Closed);
        }
        if state.queue.len() >= self.capacity {
            return Err(Refusal::Full);
        }
        state.queue.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until jobs are available, then drains **all** of them (the
    /// batch the dispatcher flattens per tenant). Returns `None` once the
    /// queue is closed *and* empty — the drain is complete and the
    /// dispatcher may exit.
    pub fn pop_batch(&self) -> Option<Vec<Job>> {
        let mut state = self.state.lock().unwrap();
        loop {
            if !state.queue.is_empty() {
                return Some(state.queue.drain(..).collect());
            }
            if !state.open {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    /// Stops admissions; already-accepted jobs remain for the dispatcher
    /// to drain.
    pub fn close(&self) {
        self.state.lock().unwrap().open = false;
        self.ready.notify_all();
    }

    /// Jobs currently waiting (for observability/tests).
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn job(tenant: &str) -> Job {
        // The receiver is dropped — these tests exercise admission, not
        // replies, and an unsendable channel is harmless here.
        let (reply, _) = mpsc::channel();
        let haystacks = std::iter::once(0..1).collect();
        Job { tenant: tenant.to_string(), payload: b"x".to_vec(), haystacks, reply }
    }

    #[test]
    fn refuses_immediately_when_full_and_drains_after_close() {
        let q = Admission::new(2);
        q.submit(job("a")).unwrap();
        q.submit(job("b")).unwrap();
        assert_eq!(q.submit(job("c")).unwrap_err(), Refusal::Full);
        assert_eq!(q.depth(), 2);

        q.close();
        assert_eq!(q.submit(job("d")).unwrap_err(), Refusal::Closed);
        // The accepted jobs still drain, then the queue reports done.
        let batch = q.pop_batch().expect("accepted jobs drain after close");
        assert_eq!(batch.len(), 2);
        assert!(q.pop_batch().is_none());
    }

    #[test]
    fn pop_batch_takes_everything_available() {
        let q = Admission::new(16);
        for i in 0..5 {
            q.submit(job(&format!("t{i}"))).unwrap();
        }
        assert_eq!(q.pop_batch().unwrap().len(), 5);
        assert_eq!(q.depth(), 0);
    }
}
