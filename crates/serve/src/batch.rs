//! The compute queue and the dispatcher that keeps one job per in-flight
//! digest.
//!
//! The event loop owns a [`Dispatcher`].  Each admitted compute request —
//! an evaluation, a search or a design sweep — either rides the job already
//! in flight for its digest, or dispatches a [`Job`] of its own onto the
//! [`JobQueue`] (worker threads pop and run them through the report cache).
//! Distinct digests over one `(model, seed, sample_cap)` weight set need no
//! grouping here: [`crate::store::ModelStore`] generates each weight set
//! once and hands every concurrent job the same `Arc`.  A completion fans back out to every waiter: the trigger gets the
//! store outcome (`miss`/`disk`/…), riders get `coalesced`, and all of them
//! carry the dispatch's request count in the `X-Bitwave-Batch` header.
//!
//! A design sweep also posts each partial front into [`Completions`] while
//! it runs; the loop writes it to the waiters the dispatcher holds for the
//! sweep's digest at that moment.
//!
//! All dispatcher state is single-threaded (loop-owned, no locks); only
//! [`JobQueue`] and [`Completions`] cross threads.

use crate::api::{NormalizedRequest, NormalizedSearch};
use crate::cache::{CacheOp, CacheOutcome};
use bitwave::digest::Digest;
use bitwave_sweep::SweepConfig;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The computation behind one digest.
#[derive(Debug)]
pub(crate) enum JobKind {
    /// A `POST /v1/evaluate` miss.
    Evaluate(Box<NormalizedRequest>),
    /// A `POST /v1/search` miss.
    Search(Box<NormalizedSearch>),
    /// A `POST /v1/design` miss: the whole sweep.
    Design(Box<SweepConfig>),
}

impl JobKind {
    /// The cache op this computation lands in.
    pub(crate) fn op(&self) -> CacheOp {
        match self {
            JobKind::Evaluate(_) => CacheOp::Evaluate,
            JobKind::Search(_) => CacheOp::Search,
            JobKind::Design(_) => CacheOp::Design,
        }
    }
}

/// A unit of worker work: one digest's computation.
#[derive(Debug)]
pub(crate) struct Job {
    /// The cache address of the result.
    pub digest: Digest,
    /// What to compute.
    pub kind: JobKind,
}

/// A finished job, published by a worker.
pub(crate) struct JobDone {
    /// The cache address of the originating [`Job`].
    pub digest: Digest,
    /// The cache body and store outcome, or the computation's error.
    pub result: Result<(Arc<String>, CacheOutcome), String>,
}

/// MPMC queue of pending jobs.  Unbounded: admission control caps the
/// number of in-flight dispatches before anything is pushed here.
#[derive(Default)]
pub(crate) struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue").finish_non_exhaustive()
    }
}

impl JobQueue {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enqueues a job and wakes one worker.
    pub(crate) fn push(&self, job: Job) {
        self.lock().push_back(job);
        self.available.notify_one();
    }

    /// Blocks for the next job; `None` once shut down and drained.
    pub(crate) fn pop(&self, shutdown: &AtomicBool) -> Option<Job> {
        let mut jobs = self.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            jobs = self
                .available
                .wait(jobs)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Wakes every blocked worker (shutdown).
    pub(crate) fn notify_all(&self) {
        self.available.notify_all();
    }
}

/// One message from a worker to the event loop.
pub(crate) enum Completion {
    /// A partial-front NDJSON line (newline not included) of the design
    /// sweep running for `digest`.
    Frame {
        /// The cache address of the running sweep.
        digest: Digest,
        /// Serialized [`bitwave_sweep::PartialFront`].
        line: String,
    },
    /// A finished job.
    Done(JobDone),
}

/// Completion mailbox: workers push, the event loop drains after a wake.
/// One lock keeps a sweep's frames ahead of its completion.
#[derive(Default)]
pub(crate) struct Completions {
    mail: Mutex<Vec<Completion>>,
}

impl std::fmt::Debug for Completions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completions").finish_non_exhaustive()
    }
}

impl Completions {
    /// Publishes a frame or a finished job (callers wake the loop
    /// separately).
    pub(crate) fn push(&self, completion: Completion) {
        self.mail
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(completion);
    }

    /// Takes everything published so far, in publication order.
    pub(crate) fn drain(&self) -> Vec<Completion> {
        std::mem::take(
            &mut *self
                .mail
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// How [`Dispatcher::submit`] placed a request.
#[derive(Debug)]
pub(crate) enum Placement {
    /// A new job must be pushed onto the queue.
    Dispatch(Job),
    /// The digest was already in flight; the waiter rides along.
    Rider,
    /// Admission control refused: `max_inflight` digests are in flight.
    Shed,
}

/// One waiter's share of a completed dispatch.
pub(crate) struct Served<W> {
    /// The caller's waiter handle (connection token + response metadata).
    pub waiter: W,
    /// Which op namespace the digest belongs to (rider accounting).
    pub op: CacheOp,
    /// `X-Bitwave-Batch`: total requests this dispatch served.
    pub batch_size: usize,
    /// True for waiters that attached after the dispatch was created; they
    /// report `coalesced` and bump the store's coalesced counter.
    pub rider: bool,
    /// The cache body + outcome, or the computation error.
    pub result: Result<(Arc<String>, CacheOutcome), String>,
}

/// Loop-owned admission and rider bookkeeping, generic over the waiter type
/// so it unit-tests without sockets.
pub(crate) struct Dispatcher<W> {
    max_inflight: usize,
    /// In-flight digest → its op and waiters, each flagged `true` when it
    /// rode along (the trigger first, riders after).  Riders are free: only
    /// distinct digests consume a slot.
    inflight: HashMap<u128, (CacheOp, Vec<(W, bool)>)>,
}

impl<W> Dispatcher<W> {
    pub(crate) fn new(max_inflight: usize) -> Self {
        Self {
            max_inflight: max_inflight.max(1),
            inflight: HashMap::new(),
        }
    }

    /// Distinct digests currently in flight (the `inflight_depth` gauge).
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Places one cache-missing request.  `digest` must not be resolvable
    /// from the cache (the caller probes first).
    pub(crate) fn submit(&mut self, digest: Digest, kind: JobKind, waiter: W) -> Placement {
        if let Some((_, waiters)) = self.inflight.get_mut(&digest.raw()) {
            waiters.push((waiter, true));
            return Placement::Rider;
        }
        if self.inflight.len() >= self.max_inflight {
            return Placement::Shed;
        }
        self.inflight
            .insert(digest.raw(), (kind.op(), vec![(waiter, false)]));
        Placement::Dispatch(Job { digest, kind })
    }

    /// The waiters currently attached to `digest` (none once it completed).
    pub(crate) fn waiters(&self, digest: Digest) -> impl Iterator<Item = &W> {
        self.inflight
            .get(&digest.raw())
            .into_iter()
            .flat_map(|(_, waiters)| waiters.iter().map(|(waiter, _)| waiter))
    }

    /// Detaches the waiters of `digest` that `keep` rejects; the job stays
    /// in flight even when none is left.
    pub(crate) fn retain(&mut self, digest: Digest, mut keep: impl FnMut(&W) -> bool) {
        if let Some((_, waiters)) = self.inflight.get_mut(&digest.raw()) {
            waiters.retain(|(waiter, _)| keep(waiter));
        }
    }

    /// Unwinds one completed job into a response for every waiter.
    pub(crate) fn complete(&mut self, done: JobDone) -> Vec<Served<W>> {
        let Some((op, waiters)) = self.inflight.remove(&done.digest.raw()) else {
            return Vec::new(); // nothing waits on an unknown digest
        };
        let batch_size = waiters.len();
        waiters
            .into_iter()
            .map(|(waiter, rider)| Served {
                waiter,
                op,
                batch_size,
                rider,
                result: done.result.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::EvaluateRequest;

    fn kind(accelerator: &str, seed: u64) -> (Digest, JobKind) {
        let body = format!(
            r#"{{"model":"resnet18","accelerator":"{accelerator}","seed":{seed},"sample_cap":500}}"#
        );
        let normalized = EvaluateRequest::from_json(body.as_bytes())
            .unwrap()
            .normalize()
            .unwrap();
        let digest = normalized.key.digest().unwrap();
        (digest, JobKind::Evaluate(Box::new(normalized)))
    }

    fn design(seed: u64) -> (Digest, JobKind) {
        let config = SweepConfig {
            seed,
            ..SweepConfig::tiny()
        };
        let digest = Digest::of_bytes(format!("design:{}", config.digest().to_hex()).as_bytes());
        (digest, JobKind::Design(Box::new(config)))
    }

    fn done(digest: Digest) -> JobDone {
        JobDone {
            digest,
            result: Ok((Arc::new("body".to_string()), CacheOutcome::Miss)),
        }
    }

    #[test]
    fn identical_digests_ride_one_dispatch_and_fan_out() {
        let mut d: Dispatcher<&'static str> = Dispatcher::new(8);
        let (digest, k1) = kind("bitwave", 1);
        let (_, k2) = kind("bitwave", 1);
        let Placement::Dispatch(job) = d.submit(digest, k1, "trigger") else {
            panic!("first submit dispatches");
        };
        assert_eq!(job.digest, digest);
        assert!(matches!(d.submit(digest, k2, "rider"), Placement::Rider));
        assert_eq!(d.inflight(), 1, "riders are free");
        let served = d.complete(done(job.digest));
        assert_eq!(served.len(), 2);
        assert_eq!(served[0].waiter, "trigger");
        assert!(!served[0].rider);
        assert!(served[1].rider);
        assert!(served.iter().all(|s| s.batch_size == 2));
        assert_eq!(d.inflight(), 0);
    }

    #[test]
    fn distinct_digest_over_an_executing_weight_set_dispatches_at_once() {
        let mut d: Dispatcher<u32> = Dispatcher::new(8);
        let (d1, k1) = kind("bitwave", 1);
        let (d2, k2) = kind("stripes", 1); // same (model, seed, cap), new digest
        assert!(matches!(d.submit(d1, k1, 10), Placement::Dispatch(_)));
        let Placement::Dispatch(job) = d.submit(d2, k2, 20) else {
            panic!("a distinct digest dispatches at once, whatever its weight set");
        };
        assert_eq!(job.digest, d2);
        assert_eq!(d.inflight(), 2);
        let served = d.complete(done(d2));
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].batch_size, 1);
        assert_eq!(d.inflight(), 1);
    }

    #[test]
    fn different_seeds_dispatch_concurrently() {
        let mut d: Dispatcher<u32> = Dispatcher::new(8);
        let (d1, k1) = kind("bitwave", 1);
        let (d2, k2) = kind("bitwave", 2); // different weight set
        assert!(matches!(d.submit(d1, k1, 1), Placement::Dispatch(_)));
        assert!(matches!(d.submit(d2, k2, 2), Placement::Dispatch(_)));
        assert_eq!(d.inflight(), 2);
    }

    #[test]
    fn max_inflight_sheds_new_digests_but_not_riders() {
        let mut d: Dispatcher<u32> = Dispatcher::new(2);
        let (d1, k1) = kind("bitwave", 1);
        let (d2, k2) = kind("bitwave", 2);
        let (d3, k3) = kind("bitwave", 3);
        let (_, k1b) = kind("bitwave", 1);
        assert!(matches!(d.submit(d1, k1, 1), Placement::Dispatch(_)));
        assert!(matches!(d.submit(d2, k2, 2), Placement::Dispatch(_)));
        assert!(matches!(d.submit(d3, k3, 3), Placement::Shed));
        assert!(
            matches!(d.submit(d1, k1b, 4), Placement::Rider),
            "riders must be admitted even at the inflight cap"
        );
    }

    #[test]
    fn identical_design_digests_share_one_dispatch() {
        let mut d: Dispatcher<u32> = Dispatcher::new(8);
        let (digest, k1) = design(1);
        let (same, k2) = design(1);
        assert_eq!(digest, same);
        let Placement::Dispatch(job) = d.submit(digest, k1, 1) else {
            panic!("the first design request dispatches");
        };
        assert_eq!(job.kind.op(), CacheOp::Design);
        assert!(matches!(d.submit(digest, k2, 2), Placement::Rider));
        assert_eq!(d.inflight(), 1);
        assert_eq!(d.waiters(digest).copied().collect::<Vec<_>>(), [1, 2]);
        let served = d.complete(done(digest));
        assert_eq!(served.len(), 2);
        assert!(served.iter().all(|s| s.op == CacheOp::Design));
        assert_eq!(
            served.iter().map(|s| s.rider).collect::<Vec<_>>(),
            [false, true]
        );
        assert_eq!(d.waiters(digest).count(), 0, "no waiters after completion");
    }

    #[test]
    fn a_distinct_design_digest_is_shed_at_max_inflight() {
        let mut d: Dispatcher<u32> = Dispatcher::new(2);
        let (e1, k1) = kind("bitwave", 1);
        let (s1, k2) = design(1);
        let (s2, k3) = design(2);
        let (_, k2b) = design(1);
        assert!(matches!(d.submit(e1, k1, 1), Placement::Dispatch(_)));
        assert!(matches!(d.submit(s1, k2, 2), Placement::Dispatch(_)));
        assert!(matches!(d.submit(s2, k3, 3), Placement::Shed));
        assert!(matches!(d.submit(s1, k2b, 4), Placement::Rider));
        assert_eq!(d.inflight(), 2);
    }

    #[test]
    fn retained_waiters_keep_their_rider_flags() {
        let mut d: Dispatcher<u32> = Dispatcher::new(2);
        let (digest, k1) = design(1);
        let (_, k2) = design(1);
        let (_, k3) = design(1);
        assert!(matches!(d.submit(digest, k1, 1), Placement::Dispatch(_)));
        assert!(matches!(d.submit(digest, k2, 2), Placement::Rider));
        assert!(matches!(d.submit(digest, k3, 3), Placement::Rider));
        // The trigger's connection died mid-stream.
        d.retain(digest, |&w| w != 1);
        assert_eq!(d.inflight(), 1, "the job stays in flight");
        let served = d.complete(done(digest));
        assert_eq!(
            served
                .iter()
                .map(|s| (s.waiter, s.rider))
                .collect::<Vec<_>>(),
            [(2, true), (3, true)]
        );
        assert!(served.iter().all(|s| s.batch_size == 2));
    }
}
