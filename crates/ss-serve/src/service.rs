//! The in-process service: admission control, the worker pool, op
//! dispatch, and graceful drain.
//!
//! This is a concurrency containment module (see ss-lint's
//! `concurrency-containment` rule): the spawn/join lifecycle of the
//! worker pool is argued here, once. The synchronization story is small
//! on purpose — all blocking hand-off goes through one
//! [`BoundedQueue`] (whose close/drain contract is pinned by the
//! `queue_shutdown` stress suite in ss-pipeline), replies travel over
//! per-request `mpsc` channels, and everything else is atomics:
//!
//! * **Admission** is non-blocking. [`ServeHandle::submit_with_id`]
//!   uses [`BoundedQueue::try_push`]; a full queue is a typed
//!   [`ServeError::Overloaded`] with nothing enqueued, never a hang.
//!   Once the service is draining, work ops are refused with
//!   [`ServeError::Draining`] while stats/health/drain still answer —
//!   an operator can watch a drain complete.
//! * **Drain** means: flip the state flag (new work refused), close the
//!   queue (pending items stay poppable per the queue contract), join
//!   the workers. Every admitted request gets exactly one response —
//!   the fault-injection suite asserts zero loss and zero duplication.
//! * **Accounting** goes through a service-owned
//!   [`ss_trace::TraceRecorder`] (not the process-global slot, so tests
//!   and embedders never fight over `install`): serve counters plus
//!   per-op log2 latency histograms, exported by the stats op.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use shapeshifter::container::{self, ContainerError};
use shapeshifter::SchemeId;
use ss_core::{CodecConfig, CodecSession};
use ss_pipeline::{BoundedQueue, TryPushError};
use ss_store::{ModelStore, StorageProvider};
use ss_tensor::{FixedType, Tensor};
use ss_trace::{Counter, LatencyHist, TraceRecorder};

use crate::error::ServeError;
use crate::protocol::{Op, Status, DEFAULT_MAX_BODY};
use crate::wire;

/// Service state: accepting work.
const STATE_SERVING: u8 = 0;
/// Service state: draining — no new work, in-flight work completes.
const STATE_DRAINING: u8 = 1;

/// How a [`Service`] runs: codec settings, pool size, queue bound, and
/// the frame body cap.
///
/// `#[non_exhaustive]`: build with [`ServeConfig::new`] + `with_*`.
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Codec configuration every worker session is built from.
    pub codec: CodecConfig,
    /// Container scheme encode requests are packed with (resolved
    /// against the global [`shapeshifter::SchemeRegistry`] per request).
    pub container: SchemeId,
    /// Worker threads; 0 means follow `ss_core::par::thread_count()`
    /// (the `SS_THREADS` knob).
    pub workers: usize,
    /// Bounded submission-queue capacity (0 is treated as 1). Admission
    /// beyond this answers `Overloaded`.
    pub queue_depth: usize,
    /// Maximum SSRP frame body length accepted or produced. A get or
    /// decode whose answer would exceed it is refused with `BadRequest`
    /// before anything is decoded; the TCP writer refuses any other
    /// over-cap response the same way.
    pub max_body: usize,
}

impl ServeConfig {
    /// Defaults: default codec, ShapeShifter container, `SS_THREADS`
    /// workers, queue depth 64, 64 MiB body cap.
    #[must_use]
    pub fn new() -> Self {
        Self {
            codec: CodecConfig::new(),
            container: SchemeId::SHAPESHIFTER,
            workers: 0,
            queue_depth: 64,
            max_body: DEFAULT_MAX_BODY,
        }
    }

    /// Sets the codec configuration.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecConfig) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the container scheme for encode requests. Accepts any
    /// [`SchemeId`].
    #[must_use]
    pub fn with_container(mut self, container: impl Into<SchemeId>) -> Self {
        self.container = container.into();
        self
    }

    /// Sets the worker-pool size (0 follows `SS_THREADS`).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded submission-queue capacity.
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Sets the SSRP body cap.
    #[must_use]
    pub fn with_max_body(mut self, max_body: usize) -> Self {
        self.max_body = max_body;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One completed request: the echoed id, the op, a status, and the
/// result payload (`Ok`) or UTF-8 message (errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request id this response answers.
    pub request_id: u64,
    /// The op this response is for.
    pub op: Op,
    /// Outcome.
    pub status: Status,
    /// Result bytes (`Ok`) or a UTF-8 error message.
    pub payload: Vec<u8>,
}

impl Response {
    fn new(op: Op, request_id: u64, status: Status, payload: Vec<u8>) -> Self {
        Response {
            request_id,
            op,
            status,
            payload,
        }
    }

    fn err(op: Op, request_id: u64, status: Status, message: String) -> Self {
        Response::new(op, request_id, status, message.into_bytes())
    }

    /// The payload as a human-readable message (error responses carry
    /// UTF-8; anything else is rendered lossily).
    #[must_use]
    pub fn message(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }

    /// The payload of an `Ok` response, or the typed error the status
    /// maps to: `Overloaded`/`Draining` become their [`ServeError`]
    /// twins, everything else [`ServeError::Remote`].
    ///
    /// # Errors
    ///
    /// As described above for every non-`Ok` status.
    pub fn into_ok(self) -> Result<Vec<u8>, ServeError> {
        match self.status {
            Status::Ok => Ok(self.payload),
            Status::Overloaded => Err(ServeError::Overloaded),
            Status::Draining => Err(ServeError::Draining),
            status => Err(ServeError::Remote {
                status,
                message: String::from_utf8_lossy(&self.payload).into_owned(),
            }),
        }
    }
}

/// An admitted request's future response. Obtained from
/// [`ServeHandle::submit_with_id`]; consume with [`PendingReply::wait`].
#[derive(Debug)]
pub struct PendingReply {
    rx: mpsc::Receiver<Response>,
}

impl PendingReply {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerLost`] if the worker died before replying.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)
    }
}

/// One queued unit of work.
struct Job {
    request_id: u64,
    op: Op,
    body: Vec<u8>,
    reply: mpsc::Sender<Response>,
    enqueued: Instant,
}

/// Shared state between handles, workers, and the service owner.
struct ServeCore {
    queue: BoundedQueue<Job>,
    state: AtomicU8,
    trace: TraceRecorder,
    in_flight: AtomicU64,
    completed: AtomicU64,
    next_id: AtomicU64,
    workers: usize,
    max_body: usize,
}

impl ServeCore {
    fn draining(&self) -> bool {
        self.state.load(Ordering::SeqCst) != STATE_SERVING
    }

    /// Flips to draining (idempotent) and records how much admitted
    /// work was still in flight at that moment — the work the drain
    /// then flushes to completion.
    fn begin_drain(&self) {
        if self.state.swap(STATE_DRAINING, Ordering::SeqCst) == STATE_SERVING {
            self.trace.add(
                Counter::ServeDrainedInFlight,
                self.in_flight.load(Ordering::SeqCst),
            );
        }
    }

    fn handle_control(&self, op: Op, request_id: u64) -> Response {
        match op {
            Op::Stats => Response::new(op, request_id, Status::Ok, stats_json(self).into_bytes()),
            Op::Health => Response::new(op, request_id, Status::Ok, health_json(self).into_bytes()),
            Op::Drain => {
                self.begin_drain();
                Response::new(
                    op,
                    request_id,
                    Status::Ok,
                    b"{\"state\":\"draining\"}".to_vec(),
                )
            }
            // Work ops never reach handle_control.
            other => Response::err(
                other,
                request_id,
                Status::Internal,
                "work op routed to the control path".to_string(),
            ),
        }
    }
}

/// The summary [`Service::shutdown`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests answered over the service's lifetime (ok + error).
    pub completed: u64,
    /// Admitted requests that were still in flight when the drain began
    /// and were flushed to completion rather than dropped.
    pub drained_in_flight: u64,
    /// Deepest submission-queue occupancy ever observed.
    pub queue_high_water: usize,
}

/// A cloneable, thread-safe facade for submitting requests.
#[derive(Clone)]
pub struct ServeHandle {
    core: Arc<ServeCore>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("workers", &self.core.workers)
            .field("draining", &self.core.draining())
            .finish()
    }
}

impl ServeHandle {
    /// A fresh request id (unique within this service).
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.core.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The SSRP body cap this service enforces.
    #[must_use]
    pub fn max_body(&self) -> usize {
        self.core.max_body
    }

    /// The service-owned trace recorder (the server layer counts
    /// connection/byte traffic into it).
    #[must_use]
    pub fn trace(&self) -> &TraceRecorder {
        &self.core.trace
    }

    /// `true` once a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.core.draining()
    }

    /// Submits a request under a caller-chosen id.
    ///
    /// Control ops (stats/health/drain) are answered inline — they
    /// bypass the queue so observability keeps working under overload
    /// and during a drain. Work ops are admitted with a non-blocking
    /// push: this method never blocks on a full queue.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] (queue full), [`ServeError::Draining`]
    /// (drain begun), [`ServeError::Closed`] (service shut down). In all
    /// three cases nothing was enqueued.
    pub fn submit_with_id(
        &self,
        op: Op,
        request_id: u64,
        body: Vec<u8>,
    ) -> Result<PendingReply, ServeError> {
        let core = &self.core;
        core.trace.add(Counter::ServeRequests, 1);
        match op {
            Op::Stats | Op::Health | Op::Drain => {
                // ss-lint: allow(determinism) -- control-op latency accounting; reaches only the stats body, which is excluded from deterministic output
                let t0 = Instant::now();
                let response = core.handle_control(op, request_id);
                let hist = if op == Op::Stats {
                    LatencyHist::ServeStatsNanos
                } else {
                    LatencyHist::ServeControlNanos
                };
                core.trace.record_latency(hist, nanos_since(t0));
                core.trace.add(Counter::ServeResponsesOk, 1);
                core.completed.fetch_add(1, Ordering::SeqCst);
                let (tx, rx) = mpsc::channel();
                let _ = tx.send(response);
                Ok(PendingReply { rx })
            }
            Op::Encode | Op::Decode | Op::Get => {
                if core.draining() {
                    core.trace.add(Counter::ServeRejectedDraining, 1);
                    return Err(ServeError::Draining);
                }
                let (tx, rx) = mpsc::channel();
                let job = Job {
                    request_id,
                    op,
                    body,
                    reply: tx,
                    // ss-lint: allow(determinism) -- queue-entry timestamp for the latency histogram; never serialized deterministically
                    enqueued: Instant::now(),
                };
                // Count the job before a worker can see it: a worker may
                // pop, answer and decrement before `try_push` returns.
                core.in_flight.fetch_add(1, Ordering::SeqCst);
                let refused = match core.queue.try_push(job) {
                    Ok(()) => return Ok(PendingReply { rx }),
                    Err(refused) => refused,
                };
                core.in_flight.fetch_sub(1, Ordering::SeqCst);
                match refused {
                    TryPushError::Full(_) => {
                        core.trace.add(Counter::ServeOverloaded, 1);
                        Err(ServeError::Overloaded)
                    }
                    TryPushError::Closed(_) => {
                        core.trace.add(Counter::ServeRejectedDraining, 1);
                        Err(ServeError::Closed)
                    }
                }
            }
        }
    }

    /// Submits under a fresh id and returns the pending reply.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit_with_id`].
    pub fn submit(&self, op: Op, body: Vec<u8>) -> Result<PendingReply, ServeError> {
        self.submit_with_id(op, self.next_id(), body)
    }

    /// Submits and waits: one full request/response round trip.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit`], plus [`ServeError::WorkerLost`].
    pub fn call(&self, op: Op, body: Vec<u8>) -> Result<Response, ServeError> {
        // ss-lint: allow(lock-discipline) -- PendingReply::wait is a one-shot mpsc recv, not a condvar wait; there is no predicate to re-check
        self.submit(op, body)?.wait()
    }

    /// Encodes a tensor into an SSPK container on the worker pool.
    ///
    /// # Errors
    ///
    /// Admission errors as [`ServeHandle::submit`]; codec failures as
    /// [`ServeError::Remote`].
    pub fn encode(&self, tensor: &Tensor) -> Result<Vec<u8>, ServeError> {
        self.call(Op::Encode, wire::encode_tensor(tensor))?
            .into_ok()
    }

    /// Decodes an SSPK container back into a tensor.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::encode`], plus body-decode failures.
    pub fn decode(&self, packed: &[u8]) -> Result<Tensor, ServeError> {
        let payload = self.call(Op::Decode, packed.to_vec())?.into_ok()?;
        Ok(wire::decode_tensor(&payload)?)
    }

    /// Fetches one record from a registered model store.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::encode`]; unknown models/records surface as
    /// [`ServeError::Remote`] with [`Status::NotFound`].
    pub fn get(&self, model: &str, record: &str) -> Result<Tensor, ServeError> {
        let payload = self
            .call(Op::Get, wire::encode_get(model, record))?
            .into_ok()?;
        Ok(wire::decode_tensor(&payload)?)
    }

    /// The stats snapshot (JSON text).
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::call`].
    pub fn stats(&self) -> Result<String, ServeError> {
        let payload = self.call(Op::Stats, Vec::new())?.into_ok()?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// The health snapshot (JSON text).
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::call`].
    pub fn health(&self) -> Result<String, ServeError> {
        let payload = self.call(Op::Health, Vec::new())?.into_ok()?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Begins a graceful drain: new work ops are refused from this call
    /// on; in-flight work completes. Idempotent.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::call`].
    pub fn drain(&self) -> Result<(), ServeError> {
        self.call(Op::Drain, Vec::new())?.into_ok().map(|_| ())
    }
}

/// A provider a model is served from.
type ModelSource = (String, Arc<dyn StorageProvider + Send + Sync>);

/// The codec service: a worker pool draining one bounded queue.
///
/// Build with [`Service::new`], register models with
/// [`Service::add_model`], spawn the pool with [`Service::start`]
/// (tests deliberately delay this to make overload deterministic), and
/// end with [`Service::shutdown`] for a zero-loss drain.
pub struct Service {
    core: Arc<ServeCore>,
    models: Vec<ModelSource>,
    config: ServeConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.config)
            .field("models", &self.models.len())
            .field("started", &!self.workers.is_empty())
            .finish()
    }
}

impl Service {
    /// Builds an (unstarted) service, validating the codec
    /// configuration up front so workers cannot fail to construct their
    /// sessions later.
    ///
    /// # Errors
    ///
    /// [`ServeError::Codec`] for an invalid [`CodecConfig`].
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        config.codec.build()?;
        let workers = if config.workers == 0 {
            ss_core::par::thread_count()
        } else {
            config.workers
        }
        .max(1);
        Ok(Service {
            core: Arc::new(ServeCore {
                queue: BoundedQueue::new(config.queue_depth.max(1)),
                state: AtomicU8::new(STATE_SERVING),
                trace: TraceRecorder::new(),
                in_flight: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                next_id: AtomicU64::new(0),
                workers,
                max_body: config.max_body,
            }),
            models: Vec::new(),
            config,
            workers: Vec::new(),
        })
    }

    /// Registers a model for the get op: `name` is the model the store
    /// was written under, `provider` holds its shards. Call before
    /// [`Service::start`] — workers snapshot the registry when they
    /// spawn.
    pub fn add_model(&mut self, name: &str, provider: Arc<dyn StorageProvider + Send + Sync>) {
        self.models.push((name.to_string(), provider));
    }

    /// A cloneable submission facade.
    #[must_use]
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// Spawns the worker pool. Idempotent; requests submitted before
    /// `start` wait in the queue and are processed once workers exist.
    pub fn start(&mut self) {
        if !self.workers.is_empty() {
            return;
        }
        for i in 0..self.core.workers {
            let core = Arc::clone(&self.core);
            let config = self.config;
            let models = self.models.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("ss-serve-{i}"))
                .spawn(move || worker_main(&core, &config, &models));
            if let Ok(handle) = spawned {
                self.workers.push(handle);
            }
        }
    }

    /// Graceful shutdown: drain, close the queue, join the pool. Every
    /// admitted request is answered before this returns — the queue's
    /// close contract keeps pending items poppable, and workers exit
    /// only on a closed *and* empty queue.
    pub fn shutdown(mut self) -> DrainReport {
        self.core.begin_drain();
        self.core.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        DrainReport {
            completed: self.core.completed.load(Ordering::SeqCst),
            drained_in_flight: self.core.trace.counter(Counter::ServeDrainedInFlight),
            queue_high_water: self.core.queue.high_water(),
        }
    }
}

/// The latency histogram a work op reports into.
fn hist_for(op: Op) -> LatencyHist {
    match op {
        Op::Encode => LatencyHist::ServeEncodeNanos,
        Op::Decode => LatencyHist::ServeDecodeNanos,
        Op::Get => LatencyHist::ServeGetNanos,
        Op::Stats => LatencyHist::ServeStatsNanos,
        Op::Health | Op::Drain => LatencyHist::ServeControlNanos,
    }
}

/// Saturating nanoseconds since `t0`.
fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One worker: a reusable codec session and one open [`ModelStore`] per
/// registered model; loops until the queue closes and drains. Decoded
/// values never leave the scratch they were decoded into: the session's
/// for decode, each store's for get.
fn worker_main(core: &ServeCore, config: &ServeConfig, models: &[ModelSource]) {
    let Ok(mut session) = CodecSession::new(config.codec) else {
        // The config was validated in Service::new; if construction
        // fails anyway, close the queue so submitters see `Closed`
        // instead of hanging on replies that will never come.
        core.queue.close();
        return;
    };
    // Stores borrow their providers; both live on this worker's stack
    // for its whole life. A failed open is remembered and answered as
    // StoreFailure per request rather than killing the worker.
    let mut stores: Vec<(String, Result<ModelStore<'_>, String>)> = models
        .iter()
        .map(|(name, provider)| {
            let p: &dyn StorageProvider = provider.as_ref();
            (
                name.clone(),
                ModelStore::open(p, name).map_err(|e| e.to_string()),
            )
        })
        .collect();
    while let Some(job) = core.queue.pop() {
        let response = handle_job(&job, config, &mut session, &mut stores);
        let ok = response.status == Status::Ok;
        let hist = hist_for(job.op);
        let nanos = nanos_since(job.enqueued);
        // The requester may have given up (disconnected client); a dead
        // reply channel is its problem, not the worker's.
        let _ = job.reply.send(response);
        core.in_flight.fetch_sub(1, Ordering::SeqCst);
        core.completed.fetch_add(1, Ordering::SeqCst);
        core.trace.add(
            if ok {
                Counter::ServeResponsesOk
            } else {
                Counter::ServeResponsesErr
            },
            1,
        );
        core.trace.record_latency(hist, nanos);
    }
}

/// A work op's outcome: the `Ok` payload, or an error status and its
/// message.
type Outcome = Result<Vec<u8>, (Status, String)>;

/// Dispatches one work op to a status + payload.
fn handle_job(
    job: &Job,
    config: &ServeConfig,
    session: &mut CodecSession,
    stores: &mut [(String, Result<ModelStore<'_>, String>)],
) -> Response {
    let outcome = match job.op {
        Op::Encode => encode_op(&job.body, config),
        Op::Decode => decode_op(&job.body, session, config.max_body),
        Op::Get => get_op(&job.body, stores, config.max_body),
        // Control ops are answered inline at admission and never queued.
        Op::Stats | Op::Health | Op::Drain => Err((
            Status::Internal,
            "control op routed to a worker".to_string(),
        )),
    };
    match outcome {
        Ok(payload) => Response::new(job.op, job.request_id, Status::Ok, payload),
        Err((status, message)) => Response::err(job.op, job.request_id, status, message),
    }
}

/// Packs a wire tensor into an SSPK container under the configured
/// scheme, group size and index policy.
fn encode_op(body: &[u8], config: &ServeConfig) -> Outcome {
    let tensor = wire::decode_tensor(body).map_err(|e| (Status::BadRequest, e.to_string()))?;
    container::pack_with_policy(
        &tensor,
        config.codec.group_size,
        config.container,
        config.codec.index_policy,
    )
    .map_err(|e| (Status::CodecFailure, e.to_string()))
}

/// Decodes an SSPK container into the worker session's scratch and
/// answers the wire tensor, after checking its size against the cap.
fn decode_op(body: &[u8], session: &mut CodecSession, max_body: usize) -> Outcome {
    // Framing problems are the client's fault; stream/tensor failures are
    // the codec refusing corrupt payload.
    let refused = |e: ContainerError| {
        let status = match e {
            ContainerError::BadMagic
            | ContainerError::UnsupportedVersion(_)
            | ContainerError::Malformed(_)
            | ContainerError::LengthOverflow { .. } => Status::BadRequest,
            _ => Status::CodecFailure,
        };
        (status, e.to_string())
    };
    let info = container::info(body).map_err(refused)?;
    check_body_cap(info.dtype, info.len, max_body)?;
    let (dtype, values) = container::unpack_values(body, session).map_err(refused)?;
    Ok(wire::encode_values(dtype, &[values.len()], values))
}

/// Decodes a stored record into its store's scratch and answers the
/// wire tensor, after checking its size against the cap.
fn get_op(
    body: &[u8],
    stores: &mut [(String, Result<ModelStore<'_>, String>)],
    max_body: usize,
) -> Outcome {
    let (model, record) =
        wire::decode_get(body).map_err(|e| (Status::BadRequest, e.to_string()))?;
    // Linear search: the registry is tiny and ordered, and a map here
    // would put hash iteration in hot code.
    let store = match stores.iter_mut().find(|(name, _)| *name == model) {
        None => {
            return Err((
                Status::NotFound,
                format!("model {model:?} is not registered"),
            ))
        }
        Some((_, Err(why))) => {
            return Err((
                Status::StoreFailure,
                format!("model {model:?} failed to open: {why}"),
            ))
        }
        Some((_, Ok(store))) => store,
    };
    let Some(entry) = store.entry(&record) else {
        return Err((
            Status::NotFound,
            format!("record {record:?} not found in model {model:?}"),
        ));
    };
    check_body_cap(entry.meta.dtype, entry.meta.values, max_body)?;
    let (dtype, values) = store
        .get_values(&record)
        .map_err(|e| (Status::StoreFailure, e.to_string()))?;
    Ok(wire::encode_values(dtype, &[values.len()], values))
}

/// Refuses, before anything is decoded, an `Ok` answer whose frame body
/// — the status byte and a flat wire tensor of `values` elements of
/// `dtype` — would exceed the body cap.
fn check_body_cap(dtype: FixedType, values: u64, max_body: usize) -> Result<(), (Status, String)> {
    let body = wire::tensor_body_len(dtype, 1, values).saturating_add(1);
    if body > u64::try_from(max_body).unwrap_or(u64::MAX) {
        return Err((
            Status::BadRequest,
            format!("response body of {body} bytes would exceed the {max_body}-byte cap"),
        ));
    }
    Ok(())
}

/// The stats op body: service gauges, every `serve_*` counter, and the
/// per-op latency histograms' percentile summaries. Integer-only and
/// fixed key order; still *live* data (counter values change between
/// calls), so benches exclude stats bodies from determinism hashes.
fn stats_json(core: &ServeCore) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":\"ss-serve-stats-v1\"");
    let _ = write!(
        out,
        ",\"state\":\"{}\"",
        if core.draining() {
            "draining"
        } else {
            "serving"
        }
    );
    let _ = write!(out, ",\"workers\":{}", core.workers);
    let _ = write!(
        out,
        ",\"queue\":{{\"capacity\":{},\"len\":{},\"high_water\":{}}}",
        core.queue.capacity(),
        core.queue.len(),
        core.queue.high_water()
    );
    let _ = write!(
        out,
        ",\"in_flight\":{}",
        core.in_flight.load(Ordering::SeqCst)
    );
    let _ = write!(
        out,
        ",\"completed\":{}",
        core.completed.load(Ordering::SeqCst)
    );
    out.push_str(",\"counters\":{");
    let mut first = true;
    for &c in Counter::ALL {
        if !c.name().starts_with("serve_") {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", c.name(), core.trace.counter(c));
    }
    out.push_str("},\"latency_ns\":{");
    for (i, &h) in LatencyHist::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let counts = core.trace.latency(h);
        let _ = write!(
            out,
            "\"{}\":{{\"total\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
            h.name(),
            counts.total(),
            counts.p50().unwrap_or(0),
            counts.p99().unwrap_or(0),
            counts.p999().unwrap_or(0)
        );
    }
    out.push_str("}}");
    out
}

/// The health op body: liveness plus drain state, small enough for a
/// poll loop.
fn health_json(core: &ServeCore) -> String {
    format!(
        "{{\"schema\":\"ss-serve-health-v1\",\"state\":\"{}\",\"in_flight\":{},\"queue_len\":{}}}",
        if core.draining() {
            "draining"
        } else {
            "serving"
        },
        core.in_flight.load(Ordering::SeqCst),
        core.queue.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_store::{MemoryProvider, ModelWriter};
    use ss_tensor::Shape;

    fn tensor(seed: i32) -> Tensor {
        let vals = (0..96).map(|v| ((v * 7 + seed) % 19) - 9).collect();
        Tensor::from_vec(Shape::flat(96), FixedType::I16, vals).expect("valid tensor")
    }

    #[test]
    fn encode_decode_get_round_trip_in_process() {
        let provider = Arc::new(MemoryProvider::new());
        let mut writer = ModelWriter::new(provider.as_ref(), "tiny");
        let stored = tensor(3);
        writer
            .append_tensor("fc.weight", 0, &stored)
            .expect("append");
        writer.finish().expect("finish");

        let mut service =
            Service::new(ServeConfig::new().with_workers(2).with_queue_depth(8)).expect("service");
        service.add_model("tiny", provider);
        service.start();
        let handle = service.handle();

        let t = tensor(1);
        let packed = handle.encode(&t).expect("encode");
        assert_eq!(handle.decode(&packed).expect("decode"), t);
        assert_eq!(handle.get("tiny", "fc.weight").expect("get"), stored);

        // Typed remote errors.
        match handle.get("tiny", "absent") {
            Err(ServeError::Remote { status, .. }) => assert_eq!(status, Status::NotFound),
            other => panic!("expected NotFound, got {other:?}"),
        }
        match handle.get("ghost", "fc.weight") {
            Err(ServeError::Remote { status, .. }) => assert_eq!(status, Status::NotFound),
            other => panic!("expected NotFound, got {other:?}"),
        }
        match handle.decode(b"not a container") {
            Err(ServeError::Remote { status, .. }) => assert_eq!(status, Status::BadRequest),
            other => panic!("expected BadRequest, got {other:?}"),
        }

        let stats = handle.stats().expect("stats");
        assert!(stats.contains("\"serve_responses_ok\""));
        assert!(stats.contains("\"serve_encode_nanos\""));
        let report = service.shutdown();
        assert!(report.completed >= 6);
    }

    #[test]
    fn body_caps_are_exact_for_8_and_16_bit_containers() {
        // 100 values answer in a 1 + 3 + 4 + 100 = 108-byte body at 8
        // bits and a 208-byte one at 16: a cap of exactly that size
        // serves the get and the decode, one byte less refuses both.
        for (dtype, body) in [(FixedType::I8, 108), (FixedType::U16, 208)] {
            let vals = (0..100).map(|v| (v * 37) % 127).collect();
            let t = Tensor::from_vec(Shape::flat(100), dtype, vals).expect("tensor");
            let packed = container::pack(&t, 16).expect("pack");
            let provider = Arc::new(MemoryProvider::new());
            let mut writer = ModelWriter::new(provider.as_ref(), "m");
            writer.append_tensor("r", 0, &t).expect("append");
            writer.finish().expect("finish");
            for cap in [body, body - 1] {
                let config = ServeConfig::new().with_workers(1).with_max_body(cap);
                let mut service = Service::new(config).expect("service");
                service.add_model("m", Arc::clone(&provider) as _);
                service.start();
                let handle = service.handle();
                for answer in [handle.get("m", "r"), handle.decode(&packed)] {
                    match answer {
                        Ok(back) if cap == body => assert_eq!(back, t, "{dtype}"),
                        Err(ServeError::Remote { status, message }) if cap < body => {
                            assert_eq!(status, Status::BadRequest);
                            let sizes = format!("{body} bytes would exceed the {cap}-byte cap");
                            assert!(message.contains(&sizes), "{dtype}: {message}");
                        }
                        other => panic!("{dtype} under a {cap}-byte cap: {other:?}"),
                    }
                }
                service.shutdown();
            }
        }
    }

    #[test]
    fn encode_packs_under_the_configured_index_policy() {
        // 100 000 values span two 65 536-value chunks, so `Auto` would
        // index them into a v2 container; `None` must answer v1.
        let vals = (0..100_000).map(|v| (v % 251) - 125).collect();
        let t = Tensor::from_vec(Shape::flat(100_000), FixedType::I16, vals).expect("tensor");
        let codec = CodecConfig::new().with_index_policy(ss_core::IndexPolicy::None);
        let mut service =
            Service::new(ServeConfig::new().with_workers(1).with_codec(codec)).expect("service");
        service.start();
        let handle = service.handle();
        let packed = handle.encode(&t).expect("encode");
        assert_eq!(container::info(&packed).expect("info").version, 1);
        assert_eq!(
            packed,
            container::pack_with_policy(
                &t,
                codec.group_size,
                SchemeId::SHAPESHIFTER,
                codec.index_policy
            )
            .expect("pack")
        );
        assert_eq!(handle.decode(&packed).expect("decode"), t);
        service.shutdown();
    }

    #[test]
    fn plugin_schemes_serve_round_trips() {
        // A service configured for a registry scheme (DPRed, AdaBits)
        // packs encode responses under that wire id; decode resolves the
        // id from the container header, so the same service decodes any
        // registered scheme's containers.
        for scheme in [SchemeId::DPRED, SchemeId::ADABITS] {
            let mut service = Service::new(
                ServeConfig::new()
                    .with_container(scheme)
                    .with_workers(2)
                    .with_queue_depth(8),
            )
            .expect("service");
            service.start();
            let handle = service.handle();
            let t = tensor(7);
            let packed = handle.encode(&t).expect("encode");
            assert_eq!(
                shapeshifter::container::info(&packed).expect("info").scheme,
                scheme
            );
            assert_eq!(handle.decode(&packed).expect("decode"), t);
            service.shutdown();
        }
    }

    #[test]
    fn unregistered_scheme_id_is_a_typed_codec_failure() {
        // An encode-side config holding an unregistered id must answer
        // CodecFailure per request, never panic a worker.
        let mut service = Service::new(
            ServeConfig::new()
                .with_container(SchemeId::new(77))
                .with_workers(1),
        )
        .expect("service");
        service.start();
        let handle = service.handle();
        match handle.encode(&tensor(2)) {
            Err(ServeError::Remote { status, .. }) => {
                assert_eq!(status, Status::CodecFailure);
            }
            other => panic!("expected CodecFailure, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn overload_is_typed_and_deterministic_before_start() {
        // No workers yet: the queue fills exactly to capacity, then
        // every further submission is a typed Overloaded.
        let service =
            Service::new(ServeConfig::new().with_workers(1).with_queue_depth(2)).expect("service");
        let handle = service.handle();
        let t = tensor(5);
        let a = handle
            .submit(Op::Encode, wire::encode_tensor(&t))
            .expect("first fits");
        let b = handle
            .submit(Op::Encode, wire::encode_tensor(&t))
            .expect("second fits");
        for _ in 0..3 {
            assert!(matches!(
                handle.submit(Op::Encode, wire::encode_tensor(&t)),
                Err(ServeError::Overloaded)
            ));
        }
        // Control ops still answer while the queue is full.
        assert!(handle.health().expect("health").contains("serving"));
        // Start the pool: the queued work completes correctly.
        let mut service = service;
        service.start();
        assert!(a.wait().expect("reply a").into_ok().is_ok());
        assert!(b.wait().expect("reply b").into_ok().is_ok());
        let report = service.shutdown();
        assert_eq!(report.completed, 3, "two encodes + one health");
    }

    #[test]
    fn drain_refuses_new_work_but_flushes_queued_work() {
        let service =
            Service::new(ServeConfig::new().with_workers(2).with_queue_depth(16)).expect("service");
        let handle = service.handle();
        let pending: Vec<PendingReply> = (0..10)
            .map(|i| {
                handle
                    .submit(Op::Encode, wire::encode_tensor(&tensor(i)))
                    .expect("admitted")
            })
            .collect();
        handle.drain().expect("drain");
        assert!(handle.is_draining());
        assert!(matches!(
            handle.submit(Op::Encode, wire::encode_tensor(&tensor(0))),
            Err(ServeError::Draining)
        ));
        // Stats/health still answer during the drain.
        assert!(handle.stats().expect("stats").contains("draining"));
        let mut service = service;
        service.start();
        for reply in pending {
            assert!(reply.wait().expect("flushed").into_ok().is_ok());
        }
        let report = service.shutdown();
        assert_eq!(report.drained_in_flight, 10);
        assert!(report.completed >= 10);
    }

    #[test]
    fn shutdown_answers_submissions_with_closed() {
        let service = Service::new(ServeConfig::new().with_workers(1)).expect("service");
        let handle = service.handle();
        let report = service.shutdown();
        assert_eq!(report.completed, 0);
        assert!(matches!(
            handle.submit(Op::Encode, Vec::new()),
            Err(ServeError::Draining) | Err(ServeError::Closed)
        ));
    }

    #[test]
    fn stats_json_is_parseable_shape() {
        let service = Service::new(ServeConfig::new().with_workers(1)).expect("service");
        let handle = service.handle();
        let stats = handle.stats().expect("stats");
        for key in [
            "\"schema\":\"ss-serve-stats-v1\"",
            "\"queue\":{\"capacity\":",
            "\"serve_requests\":",
            "\"serve_overloaded\":",
            "\"latency_ns\":{",
            "\"p999\":",
        ] {
            assert!(stats.contains(key), "missing {key} in {stats}");
        }
        let health = handle.health().expect("health");
        assert!(health.contains("\"schema\":\"ss-serve-health-v1\""));
        drop(handle);
        let _ = service.shutdown();
    }
}
