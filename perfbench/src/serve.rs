//! The serve stack under test (ss-store model, ss-serve service and TCP
//! server) and the open-loop load generator that drives it.

use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shapeshifter::container;
use ss_pipeline::fnv1a_64;
use ss_serve::protocol::DEFAULT_MAX_BODY;
use ss_serve::{wire, DrainReport, Frame, Kind, Op, ServeConfig, Server, Service, Status};
use ss_store::{MemoryProvider, ModelStore, ModelWriter};

use crate::inputs::Inputs;
use crate::report::Tally;
use crate::schedule::Arrival;
use crate::trace::SpanBuf;

/// The model name the store is written under.
pub const MODEL: &str = "bench";

/// Service queue depth: deeper than one connection can fill
/// (`MAX_CLIENT_IN_FLIGHT`), so a backlog shows as lateness and latency,
/// never as `Overloaded`.
pub const QUEUE_DEPTH: usize = 256;

/// How long the receiver waits for one response before the run fails.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Folds `word` into a running response hash (FNV-1a over both words).
#[must_use]
pub fn chain(hash: u64, word: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&hash.to_le_bytes());
    bytes[8..].copy_from_slice(&word.to_le_bytes());
    fnv1a_64(&bytes)
}

/// One request the generator can send, with its expected answer.
#[derive(Debug, Clone)]
pub struct Template {
    /// The operation.
    pub op: Op,
    /// Request body.
    pub body: Vec<u8>,
    /// The exact `Ok` response payload a correct server returns.
    pub expected: Vec<u8>,
    /// FNV-1a of `expected`.
    pub digest: u64,
    /// Tensor values the request carries.
    pub values: usize,
}

impl Template {
    fn new(op: Op, body: Vec<u8>, expected: Vec<u8>, values: usize) -> Self {
        let digest = fnv1a_64(&expected);
        Self {
            op,
            body,
            expected,
            digest,
            values,
        }
    }
}

/// The request templates of one input set for the operations asked
/// for, with the answers computed ahead of time and independently of
/// the server.
#[derive(Debug, Clone)]
pub struct Templates {
    /// Per tensor: `encode`, answered by the SSPK container
    /// `container::pack_with_scheme` makes (empty unless asked for).
    pub encode: Vec<Template>,
    /// Per tensor: `decode` of that container, answered by the tensor
    /// (empty unless asked for).
    pub decode: Vec<Template>,
    /// Per tensor: `get` of its record, answered by the tensor (empty
    /// unless asked for).
    pub get: Vec<Template>,
    /// Per tensor: its SSPK container.
    pub packed: Vec<Vec<u8>>,
    /// Values across every tensor.
    pub values: usize,
}

impl Templates {
    /// Builds the templates of `ops` for `inputs`.
    ///
    /// # Errors
    ///
    /// A message if a tensor cannot be packed.
    pub fn build(inputs: &Inputs, ops: &[Op]) -> Result<Self, String> {
        let group_size = ServeConfig::new().codec.group_size;
        let scheme = ServeConfig::new().container;
        let mut out = Templates {
            encode: Vec::new(),
            decode: Vec::new(),
            get: Vec::new(),
            packed: Vec::new(),
            values: inputs.values(),
        };
        for (name, t) in inputs.names.iter().zip(&inputs.tensors) {
            let packed = container::pack_with_scheme(t, group_size, scheme)
                .map_err(|e| format!("pack {name}: {e}"))?;
            let raw = wire::encode_tensor(t);
            for op in ops {
                let (list, body, expected) = match op {
                    Op::Encode => (&mut out.encode, raw.clone(), packed.clone()),
                    Op::Decode => (&mut out.decode, packed.clone(), raw.clone()),
                    Op::Get => (&mut out.get, wire::encode_get(MODEL, name), raw.clone()),
                    other => return Err(format!("no template for control op {other:?}")),
                };
                list.push(Template::new(*op, body, expected, t.len()));
            }
            out.packed.push(packed);
        }
        Ok(out)
    }

    /// Every template built, `encode` first, then `decode`, then `get`.
    pub fn requests(&self) -> impl Iterator<Item = &Template> {
        self.encode.iter().chain(&self.decode).chain(&self.get)
    }

    /// Stored bits per value: SSPK container bits over tensor values.
    #[must_use]
    pub fn stored_bits_per_value(&self) -> f64 {
        let bytes: usize = self.packed.iter().map(Vec::len).sum();
        bytes as f64 * 8.0 / self.values.max(1) as f64
    }
}

/// A running serve stack: the model store, the service, its TCP server
/// and one client connection.
pub struct Stack {
    /// The store's backing provider.
    pub provider: Arc<MemoryProvider>,
    /// The service (workers = the configured count).
    pub service: Service,
    /// The TCP front door.
    pub server: Server,
    /// The benchmark's connection.
    pub stream: TcpStream,
}

impl Stack {
    /// Writes `inputs` as a model with `ModelWriter`, opens it with
    /// `ModelStore::open`, starts the service and server, connects, and
    /// answers one `get` from `templates` (the system is up once it
    /// serves a request).
    ///
    /// # Errors
    ///
    /// A message naming the step that failed.
    pub fn bring_up(
        inputs: &Inputs,
        templates: &Templates,
        workers: usize,
    ) -> Result<Self, String> {
        let provider = Arc::new(MemoryProvider::new());
        let mut writer = ModelWriter::new(provider.as_ref(), MODEL);
        for (i, (name, t)) in inputs.names.iter().zip(&inputs.tensors).enumerate() {
            writer
                .append_tensor(name, i as u32, t)
                .map_err(|e| format!("append {name}: {e}"))?;
        }
        writer.finish().map_err(|e| format!("finish model: {e}"))?;
        let store = ModelStore::open(provider.as_ref(), MODEL).map_err(|e| format!("open: {e}"))?;
        if store.len() != inputs.tensors.len() {
            return Err(format!(
                "store holds {} records, wrote {}",
                store.len(),
                inputs.tensors.len()
            ));
        }
        drop(store);
        let mut service = Service::new(
            ServeConfig::new()
                .with_workers(workers)
                .with_queue_depth(QUEUE_DEPTH),
        )
        .map_err(|e| format!("service: {e}"))?;
        service.add_model(MODEL, Arc::clone(&provider) as _);
        service.start();
        let server =
            Server::start(service.handle(), "127.0.0.1:0").map_err(|e| format!("server: {e}"))?;
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("timeout: {e}"))?;
        let mut stack = Stack {
            provider,
            service,
            server,
            stream,
        };
        let smallest = (0..templates.get.len())
            .min_by_key(|&i| templates.get[i].values)
            .ok_or("no records")?;
        let t = &templates.get[smallest];
        if stack.call(t.op, &t.body, 0)? != t.expected {
            return Err("warm-up get answered wrongly".to_string());
        }
        Ok(stack)
    }

    /// One serial request/response over the benchmark's connection,
    /// returning the `Ok` payload.
    ///
    /// # Errors
    ///
    /// A message for an IO, framing, pairing or status failure.
    pub fn call(&mut self, op: Op, body: &[u8], id: u64) -> Result<Vec<u8>, String> {
        Frame::request(op, id, body.to_vec())
            .write_to(&mut self.stream)
            .map_err(|e| format!("send: {e}"))?;
        let frame = Frame::read_from(&mut self.stream, DEFAULT_MAX_BODY)
            .map_err(|e| format!("recv: {e}"))?;
        match frame.body.split_first() {
            Some((&s, payload))
                if frame.kind == Kind::Response(op)
                    && frame.request_id == id
                    && s == Status::Ok.to_byte() =>
            {
                Ok(payload.to_vec())
            }
            _ => Err(format!("bad response to {op:?} id {id}")),
        }
    }

    /// Closes the connection, stops the server and drains the service.
    pub fn tear_down(self) -> DrainReport {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.server.stop();
        self.service.shutdown()
    }
}

/// What one open-loop phase measured.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Latency of every correctly answered request, from when it was due
    /// to when its response had been read, in ms.
    pub latencies_ms: Vec<f64>,
    /// The template index of each entry of `latencies_ms`.
    pub picks: Vec<usize>,
    /// How late the sender wrote each request against its due time, ms.
    pub late_ms: Vec<f64>,
    /// Attempted, failed and wrong requests.
    pub tally: Tally,
    /// Chained hash of every response in submission order.
    pub hash: u64,
    /// From the phase start to the last response, seconds.
    pub elapsed_s: f64,
    /// Sender and receiver spans (empty unless traced).
    pub spans: [SpanBuf; 2],
}

/// Runs `schedule` against the server on `stream`: a sender thread
/// writes each `get` when it is due with `Frame::write_to`, and a
/// receiver thread reads the responses (FIFO per connection) with
/// `Frame::read_from` and checks each against its template in
/// `templates.get`.
///
/// # Panics
///
/// If a stream cannot be cloned or a thread panics.
#[must_use]
pub fn run_load(
    stream: &TcpStream,
    schedule: &[Arrival],
    templates: &Templates,
    traced: bool,
    epoch: Instant,
    id_base: u64,
) -> LoadOutcome {
    let mut tx = stream
        .try_clone()
        .expect("clone the client stream for the sender");
    let mut rx = stream
        .try_clone()
        .expect("clone the client stream for the receiver");
    let start = Instant::now() + Duration::from_millis(2);
    let due = |a: &Arrival| start + Duration::from_nanos(a.due_ns);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut spans = SpanBuf::new(epoch, 1, traced);
            let mut late_ms = Vec::with_capacity(schedule.len());
            for (i, a) in schedule.iter().enumerate() {
                let due_at = due(a);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let t0 = Instant::now();
                late_ms.push(ms(t0.saturating_duration_since(due_at)));
                let t = &templates.get[a.pick];
                let id = id_base + i as u64;
                if Frame::request(Op::Get, id, t.body.clone())
                    .write_to(&mut tx)
                    .is_err()
                {
                    break;
                }
                spans.record("loadgen.send", t0, Instant::now(), None, id);
            }
            (late_ms, spans)
        });

        let receiver = scope.spawn(move || {
            let mut spans = SpanBuf::new(epoch, 2, traced);
            let mut latencies_ms = Vec::with_capacity(schedule.len());
            let mut picks = Vec::with_capacity(schedule.len());
            let mut tally = Tally {
                attempted: schedule.len() as u64,
                ..Tally::default()
            };
            let mut hash = 0;
            let mut last = start;
            for (i, a) in schedule.iter().enumerate() {
                let id = id_base + i as u64;
                let t0 = Instant::now();
                let Ok(frame) = Frame::read_from(&mut rx, DEFAULT_MAX_BODY) else {
                    // The connection failed: nothing after this is answered.
                    tally.failed += (schedule.len() - i) as u64;
                    tally.wrong += (schedule.len() - i) as u64;
                    break;
                };
                let t1 = Instant::now();
                last = t1;
                let t = &templates.get[a.pick];
                let status = frame.body.first().copied().and_then(Status::from_byte);
                let paired = frame.kind == Kind::Response(Op::Get) && frame.request_id == id;
                hash = chain(hash, id);
                match status {
                    Some(Status::Ok) if paired && frame.body[1..] == t.expected[..] => {
                        latencies_ms.push(ms(t1 - due(a)));
                        picks.push(a.pick);
                        hash = chain(hash, t.digest);
                    }
                    Some(Status::Overloaded | Status::Draining) if paired => {
                        tally.failed += 1;
                        hash = chain(hash, fnv1a_64(&frame.body));
                    }
                    _ => {
                        tally.failed += 1;
                        tally.wrong += 1;
                        hash = chain(hash, fnv1a_64(&frame.body));
                    }
                }
                let t2 = Instant::now();
                let parent = spans.record("loadgen.request", due(a), t2, None, id);
                spans.record("loadgen.recv", t0, t1, parent, id);
                spans.record("loadgen.verify", t1, t2, parent, id);
            }
            (latencies_ms, picks, tally, hash, last, spans)
        });

        let (late_ms, send_spans) = sender.join().expect("sender thread");
        let (latencies_ms, picks, tally, hash, last, recv_spans) =
            receiver.join().expect("receiver thread");
        LoadOutcome {
            latencies_ms,
            picks,
            late_ms,
            tally,
            hash,
            elapsed_s: last.saturating_duration_since(start).as_secs_f64(),
            spans: [send_spans, recv_spans],
        }
    })
}
