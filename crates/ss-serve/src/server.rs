//! The TCP layer: an accept loop feeding the in-process service, and a
//! small blocking client.
//!
//! This is a concurrency containment module (see ss-lint's
//! `concurrency-containment` rule): all socket-side threading is argued
//! here. Per connection there are exactly two threads —
//!
//! * the **reader** parses SSRP frames off the socket and submits them
//!   through [`ServeHandle::submit_with_id`]; admission rejections
//!   become immediate typed responses, never a hang;
//! * the **writer** drains a bounded `sync_channel` of pending replies
//!   and writes response frames in submission order, so responses pair
//!   with requests FIFO per connection even though workers finish out
//!   of order.
//!
//! The channel bound ([`MAX_CLIENT_IN_FLIGHT`]) is the per-client
//! admission cap: a client pipelining deeper than the writer can flush
//! blocks its *reader* — which stops draining the socket and turns into
//! plain TCP backpressure on that one client, without consuming queue
//! slots other clients need.
//!
//! A malformed frame (bad magic, CRC mismatch, unknown op, hostile
//! length) is counted and the connection is closed: after a framing
//! error the byte stream can no longer be trusted to re-synchronize,
//! so refusing further reads is the only safe answer. A connection drops
//! what the server tracks for it (its stream clone and thread handle) as
//! it ends, so the server holds descriptors only for live connections,
//! whether or not another client arrives; each accept still joins any
//! connection that ended without doing so. Server shutdown flips a stop
//! flag, self-connects to unblock `accept`, shuts down every live
//! connection's socket, and joins their threads.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};

use ss_trace::Counter;

use crate::error::ServeError;
use crate::protocol::{Frame, Kind, Op, ProtocolError, Status, HEADER_LEN, TRAILER_LEN};
use crate::service::{PendingReply, Response, ServeHandle};

/// Per-connection pipelining cap: how many responses may be outstanding
/// (admitted but not yet written back) before the connection's reader
/// stops draining the socket.
pub const MAX_CLIENT_IN_FLIGHT: usize = 32;

/// What travels from a connection's reader to its writer.
enum ConnItem {
    /// An admitted request's future response.
    Pending(PendingReply),
    /// An immediately-known response (admission rejection).
    Ready(Response),
}

/// One live connection: the reader thread's handle plus a stream clone
/// used to break its blocking read at server stop. The connection's
/// thread removes its own entry as it ends ([`untrack`]).
struct ConnTrack {
    stream: TcpStream,
    thread: std::thread::JoinHandle<()>,
}

/// A running SSRP listener bound to one [`ServeHandle`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnTrack>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

/// Poison-safe lock acquisition: a panicked connection thread must not
/// cascade into the accept loop or shutdown path.
fn lock(conns: &Mutex<Vec<ConnTrack>>) -> MutexGuard<'_, Vec<ConnTrack>> {
    conns.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections for `handle`'s service.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the bind fails.
    pub fn start(handle: ServeHandle, addr: impl ToSocketAddrs) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnTrack>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let accept_thread = std::thread::Builder::new()
            .name("ss-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &handle, &accept_stop, &accept_conns))
            .map_err(|e| ServeError::Io(e.kind()))?;
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, severs every live connection, and joins the
    /// accept thread and every live connection's threads (a connection
    /// that has already ended let its own go). In-flight work already
    /// admitted to the service still completes inside the service; only
    /// its delivery is cut with the sockets.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop; it checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        let tracked: Vec<ConnTrack> = lock(&self.conns).drain(..).collect();
        for conn in tracked {
            let _ = conn.stream.shutdown(Shutdown::Both);
            let _ = conn.thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.halt();
        }
    }
}

/// Accepts until the stop flag flips; one reader thread per connection,
/// which untracks itself as it ends. Each accept also joins, as a
/// backstop, any tracked connection whose thread ended without that
/// (one that panicked).
fn accept_loop(
    listener: &TcpListener,
    handle: &ServeHandle,
    stop: &AtomicBool,
    conns: &Arc<Mutex<Vec<ConnTrack>>>,
) {
    for incoming in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        // Responses go out as one vectored write each; without this a
        // small one waits in Nagle's buffer for the client's next ACK. A
        // failure only costs latency, as in `Client::connect`.
        let _ = stream.set_nodelay(true);
        let Ok(tracked) = stream.try_clone() else {
            continue;
        };
        let conn_handle = handle.clone();
        let conn_conns = Arc::clone(conns);
        let finished: Vec<ConnTrack> = {
            // Held from spawn to push, so a connection that ends at once
            // waits in `untrack` until its entry is there to remove.
            let mut conns = lock(conns);
            let spawned = std::thread::Builder::new()
                .name("ss-serve-conn".to_string())
                .spawn(move || {
                    run_connection(stream, &conn_handle);
                    drop(conn_handle);
                    untrack(&conn_conns);
                });
            if let Ok(thread) = spawned {
                conns.push(ConnTrack {
                    stream: tracked,
                    thread,
                });
            }
            conns
                .extract_if(.., |conn| conn.thread.is_finished())
                .collect()
        };
        // Each of these threads has ended, so the join returns at once;
        // dropping the entry closes the tracked stream clone.
        for conn in finished {
            let _ = conn.thread.join();
        }
    }
}

/// Run by a connection's reader thread as its last step: removes the
/// thread's own entry, so the tracked stream clone closes and its
/// descriptor is released now rather than at the next accept or at
/// server stop. The entry's thread handle goes with it, which detaches
/// the thread; with no work left after this, that hides nothing. A
/// thread that panics never gets here, and the accept-side backstop or
/// `Server::stop` joins it.
fn untrack(conns: &Mutex<Vec<ConnTrack>>) {
    let me = std::thread::current().id();
    let ended: Vec<ConnTrack> = lock(conns)
        .extract_if(.., |conn| conn.thread.thread().id() == me)
        .collect();
    drop(ended);
}

/// Status a refused admission maps onto the wire.
fn rejection_status(e: &ServeError) -> Status {
    match e {
        ServeError::Overloaded => Status::Overloaded,
        ServeError::Draining | ServeError::Closed => Status::Draining,
        _ => Status::Internal,
    }
}

/// The reader half of one connection; spawns and joins its writer.
fn run_connection(stream: TcpStream, handle: &ServeHandle) {
    let trace = handle.trace();
    trace.add(Counter::ServeConnections, 1);
    let Ok(mut read_stream) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::sync_channel::<ConnItem>(MAX_CLIENT_IN_FLIGHT);
    let writer_handle = handle.clone();
    let Ok(writer) = std::thread::Builder::new()
        .name("ss-serve-write".to_string())
        .spawn(move || write_loop(stream, &rx, &writer_handle))
    else {
        return;
    };
    let max_body = handle.max_body();
    loop {
        match Frame::read_from(&mut read_stream, max_body) {
            Ok(frame) => {
                let Kind::Request(op) = frame.kind else {
                    // A response frame sent at the server: the peer is
                    // not speaking the protocol.
                    trace.add(Counter::ServeProtocolErrors, 1);
                    break;
                };
                let frame_len = (HEADER_LEN + frame.body.len() + TRAILER_LEN) as u64;
                trace.add(Counter::ServeBytesIn, frame_len);
                let item = match handle.submit_with_id(op, frame.request_id, frame.body) {
                    Ok(pending) => ConnItem::Pending(pending),
                    Err(e) => ConnItem::Ready(Response {
                        request_id: frame.request_id,
                        op,
                        status: rejection_status(&e),
                        // ss-lint: allow(alloc-in-hot-loop) -- admission-rejection path only; the steady-state loop takes the Ok arm
                        payload: e.to_string().into_bytes(),
                    }),
                };
                // Blocks when MAX_CLIENT_IN_FLIGHT replies are pending:
                // per-client backpressure. Errors only if the writer
                // died (socket gone) — stop reading then.
                if tx.send(item).is_err() {
                    break;
                }
            }
            // EOF/reset: the client hung up (possibly mid-request).
            Err(ProtocolError::Io(_)) => break,
            // Malformed framing: typed, counted, connection refused.
            Err(_) => {
                trace.add(Counter::ServeProtocolErrors, 1);
                break;
            }
        }
    }
    // Dropping the sender lets the writer drain outstanding replies and
    // exit; joining bounds this thread's lifetime to its writer's.
    drop(tx);
    let _ = writer.join();
    let _ = read_stream.shutdown(Shutdown::Both);
}

/// The writer half: responses go out in submission order, each frame
/// written straight from the response's payload.
fn write_loop(mut stream: TcpStream, rx: &mpsc::Receiver<ConnItem>, handle: &ServeHandle) {
    let trace = handle.trace();
    let max_body = handle.max_body();
    for item in rx.iter() {
        let response = match item {
            ConnItem::Ready(response) => response,
            ConnItem::Pending(pending) => match pending.wait() {
                Ok(response) => response,
                // Worker died before replying: nothing trustworthy to
                // echo, and the service is wounded — sever the stream
                // rather than invent a response id.
                Err(_) => break,
            },
        };
        let response = within_body_cap(response, max_body);
        let frame_len = HEADER_LEN + 1 + response.payload.len() + TRAILER_LEN;
        trace.add(Counter::ServeBytesOut, frame_len as u64);
        if Frame::write_response(
            &mut stream,
            response.op,
            response.request_id,
            response.status,
            &response.payload,
        )
        .is_err()
        {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// The response itself if its frame body (status byte + payload) fits
/// `max_body`; otherwise a `BadRequest` that gives both sizes, cut to
/// fit. Get and decode refuse an oversized answer before decoding; this
/// covers every other response the writer sends.
fn within_body_cap(response: Response, max_body: usize) -> Response {
    let body = 1 + response.payload.len();
    if body <= max_body {
        return response;
    }
    let mut payload =
        format!("response body of {body} bytes exceeds the {max_body}-byte cap").into_bytes();
    payload.truncate(max_body.saturating_sub(1));
    Response {
        status: Status::BadRequest,
        payload,
        ..response
    }
}

/// A blocking SSRP client.
///
/// [`Client::call`] is strict request/response; [`Client::send`] /
/// [`Client::recv`] expose the pipelined form (the server answers FIFO
/// per connection). Every received frame is checked for id/op pairing
/// before its payload is trusted.
///
/// A framing failure ends the connection: after a frame is refused (or
/// a write tears one), the bytes that follow cannot be trusted to start
/// a new frame, so the client shuts the stream down and answers every
/// later call with [`ServeError::Disconnected`].
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_body: usize,
    next_id: u64,
    /// The framing failure that ended this connection, if one has.
    broken: Option<ProtocolError>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            max_body: crate::protocol::DEFAULT_MAX_BODY,
            next_id: 0,
            broken: None,
        })
    }

    /// Caps how large a response body this client will accept.
    #[must_use]
    pub fn with_max_body(mut self, max_body: usize) -> Client {
        self.max_body = max_body;
        self
    }

    /// Sends one request frame and returns its id without waiting.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on write failure (which ends the
    /// connection), [`ServeError::Disconnected`] once it has ended.
    pub fn send(&mut self, op: Op, body: Vec<u8>) -> Result<u64, ServeError> {
        self.check_open()?;
        self.next_id += 1;
        let id = self.next_id;
        if let Err(e) = Frame::request(op, id, body).write_to(&mut self.stream) {
            return Err(self.disconnect(e));
        }
        Ok(id)
    }

    /// Receives the next response frame (FIFO order per connection).
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on framing/IO failure (which ends the
    /// connection), [`ServeError::Disconnected`] once it has ended,
    /// [`ServeError::ResponseMismatch`] if a request frame or a
    /// status-less body arrives.
    pub fn recv(&mut self) -> Result<Response, ServeError> {
        self.check_open()?;
        let frame = match Frame::read_from(&mut self.stream, self.max_body) {
            Ok(frame) => frame,
            Err(e) => return Err(self.disconnect(e)),
        };
        let Kind::Response(op) = frame.kind else {
            return Err(ServeError::ResponseMismatch {
                detail: "server sent a request frame".to_string(),
            });
        };
        let Some((&status_byte, payload)) = frame.body.split_first() else {
            return Err(ServeError::ResponseMismatch {
                detail: "response body is missing its status byte".to_string(),
            });
        };
        let Some(status) = Status::from_byte(status_byte) else {
            return Err(ServeError::ResponseMismatch {
                detail: format!("unknown status byte {status_byte:#04x}"),
            });
        };
        Ok(Response {
            request_id: frame.request_id,
            op,
            status,
            payload: payload.to_vec(),
        })
    }

    /// [`ServeError::Disconnected`] once a framing failure has ended the
    /// connection.
    fn check_open(&self) -> Result<(), ServeError> {
        match &self.broken {
            Some(cause) => Err(ServeError::Disconnected(cause.clone())),
            None => Ok(()),
        }
    }

    /// Ends the connection on framing failure `e`: shuts the stream down
    /// so no leftover byte is ever parsed, and remembers why.
    fn disconnect(&mut self, e: ProtocolError) -> ServeError {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.broken = Some(e.clone());
        ServeError::Protocol(e)
    }

    /// One strict round trip: send, receive, verify the response pairs
    /// with this exact request.
    ///
    /// # Errors
    ///
    /// As [`Client::send`]/[`Client::recv`], plus
    /// [`ServeError::ResponseMismatch`] on an id or op mismatch.
    pub fn call(&mut self, op: Op, body: Vec<u8>) -> Result<Response, ServeError> {
        let id = self.send(op, body)?;
        let response = self.recv()?;
        if response.request_id != id || response.op != op {
            return Err(ServeError::ResponseMismatch {
                detail: format!(
                    "sent {op:?} id {id}, got {:?} id {}",
                    response.op, response.request_id
                ),
            });
        }
        Ok(response)
    }

    /// Remote [`ServeHandle::encode`].
    ///
    /// # Errors
    ///
    /// Transport errors as [`Client::call`]; server errors typed via
    /// [`Response::into_ok`].
    pub fn encode(&mut self, tensor: &ss_tensor::Tensor) -> Result<Vec<u8>, ServeError> {
        self.call(Op::Encode, crate::wire::encode_tensor(tensor))?
            .into_ok()
    }

    /// Remote [`ServeHandle::decode`].
    ///
    /// # Errors
    ///
    /// As [`Client::encode`].
    pub fn decode(&mut self, packed: &[u8]) -> Result<ss_tensor::Tensor, ServeError> {
        let payload = self.call(Op::Decode, packed.to_vec())?.into_ok()?;
        Ok(crate::wire::decode_tensor(&payload)?)
    }

    /// Remote [`ServeHandle::get`].
    ///
    /// # Errors
    ///
    /// As [`Client::encode`].
    pub fn get(&mut self, model: &str, record: &str) -> Result<ss_tensor::Tensor, ServeError> {
        let payload = self
            .call(Op::Get, crate::wire::encode_get(model, record))?
            .into_ok()?;
        Ok(crate::wire::decode_tensor(&payload)?)
    }

    /// Remote [`ServeHandle::stats`].
    ///
    /// # Errors
    ///
    /// As [`Client::encode`].
    pub fn stats(&mut self) -> Result<String, ServeError> {
        let payload = self.call(Op::Stats, Vec::new())?.into_ok()?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Remote [`ServeHandle::health`].
    ///
    /// # Errors
    ///
    /// As [`Client::encode`].
    pub fn health(&mut self) -> Result<String, ServeError> {
        let payload = self.call(Op::Health, Vec::new())?.into_ok()?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Remote [`ServeHandle::drain`].
    ///
    /// # Errors
    ///
    /// As [`Client::encode`].
    pub fn drain(&mut self) -> Result<(), ServeError> {
        self.call(Op::Drain, Vec::new())?.into_ok().map(|_| ())
    }

    /// Severs the connection (tests use this to fault-inject a client
    /// disappearing mid-request).
    pub fn abandon(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeConfig, Service};

    #[test]
    fn accepted_streams_disable_nagle() {
        let mut service = Service::new(ServeConfig::new().with_workers(1)).expect("service");
        service.start();
        let server = Server::start(service.handle(), "127.0.0.1:0").expect("bind");
        // The accept loop tracks a connection only after spawning its
        // reader, and takes connections one at a time in arrival order.
        // So once the second client has been answered, the first one's
        // stream is tracked.
        let first = Client::connect(server.addr()).expect("connect");
        let mut second = Client::connect(server.addr()).expect("connect");
        second.health().expect("health");
        let nodelay = lock(&server.conns)
            .first()
            .map(|conn| conn.stream.nodelay().expect("nodelay"));
        assert_eq!(
            nodelay,
            Some(true),
            "accepted stream still batches small writes"
        );
        first.abandon();
        second.abandon();
        server.stop();
        service.shutdown();
    }

    #[test]
    fn ended_connections_are_reaped_as_they_end() {
        let mut service = Service::new(ServeConfig::new().with_workers(1)).expect("service");
        service.start();
        let server = Server::start(service.handle(), "127.0.0.1:0").expect("bind");
        for _ in 0..200 {
            let mut client = Client::connect(server.addr()).expect("connect");
            client.health().expect("health");
            client.abandon();
        }
        // No client connects after the last one hangs up, so nothing on
        // the accept path can reap: each connection must drop its own
        // entry, and its stream clone's descriptor, as it ends.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let tracked = loop {
            let tracked = lock(&server.conns).len();
            if tracked == 0 || std::time::Instant::now() > deadline {
                break tracked;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert_eq!(tracked, 0, "{tracked} ended connections still tracked");
        server.stop();
        service.shutdown();
    }
}
