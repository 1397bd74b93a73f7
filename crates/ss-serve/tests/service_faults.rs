//! Fault injection for the serve stack, end to end over TCP: clients
//! that vanish mid-request, drains racing queued work, overload under a
//! full queue, corrupt frames on a live socket, answers over the body
//! cap on either end, and a multi-client soak that pins
//! response↔request pairing across worker-pool sizes.
//!
//! The tests exploit one deliberate seam for determinism:
//! [`Service::start`] is separate from [`Service::new`], so a test can
//! fill the queue (or drain it) while no worker can race the admissions,
//! then start the pool and watch exactly the predicted responses flush.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ss_serve::wire::{decode_tensor, encode_get, encode_tensor};
use ss_serve::{Client, Op, ProtocolError, ServeConfig, ServeError, Server, Service, Status};
use ss_store::format::Crc32;
use ss_store::{MemoryProvider, ModelWriter};
use ss_tensor::{FixedType, Shape, Tensor};
use ss_trace::Counter;

fn tensor(seed: i32) -> Tensor {
    let vals = (0..64).map(|v| ((v * 11 + seed) % 23) - 11).collect();
    Tensor::from_vec(Shape::flat(64), FixedType::I16, vals).expect("valid tensor")
}

/// Polls `probe` until it returns true; panics after five seconds. The
/// serve counters are the sync points — tests wait on observable state,
/// never on sleeps alone.
fn wait_until(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn client_disconnect_mid_request_leaves_the_server_healthy() {
    let mut service = Service::new(ServeConfig::new().with_workers(2)).expect("service");
    service.start();
    let handle = service.handle();
    let server = Server::start(handle.clone(), "127.0.0.1:0").expect("bind");

    // Fault 1: a client submits real work, then vanishes without reading
    // the response. The worker still completes the job; only delivery
    // dies with the socket.
    let mut ghost = Client::connect(server.addr()).expect("connect");
    ghost
        .send(Op::Encode, encode_tensor(&tensor(1)))
        .expect("send");
    ghost.abandon();

    // Fault 2: a client hangs up midway through a frame's bytes. The
    // server must treat the torn read as a plain disconnect — not a
    // protocol violation, not a crash.
    let frame = ss_serve::Frame::request(Op::Encode, 9, encode_tensor(&tensor(2))).encode();
    let mut torn = TcpStream::connect(server.addr()).expect("connect");
    torn.write_all(&frame[..frame.len() / 2])
        .expect("half a frame");
    drop(torn);

    // The server keeps serving fresh clients correctly after both.
    wait_until("both faulty connections to register", || {
        handle.trace().counter(Counter::ServeConnections) >= 2
    });
    let mut alive = Client::connect(server.addr()).expect("connect");
    let t = tensor(3);
    let packed = alive.encode(&t).expect("encode after faults");
    assert_eq!(alive.decode(&packed).expect("decode after faults"), t);

    server.stop();
    // The abandoned request was admitted and completed despite its dead
    // reply channel; the torn one was never admitted.
    let report = service.shutdown();
    assert!(report.completed >= 3);
    // A torn disconnect is not a protocol violation.
    assert_eq!(handle.trace().counter(Counter::ServeProtocolErrors), 0);
}

#[test]
fn corrupt_frames_close_the_connection_and_are_counted() {
    let mut service = Service::new(ServeConfig::new().with_workers(1)).expect("service");
    service.start();
    let handle = service.handle();
    let server = Server::start(handle.clone(), "127.0.0.1:0").expect("bind");

    let clean = ss_serve::Frame::request(Op::Stats, 1, Vec::new()).encode();
    // Three distinct corruptions: bad magic, flipped CRC bit, and a
    // response frame sent where a request belongs.
    let mut bad_magic = clean.clone();
    bad_magic[0] = b'X';
    let mut bad_crc = clean.clone();
    let last = bad_crc.len() - 1;
    bad_crc[last] ^= 0x01;
    let response_frame =
        ss_serve::Frame::response(Op::Stats, 1, Status::Ok, b"i am the server now").encode();

    for (i, poison) in [bad_magic, bad_crc, response_frame].iter().enumerate() {
        let before = handle.trace().counter(Counter::ServeProtocolErrors);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(poison).expect("write poison");
        // The server answers a poisoned stream by closing it: the next
        // read sees EOF, and the violation is counted before the close.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        assert!(
            sink.is_empty(),
            "corruption case {i}: no response may precede the close"
        );
        assert_eq!(
            handle.trace().counter(Counter::ServeProtocolErrors),
            before + 1,
            "corruption case {i} must be counted exactly once"
        );
    }

    // A clean client still gets service afterwards.
    let mut alive = Client::connect(server.addr()).expect("connect");
    assert!(alive.health().expect("health").contains("serving"));

    server.stop();
    let _ = service.shutdown();
}

#[test]
fn a_version_1_frame_is_refused_over_tcp_and_other_connections_are_served() {
    let mut service = Service::new(ServeConfig::new().with_workers(1)).expect("service");
    service.start();
    let handle = service.handle();
    let server = Server::start(handle.clone(), "127.0.0.1:0").expect("bind");
    let mut alive = Client::connect(server.addr()).expect("connect");
    assert!(alive.health().expect("health").contains("serving"));

    // An intact version-1 frame: its CRC covers the v1 header.
    let mut v1 = ss_serve::Frame::request(Op::Health, 1, Vec::new()).encode();
    v1[4] = 1;
    let crc_at = v1.len() - 4;
    let mut crc = Crc32::new();
    crc.update(&v1[..crc_at]);
    v1[crc_at..].copy_from_slice(&crc.finish().to_le_bytes());
    assert_eq!(
        ss_serve::Frame::decode(&v1, ss_serve::protocol::DEFAULT_MAX_BODY),
        Err(ProtocolError::UnsupportedVersion(1))
    );

    let before = handle.trace().counter(Counter::ServeProtocolErrors);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&v1).expect("write v1 frame");
    // Refused without an answer: the server counts it and closes.
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    assert!(sink.is_empty(), "a v1 peer gets no response frame");
    assert_eq!(
        handle.trace().counter(Counter::ServeProtocolErrors),
        before + 1
    );
    // The other connection is still served.
    assert!(alive.health().expect("health").contains("serving"));

    server.stop();
    let _ = service.shutdown();
}

#[test]
fn overloaded_rejections_are_typed_on_the_wire_and_fifo_paired() {
    // queue_depth 1 and no workers: of 8 pipelined requests, exactly the
    // first is admitted, the other 7 are refused Overloaded — and the
    // responses still come back in request order with matching ids.
    let mut service =
        Service::new(ServeConfig::new().with_workers(1).with_queue_depth(1)).expect("service");
    let handle = service.handle();
    let server = Server::start(handle.clone(), "127.0.0.1:0").expect("bind");

    let mut client = Client::connect(server.addr()).expect("connect");
    let mut sent = Vec::new();
    for i in 0..8 {
        sent.push(
            client
                .send(Op::Encode, encode_tensor(&tensor(i)))
                .expect("send"),
        );
    }
    // Wait until every rejection has actually been decided, then let the
    // pool flush the one admitted job.
    wait_until("7 overload rejections", || {
        handle.trace().counter(Counter::ServeOverloaded) >= 7
    });
    service.start();

    for (i, &id) in sent.iter().enumerate() {
        let response = client.recv().expect("response");
        assert_eq!(response.request_id, id, "response {i} out of order");
        assert_eq!(response.op, Op::Encode);
        let expected = if i == 0 {
            Status::Ok
        } else {
            Status::Overloaded
        };
        assert_eq!(response.status, expected, "response {i} wrong status");
    }

    server.stop();
    let report = service.shutdown();
    assert_eq!(report.completed, 1, "exactly the admitted request ran");
    assert_eq!(handle.trace().counter(Counter::ServeOverloaded), 7);
}

#[test]
fn drain_over_tcp_refuses_new_work_and_flushes_queued_work() {
    let mut service =
        Service::new(ServeConfig::new().with_workers(2).with_queue_depth(16)).expect("service");
    let handle = service.handle();
    let server = Server::start(handle.clone(), "127.0.0.1:0").expect("bind");

    // Five real jobs sit in the queue (no workers yet)...
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut sent = Vec::new();
    for i in 0..5 {
        sent.push(
            client
                .send(Op::Encode, encode_tensor(&tensor(i)))
                .expect("send"),
        );
    }
    wait_until("5 admissions", || {
        handle.trace().counter(Counter::ServeRequests) >= 5
    });

    // ...when a second connection orders the drain (control ops bypass
    // the queue, so this works even though the pool has never run).
    let mut operator = Client::connect(server.addr()).expect("connect");
    operator.drain().expect("drain");
    assert!(handle.is_draining());

    // New work after the drain is refused on the wire, typed.
    let late = client
        .send(Op::Encode, encode_tensor(&tensor(9)))
        .expect("send");
    sent.push(late);

    // Start the pool: the five queued jobs flush, the late one answers
    // Draining, all FIFO with matching ids — zero loss, zero reorder.
    service.start();
    for (i, &id) in sent.iter().enumerate() {
        let response = client.recv().expect("response");
        assert_eq!(response.request_id, id, "response {i} out of order");
        let expected = if i < 5 { Status::Ok } else { Status::Draining };
        assert_eq!(response.status, expected, "response {i} wrong status");
    }

    server.stop();
    let report = service.shutdown();
    assert_eq!(report.drained_in_flight, 5);
    assert!(report.completed >= 5);
}

#[test]
fn multi_client_soak_pairs_every_response_across_worker_counts() {
    // The pairing invariant under real concurrency: several clients
    // pipelining mixed ops against pools of 1..=8 workers, every
    // response matching its request's id, op, and payload.
    for workers in [1usize, 2, 4, 8] {
        let provider = Arc::new(MemoryProvider::new());
        let mut writer = ModelWriter::new(provider.as_ref(), "soak");
        let stored = tensor(77);
        writer.append_tensor("w", 0, &stored).expect("append");
        writer.finish().expect("finish");

        let mut service = Service::new(
            ServeConfig::new()
                .with_workers(workers)
                .with_queue_depth(256),
        )
        .expect("service");
        service.add_model("soak", provider);
        service.start();
        let server = Server::start(service.handle(), "127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let stored = &stored;
        std::thread::scope(|scope| {
            for c in 0..4i32 {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for round in 0..6i32 {
                        // Pipeline a batch of encodes deep enough to make
                        // workers finish out of order, then check FIFO.
                        let originals: Vec<Tensor> =
                            (0..8).map(|i| tensor(c * 1000 + round * 10 + i)).collect();
                        let ids: Vec<u64> = originals
                            .iter()
                            .map(|t| client.send(Op::Encode, encode_tensor(t)).expect("send"))
                            .collect();
                        let mut packed = Vec::new();
                        for &id in &ids {
                            let response = client.recv().expect("recv");
                            assert_eq!(response.request_id, id);
                            assert_eq!(response.op, Op::Encode);
                            assert_eq!(response.status, Status::Ok);
                            packed.push(response.payload);
                        }
                        // Round-trip each container back through decode:
                        // payload correctness, not just id pairing.
                        for (container, original) in packed.iter().zip(&originals) {
                            assert_eq!(
                                &client.decode(container).expect("decode"),
                                original,
                                "worker count {workers}: payload mismatch"
                            );
                        }
                        // And interleave a store fetch.
                        assert_eq!(&client.get("soak", "w").expect("get"), stored);
                    }
                });
            }
        });

        server.stop();
        let report = service.shutdown();
        // 4 clients × 6 rounds × (8 encodes + 8 decodes + 1 get).
        assert!(
            report.completed >= 4 * 6 * 17,
            "worker count {workers}: only {} completed",
            report.completed
        );
    }
}

#[test]
fn in_process_submissions_race_a_drain_without_loss_or_duplication() {
    // The in-process half of the drain contract: submitters hammer the
    // handle while another thread flips the drain; every Ok admission
    // must produce exactly one reply, every rejection must be typed.
    let mut service =
        Service::new(ServeConfig::new().with_workers(4).with_queue_depth(8)).expect("service");
    service.start();
    let handle = service.handle();

    let replies: Vec<usize> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..4i32)
            .map(|c| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut got = 0usize;
                    for i in 0..200i32 {
                        match handle.submit(Op::Encode, encode_tensor(&tensor(c * 300 + i))) {
                            Ok(pending) => {
                                let response = pending.wait().expect("admitted work replies");
                                assert_eq!(response.op, Op::Encode);
                                assert_eq!(response.status, Status::Ok);
                                got += 1;
                            }
                            Err(
                                ServeError::Overloaded | ServeError::Draining | ServeError::Closed,
                            ) => {}
                            Err(other) => panic!("untyped admission failure: {other:?}"),
                        }
                        if i == 100 {
                            handle.drain().expect("drain");
                        }
                    }
                    got
                })
            })
            .collect();
        spawned
            .into_iter()
            .map(|s| s.join().expect("soak thread"))
            .collect()
    });

    let answered: usize = replies.iter().sum();
    let report = service.shutdown();
    // Every admitted job replied before shutdown returned, and the
    // service completed exactly the admitted set (plus the 4 drain
    // control calls) — nothing lost, nothing duplicated.
    assert_eq!(report.completed, answered as u64 + 4);
    assert!(answered >= 4, "at least the pre-drain admissions answered");
}

#[test]
fn decode_of_a_corrupt_container_is_a_typed_remote_error_over_tcp() {
    let mut service = Service::new(ServeConfig::new().with_workers(1)).expect("service");
    service.start();
    let server = Server::start(service.handle(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A container with torn magic, and a truncated one: the decode op
    // must answer a typed error status, and the connection must survive.
    let packed = client.encode(&tensor(4)).expect("encode");
    let mut corrupt = packed.clone();
    corrupt[0] ^= 0xFF;
    let truncated = packed[..packed.len().saturating_sub(3)].to_vec();
    for bad in [corrupt, truncated] {
        match client
            .call(Op::Decode, bad)
            .expect("transport ok")
            .into_ok()
        {
            Err(ServeError::Remote { status, .. }) => {
                assert!(matches!(status, Status::BadRequest | Status::CodecFailure));
            }
            other => panic!("corrupt container must be a typed remote error, got {other:?}"),
        }
    }
    // Same connection, clean request: still served.
    assert_eq!(client.decode(&packed).expect("decode"), tensor(4));
    // Tensor payload check uses the wire helpers end to end.
    let body = encode_tensor(&tensor(4));
    assert_eq!(decode_tensor(&body).expect("wire"), tensor(4));

    server.stop();
    let _ = service.shutdown();
}

#[test]
fn in_flight_gauge_never_wraps_under_fast_replies() {
    // Requests answered at once (a one-byte decode body is a bad
    // request) race the admission-side accounting: a worker can pop,
    // answer and uncount a job before its submitter returns. The gauge
    // must never read above the number of requests ever sent.
    const SUBMITTERS: u64 = 3;
    const CALLS: u64 = 5_000;
    let mut service = Service::new(ServeConfig::new().with_workers(2)).expect("service");
    service.start();
    let handle = service.handle();
    let done = std::sync::atomic::AtomicBool::new(false);
    let mut reads = Vec::new();
    std::thread::scope(|s| {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let handle = handle.clone();
                s.spawn(move || {
                    for _ in 0..CALLS {
                        // Overloaded refusals are fine; only the gauge
                        // is under test.
                        let _ = handle.call(Op::Decode, b"x".to_vec());
                    }
                })
            })
            .collect();
        let poller = s.spawn(|| {
            let mut seen = Vec::new();
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                let health = handle.health().expect("health");
                let field = health
                    .split("\"in_flight\":")
                    .nth(1)
                    .and_then(|rest| rest.split([',', '}']).next())
                    .expect("in_flight field");
                seen.push(field.parse::<u64>().expect("in_flight is a u64"));
            }
            seen
        });
        for submitter in submitters {
            submitter.join().expect("submitter");
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        reads = poller.join().expect("poller");
    });
    assert!(!reads.is_empty(), "the poller never read the gauge");
    let max = reads.iter().copied().max().unwrap_or(0);
    assert!(
        max <= SUBMITTERS * CALLS,
        "in_flight read {max} (above the {} requests sent) in {} reads",
        SUBMITTERS * CALLS,
        reads.len()
    );
    service.shutdown();
}

/// Values in the `big` record of [`capped_model`]: its `get` answer is a
/// 1 + 3 + 4 + 2·2000 = 4008-byte body (2 bytes per i16 value).
const BIG: usize = 2000;

/// A model with a record whose answer is 4008 bytes and one whose answer
/// is 136.
fn capped_model() -> Arc<MemoryProvider> {
    let provider = Arc::new(MemoryProvider::new());
    let mut writer = ModelWriter::new(provider.as_ref(), "m");
    let vals = (0..BIG as i32).map(|v| v % 200 - 100).collect();
    let big = Tensor::from_vec(Shape::flat(BIG), FixedType::I16, vals).expect("valid tensor");
    writer.append_tensor("big", 0, &big).expect("append");
    writer
        .append_tensor("small", 1, &tensor(6))
        .expect("append");
    writer.finish().expect("finish");
    provider
}

#[test]
fn answers_over_the_body_cap_are_typed_and_the_connection_survives() {
    const CAP: usize = 1024;
    let mut service =
        Service::new(ServeConfig::new().with_workers(1).with_max_body(CAP)).expect("service");
    service.add_model("m", capped_model());
    service.start();
    let server = Server::start(service.handle(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr())
        .expect("connect")
        .with_max_body(CAP);

    // A 2000-value container of zeros packs far below the cap, and its
    // answer is as large as the big record's.
    let zeros = Tensor::zeros(Shape::flat(BIG), FixedType::I16);
    let packed = shapeshifter::container::pack(&zeros, 16).expect("pack");
    assert!(packed.len() < CAP, "the decode request must fit the cap");
    let over_cap = [
        client.call(Op::Get, encode_get("m", "big")),
        client.call(Op::Decode, packed),
    ];
    for response in over_cap {
        match response.expect("transport ok").into_ok() {
            Err(ServeError::Remote { status, message }) => {
                assert_eq!(status, Status::BadRequest);
                assert!(
                    message.contains("4008") && message.contains("1024"),
                    "the refusal gives both sizes: {message}"
                );
            }
            other => panic!("an over-cap answer must be a typed BadRequest, got {other:?}"),
        }
    }
    // The same connection then serves an answer under the cap.
    assert_eq!(client.get("m", "small").expect("small get"), tensor(6));
    server.stop();
    let _ = service.shutdown();

    // Every other answer is held to the cap on the way out: the health
    // JSON is over 64 bytes.
    let mut service =
        Service::new(ServeConfig::new().with_workers(1).with_max_body(64)).expect("service");
    service.start();
    let server = Server::start(service.handle(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr())
        .expect("connect")
        .with_max_body(64);
    for _ in 0..2 {
        match client.health() {
            Err(ServeError::Remote { status, message }) => {
                assert_eq!(status, Status::BadRequest);
                assert!(message.contains("64-byte cap"), "{message}");
            }
            other => panic!("an over-cap health answer must be a BadRequest, got {other:?}"),
        }
    }
    server.stop();
    let _ = service.shutdown();
}

#[test]
fn a_client_that_refuses_a_frame_stops_reading_its_stream() {
    // The server's cap is the default; the client's is smaller, so the
    // big record's answer is a frame the client refuses.
    let mut service = Service::new(ServeConfig::new().with_workers(1)).expect("service");
    service.add_model("m", capped_model());
    service.start();
    let server = Server::start(service.handle(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr())
        .expect("connect")
        .with_max_body(1024);

    let refused = ProtocolError::BodyTooLarge {
        len: 4008,
        max: 1024,
    };
    match client.get("m", "big") {
        Err(ServeError::Protocol(e)) => assert_eq!(e, refused),
        other => panic!("expected BodyTooLarge, got {other:?}"),
    }
    // The refused body's bytes are still in the socket; no later call
    // may parse them as a frame.
    for _ in 0..2 {
        match client.get("m", "small") {
            Err(ServeError::Disconnected(e)) => assert_eq!(e, refused),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }
    assert!(matches!(
        client.send(Op::Health, Vec::new()),
        Err(ServeError::Disconnected(_))
    ));
    assert!(matches!(client.recv(), Err(ServeError::Disconnected(_))));
    // A fresh connection is served as usual.
    let mut fresh = Client::connect(server.addr()).expect("connect");
    assert_eq!(fresh.get("m", "small").expect("small get"), tensor(6));

    server.stop();
    let _ = service.shutdown();
}
