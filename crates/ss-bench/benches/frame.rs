//! Criterion micro-benchmarks of SSRP framing on `get` response frames
//! the size of the repository benchmark's `serve_get_large` answers, the
//! weights of `resnet50` at half its geometry: the mean body (about
//! 236 KB) and the largest (about 1.18 MB).
//!
//! Three things are timed per body:
//!
//! * `write_to` — `Frame::write_to` into a reused `Vec`: header, CRC and
//!   the payload copy.
//! * `read_from` — `Frame::read_from` from a byte slice: the chunked read
//!   and CRC check, with no peer to overlap.
//! * `loopback` — a request byte sent over loopback TCP and the response
//!   frame read back with `Frame::read_from`, the writer on a thread of
//!   its own, so the reader's CRC of one chunk overlaps the writer's CRC
//!   and send of the next.
//!
//! The answers are checked once, outside the timed closures.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ss_models::zoo;
use ss_serve::protocol::DEFAULT_MAX_BODY;
use ss_serve::{wire, Frame, Op, Status};

/// `get` response frames of the mean and the largest record's size. The
/// mean-sized payload is the largest one cut to the mean length: framing
/// cost does not depend on what the bytes are.
fn get_responses() -> [(&'static str, Frame); 2] {
    let net = zoo::resnet50().scaled_down(2);
    let payloads: Vec<Vec<u8>> = (0..net.layers().len())
        .map(|l| wire::encode_tensor(&net.weight_tensor(l, 1)))
        .collect();
    let mean = payloads.iter().map(Vec::len).sum::<usize>() / payloads.len();
    let largest = payloads
        .iter()
        .max_by_key(|p| p.len())
        .expect("resnet50 has weights");
    let (at_mean, _) = largest.split_at(mean);
    let response = |payload: &[u8]| Frame::response(Op::Get, 7, Status::Ok, payload);
    [("mean", response(at_mean)), ("largest", response(largest))]
}

/// A connected loopback pair whose far end answers every byte it reads
/// with `frame`, from a thread of its own, until the near end closes.
fn loopback_responder(frame: Frame) -> (TcpStream, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let near = TcpStream::connect(listener.local_addr().expect("address")).expect("connect");
    let (mut far, _) = listener.accept().expect("accept");
    near.set_nodelay(true).expect("nodelay");
    far.set_nodelay(true).expect("nodelay");
    let responder = std::thread::spawn(move || {
        let mut go = [0u8; 1];
        while far.read_exact(&mut go).is_ok() {
            if frame.write_to(&mut far).is_err() {
                break;
            }
        }
    });
    (near, responder)
}

fn bench_frames(c: &mut Criterion) {
    let mut g = c.benchmark_group("frame");
    g.sample_size(20);
    for (name, frame) in get_responses() {
        let bytes = frame.encode();
        g.throughput(Throughput::Bytes(bytes.len() as u64));

        let mut out = Vec::with_capacity(bytes.len());
        frame.write_to(&mut out).expect("write_to");
        assert_eq!(out, bytes, "{name}: write_to writes the encoded frame");
        g.bench_function(format!("{name}/write_to"), |b| {
            b.iter(|| {
                out.clear();
                frame.write_to(&mut out).expect("write_to");
                black_box(out.len())
            });
        });

        let back = Frame::read_from(&mut bytes.as_slice(), DEFAULT_MAX_BODY).expect("read_from");
        assert_eq!(back, frame, "{name}: read_from reads the frame back");
        g.bench_function(format!("{name}/read_from"), |b| {
            b.iter(|| {
                Frame::read_from(&mut bytes.as_slice(), DEFAULT_MAX_BODY).expect("read_from")
            });
        });

        let (mut near, responder) = loopback_responder(frame.clone());
        near.write_all(&[1]).expect("request");
        let back = Frame::read_from(&mut near, DEFAULT_MAX_BODY).expect("response");
        assert_eq!(back, frame, "{name}: the loopback response is the frame");
        g.bench_function(format!("{name}/loopback"), |b| {
            b.iter(|| {
                near.write_all(&[1]).expect("request");
                Frame::read_from(&mut near, DEFAULT_MAX_BODY).expect("response")
            });
        });
        drop(near);
        responder.join().expect("responder thread");
    }
    g.finish();
}

criterion_group!(benches, bench_frames);
criterion_main!(benches);
