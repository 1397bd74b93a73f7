//! Per-layer metrics: each layer's public functions, timed from outside
//! on the workload's own inputs, one call per span.

use std::hint::black_box;
use std::time::{Duration, Instant};

use shapeshifter::container;
use ss_bitio::{BitReader, BitWriter};
use ss_core::kernels::{scan_gather, MAX_GROUP};
use ss_core::{
    CodecConfig, CodecSession, ExecPolicy, IndexPolicy, SchemeRegistry, SchemeStream,
    ShapeShifterCodec,
};
use ss_pipeline::{Pipeline, PipelineConfig};
use ss_serve::protocol::DEFAULT_MAX_BODY;
use ss_serve::{wire, Frame, Op, Status};
use ss_store::format::crc32;
use ss_store::{MemoryProvider, ModelStore, ModelWriter};
use ss_tensor::{FixedType, Shape, Tensor};

use crate::batch::BatchBench;
use crate::inputs::Inputs;
use crate::report::{Metric, SCHEMES};
use crate::serve::{Stack, Templates, MODEL};
use crate::stats::median;
use crate::trace::SpanBuf;

/// Spans kept per metric (later calls are timed but not recorded, to
/// keep the trace file small).
const SPANS_PER_METRIC: usize = 500;

/// Times calls into one layer and records a span for the first
/// [`SPANS_PER_METRIC`] of them.
pub struct Probe<'s> {
    /// Minimum time spent on each metric (at least one pass is made).
    pub budget: Duration,
    /// Where spans go.
    pub spans: &'s mut SpanBuf,
    request: u64,
}

type Res<T> = Result<T, String>;

fn ensure(ok: bool, what: &str) -> Res<()> {
    if ok {
        Ok(())
    } else {
        Err(format!("wrong answer: {what}"))
    }
}

fn session() -> Res<CodecSession> {
    CodecSession::new(CodecConfig::new().with_exec(ExecPolicy::Sequential))
        .map_err(|e| e.to_string())
}

fn empty_tensor() -> Tensor {
    Tensor::zeros(Shape::flat(0), FixedType::I16)
}

impl<'s> Probe<'s> {
    /// A probe spending `budget` per metric.
    pub fn new(budget: Duration, spans: &'s mut SpanBuf) -> Self {
        Self {
            budget,
            spans,
            request: 1 << 32,
        }
    }

    /// Calls `f(k)` for `k` cycling over `0..n` until the budget is
    /// spent, at least once each; `f` returns the units of work it did.
    /// Returns the median of nanoseconds per unit, and the call count.
    fn time<F: FnMut(usize) -> Res<f64>>(
        &mut self,
        name: &'static str,
        n: usize,
        mut f: F,
    ) -> Res<(f64, usize)> {
        let mut samples = Vec::new();
        let begin = Instant::now();
        let mut i = 0;
        while i < n || begin.elapsed() < self.budget {
            let t0 = Instant::now();
            let units = f(i % n)?;
            let t1 = Instant::now();
            if i < SPANS_PER_METRIC {
                self.spans.record(name, t0, t1, None, self.request);
                self.request += 1;
            }
            samples.push((t1 - t0).as_nanos() as f64 / units.max(1.0));
            i += 1;
        }
        Ok((median(&samples), samples.len()))
    }

    fn metric<F: FnMut(usize) -> Res<f64>>(
        &mut self,
        out: &mut Vec<Metric>,
        name: &'static str,
        n: usize,
        scale: f64,
        f: F,
    ) -> Res<()> {
        let (v, calls) = self.time(name, n, f)?;
        out.push(Metric::sampled(name, v * scale, calls));
        Ok(())
    }
}

/// The protocol, wire, store, container, codec, kernel and bit-I/O
/// layers on `inputs`, whose `get` templates are `templates`; the
/// small-frame round trip on the `small` pool's templates.
///
/// # Errors
///
/// A message on any failed call or wrong answer.
pub fn codec_layers(
    probe: &mut Probe<'_>,
    inputs: &Inputs,
    templates: &Templates,
    small: &Templates,
) -> Res<Vec<Metric>> {
    let mut out = Vec::new();
    let tensors = &inputs.tensors;
    let n = tensors.len();
    let len = |k: usize| tensors[k].len() as f64;

    // protocol: get response frames, and the small pool's request and
    // response frames (per-request fixed cost, little CRC work).
    let gets = &templates.get;
    probe.metric(&mut out, "protocol.frame_encode_ns_per_byte", n, 1.0, |k| {
        let f = Frame::response(Op::Get, k as u64, Status::Ok, &gets[k].expected);
        Ok(black_box(f.encode()).len() as f64)
    })?;
    let frames: Vec<Vec<u8>> = gets
        .iter()
        .map(|t| Frame::response(Op::Get, 1, Status::Ok, &t.expected).encode())
        .collect();
    probe.metric(&mut out, "protocol.frame_decode_ns_per_byte", n, 1.0, |k| {
        let (f, used) = Frame::decode(&frames[k], DEFAULT_MAX_BODY).map_err(|e| e.to_string())?;
        ensure(f.body.len() == gets[k].expected.len() + 1, "frame decode")?;
        Ok(used as f64)
    })?;
    let pairs: Vec<&crate::serve::Template> = small.requests().collect();
    probe.metric(
        &mut out,
        "protocol.small_frame_roundtrip_ns",
        pairs.len(),
        1.0,
        |k| {
            let t = pairs[k];
            let req = Frame::request(t.op, k as u64, t.body.clone()).encode();
            let resp = Frame::response(t.op, k as u64, Status::Ok, &t.expected).encode();
            let a = Frame::decode(&req, DEFAULT_MAX_BODY).map_err(|e| e.to_string())?;
            let b = Frame::decode(&resp, DEFAULT_MAX_BODY).map_err(|e| e.to_string())?;
            black_box((a, b));
            Ok(1.0)
        },
    )?;

    // store
    let packed = &templates.packed;
    probe.metric(&mut out, "store.crc32_ns_per_byte", n, 1.0, |k| {
        black_box(crc32(&packed[k]));
        Ok(packed[k].len() as f64)
    })?;
    let provider = MemoryProvider::new();
    write_model(&provider, inputs)?;
    let mut store = ModelStore::open(&provider, MODEL).map_err(|e| e.to_string())?;
    probe.metric(&mut out, "store.get_raw_ns_per_value", n, 1.0, |k| {
        let raw = store.get_raw(&inputs.names[k]).map_err(|e| e.to_string())?;
        ensure(raw == packed[k], "get_raw")?;
        Ok(len(k))
    })?;
    probe.metric(&mut out, "store.get_ns_per_value", n, 1.0, |k| {
        let t = store.get(&inputs.names[k]).map_err(|e| e.to_string())?;
        ensure(t.values() == tensors[k].values(), "store get")?;
        Ok(len(k))
    })?;
    let total = inputs.values() as f64;
    probe.metric(&mut out, "store.write_ns_per_value", 1, 1.0, |_| {
        write_model(&MemoryProvider::new(), inputs)?;
        Ok(total)
    })?;
    probe.metric(&mut out, "store.open_ms", 1, 1e-6, |_| {
        let s = ModelStore::open(&provider, MODEL).map_err(|e| e.to_string())?;
        ensure(s.len() == n, "store open")?;
        Ok(1.0)
    })?;

    // container
    let serve = ss_serve::ServeConfig::new();
    let mut sess = session()?;
    let mut scratch = empty_tensor();
    probe.metric(
        &mut out,
        "container.unpack_with_ns_per_value",
        n,
        1.0,
        |k| {
            container::unpack_with(&packed[k], &mut sess, &mut scratch)
                .map_err(|e| e.to_string())?;
            ensure(scratch.values() == tensors[k].values(), "unpack_with")?;
            Ok(len(k))
        },
    )?;
    probe.metric(&mut out, "container.pack_ns_per_value", n, 1.0, |k| {
        let p = container::pack_with_scheme(&tensors[k], serve.codec.group_size, serve.container)
            .map_err(|e| e.to_string())?;
        ensure(p == packed[k], "pack")?;
        Ok(len(k))
    })?;

    // core: every registered scheme through one session.
    let mut bits_per_value = Vec::new();
    for (label, id) in SCHEMES {
        let scheme = SchemeRegistry::global()
            .get(id)
            .map_err(|e| e.to_string())?;
        let mut streams = vec![SchemeStream::default(); n];
        let enc_name = metric_name("core.encode_ns_per_value", label);
        let dec_name = metric_name("core.decode_ns_per_value", label);
        probe.metric(&mut out, enc_name, n, 1.0, |k| {
            sess.encode_with_scheme(scheme, &tensors[k], IndexPolicy::Auto, &mut streams[k])
                .map_err(|e| e.to_string())?;
            Ok(len(k))
        })?;
        probe.metric(&mut out, dec_name, n, 1.0, |k| {
            sess.decode_with_scheme(scheme, &streams[k], &mut scratch)
                .map_err(|e| e.to_string())?;
            ensure(scratch.values() == tensors[k].values(), "scheme round trip")?;
            Ok(len(k))
        })?;
        let bits: u64 = streams.iter().map(|s| s.bit_len).sum();
        bits_per_value.push(Metric::new(
            metric_name("core.stored_bits_per_value", label),
            bits as f64 / total.max(1.0),
        ));
    }
    out.extend(bits_per_value);

    // kernels and bit I/O, on the groups the encoder would form.
    let mut fields = [0u64; MAX_GROUP];
    probe.metric(&mut out, "kernels.scan_gather_ns_per_value", n, 1.0, |k| {
        let t = &tensors[k];
        for g in t.values().chunks(16) {
            black_box(scan_gather(g, t.signedness(), &mut fields));
        }
        Ok(len(k))
    })?;
    let groups: Vec<Vec<(Vec<u64>, u32)>> = tensors
        .iter()
        .map(|t| {
            t.values()
                .chunks(16)
                .map(|g| {
                    let (scan, c) = scan_gather(g, t.signedness(), &mut fields);
                    (fields[..c].to_vec(), u32::from(scan.width()))
                })
                .collect()
        })
        .collect();
    let mut w = BitWriter::new();
    probe.metric(&mut out, "bitio.pack_fields_ns_per_value", n, 1.0, |k| {
        w.clear();
        for (f, bits) in &groups[k] {
            w.pack_fields(f, *bits).map_err(|e| e.to_string())?;
        }
        Ok(len(k))
    })?;
    let packed_fields: Vec<(Vec<u8>, u64)> = groups
        .iter()
        .map(|gs| {
            let mut w = BitWriter::new();
            for (f, bits) in gs {
                w.pack_fields(f, *bits).map_err(|e| e.to_string())?;
            }
            Ok((w.as_bytes().to_vec(), w.bit_len()))
        })
        .collect::<Res<_>>()?;
    probe.metric(&mut out, "bitio.read_fields_ns_per_value", n, 1.0, |k| {
        let (bytes, bit_len) = &packed_fields[k];
        let mut r = BitReader::with_bit_len(bytes, *bit_len);
        for (f, bits) in &groups[k] {
            r.read_fields(*bits, &mut fields[..f.len()])
                .map_err(|e| e.to_string())?;
            ensure(fields[..f.len()] == f[..], "read_fields")?;
        }
        Ok(len(k))
    })?;

    // wire
    probe.metric(&mut out, "wire.encode_tensor_ns_per_value", n, 1.0, |k| {
        Ok(black_box(wire::encode_tensor(&tensors[k])).len() as f64 / 4.0)
    })?;
    probe.metric(&mut out, "wire.decode_tensor_ns_per_value", n, 1.0, |k| {
        let t = wire::decode_tensor(&gets[k].expected).map_err(|e| e.to_string())?;
        ensure(t.values() == tensors[k].values(), "wire decode")?;
        Ok(len(k))
    })?;
    Ok(out)
}

fn metric_name(prefix: &str, scheme: &str) -> &'static str {
    // Leaked once per name per run: span names are `&'static str`.
    Box::leak(format!("{prefix}.{scheme}").into_boxed_str())
}

fn write_model(provider: &MemoryProvider, inputs: &Inputs) -> Res<()> {
    let mut writer = ModelWriter::new(provider, MODEL);
    for (i, (name, t)) in inputs.names.iter().zip(&inputs.tensors).enumerate() {
        writer
            .append_tensor(name, i as u32, t)
            .map_err(|e| e.to_string())?;
    }
    writer.finish().map_err(|e| e.to_string())?;
    Ok(())
}

/// ROADMAP item 5's three-way split (one-shot codec, one session, the
/// pool at `workers`), the pool's queue high water, and batch
/// throughput per direction over every scheme.
///
/// # Errors
///
/// A message on any failed call or wrong answer.
pub fn pipeline_layers(probe: &mut Probe<'_>, inputs: &Inputs, workers: usize) -> Res<Vec<Metric>> {
    let mut out = Vec::new();
    let tensors = &inputs.tensors;
    let n = tensors.len();
    let total = inputs.values() as f64;
    let one_shot = ShapeShifterCodec::new(16).with_exec(ExecPolicy::Sequential);
    probe.metric(&mut out, "pipeline.per_call_ns_per_value", n, 1.0, |k| {
        let enc = one_shot.encode(&tensors[k]).map_err(|e| e.to_string())?;
        let dec = one_shot.decode(&enc).map_err(|e| e.to_string())?;
        ensure(dec.values() == tensors[k].values(), "one-shot round trip")?;
        Ok(tensors[k].len() as f64)
    })?;
    let mut sess = session()?;
    let mut enc = ss_core::EncodedTensor::default();
    let mut dec = empty_tensor();
    probe.metric(&mut out, "pipeline.session_ns_per_value", n, 1.0, |k| {
        sess.encode_into(&tensors[k], &mut enc)
            .map_err(|e| e.to_string())?;
        sess.decode_into(&enc, &mut dec)
            .map_err(|e| e.to_string())?;
        ensure(dec.values() == tensors[k].values(), "session round trip")?;
        Ok(tensors[k].len() as f64)
    })?;
    let config = PipelineConfig::new().with_workers(workers);
    let pool = Pipeline::new(config).map_err(|e| e.to_string())?;
    probe.metric(&mut out, "pipeline.pool_ns_per_value", 1, 1.0, |_| {
        let enc = pool.encode_batch(tensors).map_err(|e| e.to_string())?;
        let dec = pool.decode_batch(&enc).map_err(|e| e.to_string())?;
        ensure(
            dec.iter()
                .zip(tensors)
                .all(|(d, t)| d.values() == t.values()),
            "pool round trip",
        )?;
        Ok(total)
    })?;
    let mut high_water = 0usize;
    for _ in 0..3 {
        let report = pool.process(tensors).map_err(|e| e.to_string())?;
        high_water = high_water.max(report.queue_high_water);
    }
    out.push(Metric::new("pipeline.queue_high_water", high_water as f64));

    let mut bench = BatchBench::new(tensors, workers)?;
    let (mut enc_rates, mut dec_rates) = (Vec::new(), Vec::new());
    let begin = Instant::now();
    while enc_rates.is_empty() || begin.elapsed() < probe.budget {
        let r = bench.round(probe.spans, 0);
        ensure(r.tally.failed == 0, "batch round trip")?;
        let vals = total * SCHEMES.len() as f64 / 1e6;
        enc_rates.push(vals / r.encode.as_secs_f64());
        dec_rates.push(vals / r.decode.as_secs_f64());
    }
    out.push(Metric::sampled(
        "batch.encode_mvals_s",
        median(&enc_rates),
        enc_rates.len(),
    ));
    out.push(Metric::sampled(
        "batch.decode_mvals_s",
        median(&dec_rates),
        dec_rates.len(),
    ));
    Ok(out)
}

/// The service and server layers on the running stack: serial
/// in-process calls, serial TCP calls, and the staged `get` whose stage
/// times should add up to the TCP latency.
///
/// # Errors
///
/// A message on any failed call or wrong answer.
pub fn serve_layers(
    probe: &mut Probe<'_>,
    stack: &mut Stack,
    templates: &Templates,
) -> Res<Vec<Metric>> {
    let mut out = Vec::new();
    let reqs: Vec<&crate::serve::Template> = templates.requests().collect();
    let handle = stack.service.handle();
    let (inproc_ns, inproc_calls) = probe.time("service.call", reqs.len(), |k| {
        let t = reqs[k];
        let r = handle
            .call(t.op, t.body.clone())
            .map_err(|e| e.to_string())?;
        ensure(
            r.status == Status::Ok && r.payload == t.expected,
            "in-process call",
        )?;
        Ok(1.0)
    })?;
    let mut id = 1u64 << 40;
    let (tcp_ns, _) = probe.time("server.tcp_call", reqs.len(), |k| {
        let t = reqs[k];
        id += 1;
        ensure(stack.call(t.op, &t.body, id)? == t.expected, "tcp call")?;
        Ok(1.0)
    })?;
    out.push(Metric::sampled(
        "service.inproc_call_us",
        inproc_ns / 1e3,
        inproc_calls,
    ));
    out.push(Metric::new(
        "server.tcp_overhead_us",
        (tcp_ns - inproc_ns) / 1e3,
    ));

    // Staged get: the server's steps plus the client's frame decode, run
    // serially in this thread, against a serial TCP get of the same record.
    let provider = std::sync::Arc::clone(&stack.provider);
    let mut store = ModelStore::open(provider.as_ref(), MODEL).map_err(|e| e.to_string())?;
    let mut sess = session()?;
    let mut scratch = empty_tensor();
    let gets = &templates.get;
    let n = gets.len();
    let requests: Vec<Vec<u8>> = gets
        .iter()
        .enumerate()
        .map(|(k, t)| Frame::request(Op::Get, k as u64, t.body.clone()).encode())
        .collect();
    let mut staged: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut tcp: Vec<Vec<f64>> = vec![Vec::new(); n];
    let begin = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || begin.elapsed() < probe.budget {
        for k in 0..n {
            let rid = (pass << 20) | k as u64;
            let mut off = SpanBuf::new(Instant::now(), 0, false);
            let spans = if pass < 8 {
                &mut *probe.spans
            } else {
                &mut off
            };
            let t0 = Instant::now();
            let parent = spans.record("serve.staged_get", t0, t0, None, rid);
            let mut stage = |name: &'static str, from: Instant| {
                let now = Instant::now();
                spans.record(name, from, now, parent, rid);
                now
            };
            let (frame, _) =
                Frame::decode(&requests[k], DEFAULT_MAX_BODY).map_err(|e| e.to_string())?;
            let t1 = stage("protocol.request_decode", t0);
            let (_, record) = wire::decode_get(&frame.body).map_err(|e| e.to_string())?;
            let t2 = stage("wire.decode_get", t1);
            let raw = store.get_raw(&record).map_err(|e| e.to_string())?;
            let t3 = stage("store.get_raw", t2);
            container::unpack_with(&raw, &mut sess, &mut scratch).map_err(|e| e.to_string())?;
            let t4 = stage("container.unpack_with", t3);
            let payload = wire::encode_tensor(&scratch);
            let t5 = stage("wire.encode_tensor", t4);
            let resp = Frame::response(Op::Get, frame.request_id, Status::Ok, &payload).encode();
            let t6 = stage("protocol.response_encode", t5);
            let (back, _) = Frame::decode(&resp, DEFAULT_MAX_BODY).map_err(|e| e.to_string())?;
            let t7 = stage("protocol.client_decode", t6);
            if let Some(p) = parent {
                spans.spans[p].end_ns = spans.spans[p].start_ns + (t7 - t0).as_nanos() as u64;
            }
            ensure(back.body[1..] == gets[k].expected[..], "staged get")?;
            staged[k].push((t7 - t0).as_nanos() as f64);

            let t = Instant::now();
            ensure(
                stack.call(Op::Get, &gets[k].body, rid)? == gets[k].expected,
                "serial tcp get",
            )?;
            let d = Instant::now() - t;
            if pass < 8 {
                probe.spans.record("server.tcp_get", t, t + d, None, rid);
            }
            tcp[k].push(d.as_nanos() as f64);
        }
        pass += 1;
    }
    let staged_sum: f64 = staged.iter().map(|v| median(v)).sum();
    let tcp_sum: f64 = tcp.iter().map(|v| median(v)).sum();
    out.push(Metric::sampled(
        "serve.stage_sum_share",
        staged_sum / tcp_sum,
        n * pass as usize,
    ));
    out.push(Metric::new(
        "serve.stage_residual_us",
        (tcp_sum - staged_sum) / n as f64 / 1e3,
    ));
    Ok(out)
}
