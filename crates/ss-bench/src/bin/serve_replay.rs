//! Replay a deterministic request schedule through the `ss-serve`
//! service and gate its contracts.
//!
//! The schedule is a Poisson-like arrival process — memoryless
//! geometric inter-arrival gaps (the discrete analogue of exponential
//! spacing), with superimposed bursts where many requests land on one
//! tick — generated integer-only from a fixed seed, so the request
//! sequence is bit-identical on every host. Requests mix the three work
//! ops (encode / decode / get) against a synthetic model store.
//!
//! Four gates fail the process (exit 1) when violated:
//!
//! 1. **Response determinism** — a chained FNV-1a hash over every work
//!    op's `(op, index, status, payload)` in submission order, identical
//!    across runs and `SS_THREADS` settings. Stats/health bodies carry
//!    live counters and are deliberately excluded from the chain.
//! 2. **Typed overload** — a not-yet-started probe service with a tiny
//!    queue admits exactly `queue_depth` requests and answers every
//!    further submission `Overloaded`; the admitted set then flushes
//!    completely once the pool starts.
//! 3. **Zero-loss drain** — after the replay, a drain refuses new work
//!    (typed) and `Service::shutdown` reports exactly the predicted
//!    completion count: every admitted request answered, none lost.
//! 4. **TCP round trip** — the SSRP framing serves each work op over a
//!    real socket with payloads matching the in-process results.
//!
//! Output follows the `store_roundtrip` split:
//!
//! * `BENCH_serve.json` (override with `SS_BENCH_SERVE_OUT`) holds only
//!   deterministic fields — configuration, schedule accounting, traffic
//!   counts, the response hash, gate verdicts — and must be
//!   byte-identical across runs, hosts and `SS_THREADS`.
//! * `BENCH_serve_timings.json` (override with
//!   `SS_BENCH_SERVE_TIMINGS_OUT`) holds throughput and latency
//!   percentiles; rewritten only under `--update-timings`.
//!
//! `--smoke` shrinks the schedule (same code paths, sub-second) and
//! skips file output unless `SS_BENCH_SERVE_OUT` is explicitly set —
//! `scripts/tier1.sh` runs it as the serve smoke test, and
//! `scripts/analysis.sh` byte-diffs two runs (at different `SS_THREADS`)
//! as the determinism gate.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use ss_core::checksum::{fnv1a_update, FNV_OFFSET};
use ss_serve::wire::{encode_get, encode_tensor};
use ss_serve::{Client, Op, PendingReply, ServeConfig, ServeError, Server, Service, Status};
use ss_store::{MemoryProvider, ModelWriter};
use ss_tensor::{FixedType, Shape, Tensor};
use ss_trace::LatencyHist;

const SEED: u64 = 0x5E12_7E9A_5EED;
const MODEL: &str = "zoo";
const QUEUE_DEPTH: usize = 256;
/// Submission window: deepest pipelining the replay drives. Below the
/// queue depth so the measured path never hits Overloaded (the overload
/// contract has its own deterministic probe).
const WINDOW: usize = 128;
/// Full run: requests and mean inter-arrival gap (ticks).
const FULL: (usize, u64) = (8000, 40);
/// Smoke run: same code paths (bursts, every op, drain), sub-second.
const SMOKE: (usize, u64) = (600, 40);

/// splitmix64: the integer-only deterministic generator used across the
/// ss-bench harness.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Memoryless inter-arrival gap: trials until a success of probability
/// `1/mean` (geometric — the discrete exponential), capped at 16× the
/// mean so one unlucky draw cannot stretch the schedule unboundedly.
fn geometric_gap(state: &mut u64, mean: u64) -> u64 {
    let mut gap = 0u64;
    while gap < mean * 16 {
        if next_u64(state).is_multiple_of(mean) {
            break;
        }
        gap += 1;
    }
    gap
}

/// One scheduled request.
struct Arrival {
    tick: u64,
    op: Op,
    /// Index into the tensor pool (encode/decode) or record list (get).
    pick: usize,
}

/// The deterministic Poisson+burst schedule.
fn schedule(requests: usize, mean_gap: u64) -> Vec<Arrival> {
    let mut state = SEED;
    let mut arrivals = Vec::with_capacity(requests);
    let mut tick = 0u64;
    while arrivals.len() < requests {
        tick += geometric_gap(&mut state, mean_gap);
        // One in eight arrivals is a burst: 4–19 requests on one tick —
        // the arrival pattern the bounded queue exists to absorb.
        let r = next_u64(&mut state);
        let burst = (if r.is_multiple_of(8) {
            4 + (r >> 8) % 16
        } else {
            1
        }) as usize;
        for _ in 0..burst.min(requests - arrivals.len()) {
            let r = next_u64(&mut state);
            // Op mix: half encode, ~a third decode, the rest get.
            let op = match r % 12 {
                0..=5 => Op::Encode,
                6..=9 => Op::Decode,
                _ => Op::Get,
            };
            arrivals.push(Arrival {
                tick,
                op,
                pick: (r >> 16) as usize,
            });
        }
    }
    arrivals
}

/// The tensor pool requests draw from: varied shapes, widths and value
/// ranges, all deterministic from the seed.
fn tensor_pool() -> Vec<Tensor> {
    let mut state = SEED ^ 0xF00D;
    (0..16)
        .map(|_| {
            let r = next_u64(&mut state);
            let len = 64 + (r % 960) as usize;
            let spread = 1 + (r >> 32) % 2000;
            let vals = (0..len as i64)
                .map(|i| {
                    let x = next_u64(&mut state) % (2 * spread + 1);
                    (x as i64 - spread as i64 + (i % 3)) as i32
                })
                .map(|v| v.clamp(-32768, 32767))
                .collect();
            Tensor::from_vec(Shape::flat(len), FixedType::I16, vals).expect("pool tensor")
        })
        .collect()
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let update_timings = args.iter().any(|a| a == "--update-timings");

    let (requests, mean_gap) = if smoke { SMOKE } else { FULL };
    let mode = if smoke { "smoke" } else { "full" };
    let out_override = std::env::var("SS_BENCH_SERVE_OUT").ok();
    let timings_out = std::env::var("SS_BENCH_SERVE_TIMINGS_OUT")
        .unwrap_or_else(|_| "BENCH_serve_timings.json".into());

    // The workload: a tensor pool and a small model store for gets.
    let pool = tensor_pool();
    let records: Vec<String> = (0..pool.len())
        .map(|i| format!("layer{i}.weight"))
        .collect();
    let provider = Arc::new(MemoryProvider::new());
    let mut writer = ModelWriter::new(provider.as_ref(), MODEL);
    for (i, (name, t)) in records.iter().zip(&pool).enumerate() {
        writer.append_tensor(name, i as u32, t).expect("append");
    }
    writer.finish().expect("finish");

    let arrivals = schedule(requests, mean_gap);
    let ticks = arrivals.last().map_or(0, |a| a.tick);
    let mut bursts = 0usize;
    let mut max_burst = 0usize;
    {
        let mut i = 0;
        while i < arrivals.len() {
            let j = arrivals[i].tick;
            let width = arrivals[i..].iter().take_while(|a| a.tick == j).count();
            if width > 1 {
                bursts += 1;
            }
            max_burst = max_burst.max(width);
            i += width;
        }
    }
    let mut schedule_hash = FNV_OFFSET;
    for a in &arrivals {
        schedule_hash = fnv1a_update(schedule_hash, &a.tick.to_le_bytes());
        schedule_hash = fnv1a_update(schedule_hash, &[a.op.to_byte()]);
    }
    println!(
        "serve_replay ({mode}): {requests} requests over {ticks} ticks, \
         {bursts} bursts (max {max_burst}), window {WINDOW}, queue {QUEUE_DEPTH}"
    );

    // The service under test. workers=0 follows SS_THREADS — the
    // determinism gate must hold across pool sizes.
    let mut service = Service::new(
        ServeConfig::new()
            .with_workers(0)
            .with_queue_depth(QUEUE_DEPTH),
    )
    .expect("service");
    service.add_model(MODEL, Arc::clone(&provider) as _);
    service.start();
    let handle = service.handle();

    // Pre-pack containers for decode requests through the service
    // itself (also warms each worker's session).
    let containers: Vec<Vec<u8>> = pool
        .iter()
        .map(|t| handle.encode(t).expect("pre-pack"))
        .collect();

    // Replay: submit in schedule order keeping up to WINDOW in flight,
    // hash responses in submission order. Completion order varies with
    // the worker count; the hash must not.
    let mut responses_hash = FNV_OFFSET;
    let mut op_counts = [0u64; 3];
    let mut request_bytes = 0u64;
    let mut response_bytes = 0u64;
    let mut all_ok = true;
    let mut in_flight: std::collections::VecDeque<(usize, Op, PendingReply)> =
        std::collections::VecDeque::new();
    let t0 = Instant::now();
    for (index, a) in arrivals.iter().enumerate() {
        let body = match a.op {
            Op::Encode => encode_tensor(&pool[a.pick % pool.len()]),
            Op::Decode => containers[a.pick % containers.len()].clone(),
            Op::Get => encode_get(MODEL, &records[a.pick % records.len()]),
            _ => unreachable!("schedule only emits work ops"),
        };
        op_counts[match a.op {
            Op::Encode => 0,
            Op::Decode => 1,
            _ => 2,
        }] += 1;
        request_bytes += body.len() as u64;
        while in_flight.len() >= WINDOW {
            let (i, op, pending) = in_flight.pop_front().expect("non-empty window");
            let response = pending.wait().expect("admitted work replies");
            all_ok &= response.status == Status::Ok;
            response_bytes += response.payload.len() as u64;
            responses_hash = fnv1a_update(responses_hash, &[op.to_byte()]);
            responses_hash = fnv1a_update(responses_hash, &(i as u64).to_le_bytes());
            responses_hash = fnv1a_update(responses_hash, &[response.status.to_byte()]);
            responses_hash = fnv1a_update(responses_hash, &response.payload);
        }
        let pending = handle
            .submit(a.op, body)
            .expect("window below queue depth: admission cannot fail");
        in_flight.push_back((index, a.op, pending));
    }
    while let Some((i, op, pending)) = in_flight.pop_front() {
        let response = pending.wait().expect("admitted work replies");
        all_ok &= response.status == Status::Ok;
        response_bytes += response.payload.len() as u64;
        responses_hash = fnv1a_update(responses_hash, &[op.to_byte()]);
        responses_hash = fnv1a_update(responses_hash, &(i as u64).to_le_bytes());
        responses_hash = fnv1a_update(responses_hash, &[response.status.to_byte()]);
        responses_hash = fnv1a_update(responses_hash, &response.payload);
    }
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "replay: {} encode / {} decode / {} get — {request_bytes} request bytes, \
         {response_bytes} response bytes  ({replay_ms:.2} ms)",
        op_counts[0], op_counts[1], op_counts[2]
    );
    println!("responses: all ok {all_ok}, hash {responses_hash:016x}");

    // Stats/health answer (live bodies, excluded from the hash).
    let stats_ok = handle
        .stats()
        .expect("stats")
        .contains("\"schema\":\"ss-serve-stats-v1\"")
        && handle
            .health()
            .expect("health")
            .contains("\"schema\":\"ss-serve-health-v1\"");

    // Gate 4: the same ops over a real SSRP socket.
    let tcp_ok = {
        let server = Server::start(handle.clone(), "127.0.0.1:0").expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let t = &pool[0];
        let packed = client.encode(t).expect("tcp encode");
        let ok = client.decode(&packed).expect("tcp decode") == *t
            && client.get(MODEL, &records[3]).expect("tcp get") == pool[3]
            && client
                .health()
                .expect("tcp health")
                .contains("ss-serve-health-v1");
        server.stop();
        ok
    };
    println!("tcp round trip: {}", if tcp_ok { "PASS" } else { "FAIL" });

    // Gate 3: drain refuses new work (typed), then shutdown answers
    // exactly the predicted request count: the replay's work ops plus
    // pre-pack encodes plus every control call above.
    handle.drain().expect("drain");
    let drain_typed = matches!(
        handle.submit(Op::Encode, encode_tensor(&pool[0])),
        Err(ServeError::Draining)
    );
    // Latency percentiles for the timings half, read before shutdown.
    let percentiles: Vec<(LatencyHist, u64, u64, u64, u64)> = [
        LatencyHist::ServeEncodeNanos,
        LatencyHist::ServeDecodeNanos,
        LatencyHist::ServeGetNanos,
    ]
    .iter()
    .map(|&h| {
        let c = handle.trace().latency(h);
        (
            h,
            c.total(),
            c.p50().unwrap_or(0),
            c.p99().unwrap_or(0),
            c.p999().unwrap_or(0),
        )
    })
    .collect();
    let report = service.shutdown();
    // TCP phase: 3 work ops + 1 health; in-process: 2 control + 1 drain.
    let expected_completed = requests as u64 + containers.len() as u64 + 3 + 1 + 3;
    let drain_zero_loss = drain_typed && report.completed == expected_completed;
    println!(
        "drain: typed refusal {drain_typed}, completed {} (expected {expected_completed}), \
         high water {}: {}",
        report.completed,
        report.queue_high_water,
        if drain_zero_loss { "PASS" } else { "FAIL" }
    );

    // Gate 2: deterministic overload probe — no workers running, so
    // admissions cannot race; the queue takes exactly its depth.
    let overload_typed = {
        let probe_depth = 8usize;
        let mut probe = Service::new(
            ServeConfig::new()
                .with_workers(1)
                .with_queue_depth(probe_depth),
        )
        .expect("probe service");
        let ph = probe.handle();
        let body = encode_tensor(&pool[1]);
        let admitted: Vec<PendingReply> = (0..probe_depth)
            .map(|_| ph.submit(Op::Encode, body.clone()).expect("fits the queue"))
            .collect();
        let rejected = (0..4)
            .filter(|_| {
                matches!(
                    ph.submit(Op::Encode, body.clone()),
                    Err(ServeError::Overloaded)
                )
            })
            .count();
        probe.start();
        let flushed = admitted
            .into_iter()
            .map(PendingReply::wait)
            .filter(|r| {
                r.as_ref()
                    .map(|resp| resp.status == Status::Ok)
                    .unwrap_or(false)
            })
            .count();
        let probe_report = probe.shutdown();
        rejected == 4 && flushed == probe_depth && probe_report.completed == probe_depth as u64
    };
    println!(
        "overload probe: {}",
        if overload_typed { "PASS" } else { "FAIL" }
    );

    let json = format!(
        r#"{{
  "config": {{
    "mode": "{mode}",
    "seed": "{SEED:x}",
    "requests": {requests},
    "mean_gap_ticks": {mean_gap},
    "window": {WINDOW},
    "queue_depth": {QUEUE_DEPTH},
    "tensor_pool": {pool_len},
    "model": "{MODEL}"
  }},
  "schedule": {{
    "ticks": {ticks},
    "bursts": {bursts},
    "max_burst": {max_burst},
    "hash": "{schedule_hash:016x}"
  }},
  "traffic": {{
    "encode": {enc},
    "decode": {dec},
    "get": {get},
    "request_bytes": {request_bytes},
    "response_bytes": {response_bytes},
    "completed": {completed}
  }},
  "hashes": {{
    "responses_hash": "{responses_hash:016x}"
  }},
  "gates": {{
    "responses_all_ok": {all_ok},
    "overload_typed": {overload_typed},
    "drain_zero_loss": {drain_zero_loss},
    "stats_schema_ok": {stats_ok},
    "tcp_roundtrip_ok": {tcp_ok}
  }}
}}
"#,
        pool_len = pool.len(),
        enc = op_counts[0],
        dec = op_counts[1],
        get = op_counts[2],
        completed = report.completed,
    );
    match (&out_override, smoke) {
        (None, true) => println!(
            "smoke mode: deterministic JSON not persisted (set SS_BENCH_SERVE_OUT to write)"
        ),
        (maybe_out, _) => {
            let out = maybe_out.as_deref().unwrap_or("BENCH_serve.json");
            std::fs::File::create(out)?.write_all(json.as_bytes())?;
            println!("wrote {out}");
        }
    }

    if update_timings {
        let rps = requests as f64 / (replay_ms / 1e3);
        let mut latency = String::new();
        for (i, (h, total, p50, p99, p999)) in percentiles.iter().enumerate() {
            if i > 0 {
                latency.push_str(",\n");
            }
            latency.push_str(&format!(
                "    \"{}\": {{ \"total\": {total}, \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"p999_ns\": {p999} }}",
                h.name()
            ));
        }
        let json = format!(
            "{{\n  \"replay_ms\": {replay_ms:.3},\n  \"requests_per_sec\": {rps:.1},\n  \"latency\": {{\n{latency}\n  }}\n}}\n"
        );
        std::fs::File::create(&timings_out)?.write_all(json.as_bytes())?;
        println!("wrote {timings_out}");
    } else {
        println!("timings not persisted (rerun with --update-timings to rewrite {timings_out})");
    }

    let pass = all_ok && overload_typed && drain_zero_loss && stats_ok && tcp_ok;
    if !pass {
        eprintln!("serve gates: FAIL");
        std::process::exit(1);
    }
    println!("serve gates: PASS");
    Ok(())
}
