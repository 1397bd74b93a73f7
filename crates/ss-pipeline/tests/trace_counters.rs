// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! The engine's observability contract: one `process` call lands the
//! `pipeline_*` counters on the installed recorder. Its own integration
//! binary because `ss_trace::install` is process-wide (first install
//! wins) — sharing a process with other recorder tests would race.

use ss_pipeline::{Pipeline, PipelineConfig};
use ss_tensor::{FixedType, Shape, Tensor};
use ss_trace::{Counter, TraceRecorder};

#[test]
fn process_records_the_pipeline_counters() {
    let batch: Vec<Tensor> = (0..6)
        .map(|i| {
            let vals = (0..500).map(|v| ((v * 11 + i) % 23) - 11).collect();
            Tensor::from_vec(Shape::flat(500), FixedType::I16, vals).unwrap()
        })
        .collect();
    let pipeline = Pipeline::new(PipelineConfig::new().with_workers(2)).unwrap();

    // Nothing is recorded while no recorder is installed.
    assert!(ss_trace::installed().is_none(), "test must start untraced");
    pipeline.process(&batch).unwrap();

    assert!(ss_trace::install(TraceRecorder::new()), "first install");
    let rec = ss_trace::installed().unwrap();
    pipeline.process(&batch).unwrap();

    assert_eq!(rec.counter(Counter::PipelineBatches), 1);
    assert_eq!(rec.counter(Counter::PipelineTensors), batch.len() as u64);
    // Both verification stages ran, so every busy counter is live.
    assert!(rec.counter(Counter::PipelineEncodeBusyNanos) > 0);
    assert!(rec.counter(Counter::PipelineMeasureBusyNanos) > 0);
    assert!(rec.counter(Counter::PipelineDecodeBusyNanos) > 0);

    // A second batch accumulates rather than overwrites.
    pipeline.process(&batch).unwrap();
    assert_eq!(rec.counter(Counter::PipelineBatches), 2);
    assert_eq!(
        rec.counter(Counter::PipelineTensors),
        2 * batch.len() as u64
    );
}
