#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Analytic-cycle accelerator, memory and energy simulators for the
//! ShapeShifter evaluation (paper §5).
//!
//! The paper models its designs with a custom cycle-accurate simulator,
//! 65 nm synthesis/layout for power and area, and CACTI for SRAMs. None of
//! that toolchain is available here, so — per the substitution policy of
//! `DESIGN.md` §4 — this crate models every design with **explicit analytic
//! throughput laws** plus a DDR4 bandwidth model and an energy model with
//! published-magnitude per-operation constants. Each layer's execution time
//! is `max(compute cycles, memory cycles)` and each figure's quantities are
//! *relative*, which the first-order model preserves: the paper's speedups
//! come from serial-cycle counts proportional to effective widths and from
//! DRAM stalls, both of which are computed exactly here.
//!
//! Simulated designs:
//!
//! * [`accel::DaDianNao`] — the bit-parallel baseline (`DaDianNao*`).
//! * [`accel::Stripes`] — activation-bit-serial, per-layer profiled widths.
//! * [`accel::SStripes`] — the paper's second contribution: Stripes with
//!   per-group dynamic widths (EOG early termination) and the Composer.
//! * [`accel::BitFusion`] — the spatial-first fused-PE comparison point.
//! * [`accel::Scnn`] — the sparse accelerator of §5.1.3.
//! * [`accel::Loom`] — weight-and-activation bit-serial (§5.3).
//!
//! plus [`mem`] (DDR4 + on-chip buffer/tiling model), [`energy`], the
//! [`sim`] driver that binds a model, an accelerator and a compression
//! scheme into per-layer and whole-network results, and [`fusion`] (layer
//! fusion, Figure 11).

pub mod accel;
pub mod area;
pub mod energy;
mod error;
pub mod fusion;
pub mod mem;
pub mod sim;
pub mod sip;
pub mod tile;
pub mod workload;

pub use accel::Accelerator;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::SimError;
pub use mem::{BufferConfig, DramConfig};
pub use sim::{stall_cycles, LayerResult, RunResult, SimConfig};
pub use workload::TensorSource;
