#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Fixed-point tensors and data-width arithmetic for ShapeShifter.
//!
//! ShapeShifter (MICRO 2019) operates on fixed-point weights and activations
//! whose *container* width (the number of bits allotted per value in memory
//! and in the datapath) is adapted per group of 16–256 values. This crate
//! provides the value model everything else builds on:
//!
//! * [`Tensor`] — a shaped buffer of `i32` fixed-point values with a declared
//!   container type ([`FixedType`]: width 1–16 bits, signed or unsigned).
//! * [`width`] — the width-needed arithmetic of the paper's Figure 5c
//!   hardware detector: sign-magnitude conversion with the sign at the LSB,
//!   per-value width, per-group width (the OR-tree + leading-1 semantics),
//!   and whole-tensor profiled width.
//!
//! Groups are runs of `group_size` adjacent values along the innermost
//! (channel) dimension, the granularity at which ShapeShifter adapts;
//! callers form them with `values().chunks(group_size)`, the last one
//! possibly shorter.
//!
//! # Examples
//!
//! ```
//! use ss_tensor::{FixedType, Shape, Tensor};
//!
//! # fn main() -> Result<(), ss_tensor::TensorError> {
//! // A 2x4 signed 8-bit tensor.
//! let t = Tensor::from_vec(
//!     Shape::new(vec![2, 4]),
//!     FixedType::signed(8)?,
//!     vec![1, -3, 0, 7, 0, 0, -120, 5],
//! )?;
//! assert_eq!(t.len(), 8);
//! // Per-value width: -120 needs 7 magnitude bits + 1 sign bit.
//! assert_eq!(ss_tensor::width::value_width(-120, t.dtype().signedness()), 8);
//! # Ok(())
//! # }
//! ```

mod dtype;
mod error;
mod shape;
pub mod stats;
mod tensor;
pub mod width;

pub use dtype::{FixedType, Signedness};
pub use error::TensorError;
pub use shape::Shape;
pub use stats::{GroupStats, TensorStats};
pub use tensor::Tensor;
