//! # copa-alloc
//!
//! COPA's power allocation algorithms:
//!
//! * [`stream`] -- per-stream allocators: Equi-SNR (the paper's
//!   Algorithm 1), Equi-SINR, mercury/waterfilling, classic Gaussian
//!   waterfilling, and the stock equal-power baseline.
//! * [`concurrent`] -- the coupled two-AP iteration of the paper's
//!   Figure 6, with best-solution memory since the iteration may regress.
//!
//! Each problem has one form, and it borrows: [`StreamProblem`] points at
//! one stream's gains (and, optionally, its interference), and
//! [`ConcurrentProblem`] at both APs' own and cross gain grids, so callers
//! hand the allocators their precoder buffers without cloning. The cross
//! gains come from [`copa_precoding::cross_gain_grid_into`]. Every allocator
//! has an allocating form; Equi-SINR and the Figure 6 iteration also have
//! `_into` forms that reuse caller-owned scratch and output slots.

#![warn(missing_docs)]

pub mod concurrent;
pub mod stream;

pub use concurrent::{allocate_concurrent, AllocatorKind, ConcurrentProblem, ConcurrentSolution};
pub use stream::{
    allocation_only, equal_power, equi_sinr, mercury_best, selection_only, waterfilling,
    StreamAllocation, StreamProblem,
};
