//! # jem-energy — cycle-approximate energy simulation substrate
//!
//! This crate reproduces the energy-accounting model used by the paper
//! *Energy-Aware Compilation and Execution in Java-Enabled Mobile
//! Devices* (Chen et al., IPPS 2003). The paper obtained client-side
//! energy numbers from a customized Shade + SimplePower simulator that
//! charged a fixed energy per executed instruction class (their Fig 1),
//! a fixed energy per main-memory access, and modeled an 8 KB
//! direct-mapped data cache plus a 16 KB instruction cache on a 100 MHz
//! microSPARC-IIep-like five-stage pipeline.
//!
//! We implement exactly that accounting scheme:
//!
//! * [`units`] — strongly typed energy / time / power quantities,
//! * [`itable`] — the per-instruction-class energy table (paper Fig 1),
//! * [`cache`] — a direct-mapped cache simulator with hit/miss stats,
//! * [`machine`] — the simulated machine: executes abstract instruction
//!   events, accumulates cycles and per-component energy, and models
//!   CPU power states (including the 10 %-leakage power-down state the
//!   paper uses while a method executes remotely),
//! * [`meter`] — hierarchical per-component energy breakdown reports.
//!
//! Instruction *streams* are produced elsewhere (by the MJVM
//! interpreter and JIT-generated native code in `jem-jvm`); this crate
//! only prices them.

#![warn(missing_docs)]

pub mod cache;
pub mod itable;
pub mod machine;
pub mod meter;
pub mod units;

pub use cache::{CacheConfig, CacheSim, CacheState, CacheStats};
pub use itable::{EnergyTable, InstrClass, InstrMix};
pub use machine::{Machine, MachineConfig, MachineState, MemOp, PowerState, SeqDataRef, SeqPlan};
pub use meter::{Component, EnergyBreakdown};
pub use units::{Energy, Power, SimTime};
