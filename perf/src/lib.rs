//! # jem-perf — host-time benchmark of the jem simulator
//!
//! Four workloads ([`bench::Kind`]) measured end to end (set-up time,
//! invocations per host second, peak memory) and layer by layer
//! (JIT passes, interpreter, native execution, decisions, remote
//! path, sinks, checkpoints), with every output checked. See the
//! package README for the metric catalogue and the method.

pub mod attrib;
pub mod bench;
pub mod catalogue;
pub mod check;
pub mod compare;
pub mod jitpass;
pub mod report;
pub mod stats;
