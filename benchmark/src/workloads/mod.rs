//! The four workloads. Each runs setup, warm-up, its measured phase and
//! crash, cold recovery and verification, and returns an `Outcome`.

pub mod crash_recover;
pub mod embedded_read_mostly;
pub mod embedded_update;
pub mod net_mixed;
