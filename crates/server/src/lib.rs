//! A concurrent query service over provenance-semiring databases.
//!
//! This crate turns the paper's machinery — K-relations, RA⁺ plans, datalog
//! fixpoints, incremental view maintenance — into a long-lived service:
//!
//! * [`service::Service`] serves one [`provsem_core::SharedDatabase`]:
//!   readers run against immutable epoch-stamped snapshots, writers commit
//!   delta batches that advance every standing view before publishing.
//! * [`protocol`] defines the line protocol (`QUERY`, `DATALOG`, `COMMIT`,
//!   `DEFINE`/`DROP`/`VIEW`, `PIN`/`UNPIN`, …) with canonical, byte-stable
//!   response rendering, and every failure surfaced as a structured `err`
//!   reply.
//! * [`cache::PlanCache`] caches plans keyed by *(catalog epoch, normalized
//!   query)* — commits invalidate implicitly, because a plan built against
//!   epoch *e*'s catalog (cardinalities included) is only valid at *e*.
//! * [`tcp`] is a thread-per-connection front-end;
//!   `tests/replay_determinism.rs` pins concurrent execution against
//!   single-threaded replay.
//!
//! The epoch-in-every-reply design is what makes the service *testable*:
//! a recorded concurrent run can be replayed serially by pinning each
//! request to the epoch its original reply reported, and the rendered
//! response bytes must be identical.

#![warn(missing_docs)]

pub mod cache;
pub mod protocol;
pub mod ra_parse;
pub mod service;
pub mod tcp;
pub mod wire;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::cache::{CacheStats, PlanCache};
    pub use crate::protocol::{CommitItem, ErrorKind, Request, Response};
    pub use crate::ra_parse::{normalize, parse_ra, RaParseError};
    pub use crate::service::{Service, Session};
    pub use crate::tcp::{serve, Client, ServerHandle};
    pub use crate::wire::{parse_value, render_value, WireSemiring};
}

pub use prelude::*;
