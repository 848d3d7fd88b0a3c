//! `flowc-serve`: a long-running, fault-contained synthesis service over
//! the COMPACT pipeline.
//!
//! The service turns one-shot CLI synthesis into an HTTP/1.1 job API
//! (hand-rolled over [`std::net`]; no dependencies) built for graceful
//! overload behavior:
//!
//! - **Bounded priority queue** ([`queue`]): a full queue rejects with
//!   `429 queue_full` + `retry_after_ms` — never unbounded buffering.
//! - **Deadline-aware admission** ([`admission`]): per-rung EWMA latency
//!   estimates decide up front whether a job's deadline is feasible at
//!   the requested degradation-ladder rung, at a cheaper rung (the job is
//!   admitted degraded), or not at all (`422 deadline_infeasible`).
//! - **Circuit breaker** ([`breaker`]): failure-rate or queue-depth trips
//!   flip the server to reject-fast (`503 breaker_open`); a half-open
//!   probe decides recovery, with exponential cooldown on repeated trips.
//! - **Fault containment** ([`server`]): panic-isolated workers restarted
//!   by a supervisor with exponential backoff; a crash fails only the
//!   in-flight job (typed `worker_crashed`), never the service.
//! - **End-to-end cancellation**: every job owns a deadline-bearing
//!   [`flowc_budget::Budget`]; `POST /cancel` fires its cancel flag and
//!   the solvers abort mid-flight within milliseconds.
//! - **Shared artifact cache**: jobs land on one of N session shards by
//!   BDD content key, so identical circuits reuse BDD/graph artifacts
//!   across requests (hit rates exported at `/metrics`).
//! - **Crash durability** ([`journal`]): with `--journal <dir>`, every
//!   job lifecycle transition is written ahead to a CRC32-framed,
//!   segment-rotated log; a restarted server replays it (tolerating a
//!   torn tail), restores finished results, re-enqueues interrupted
//!   jobs, and deduplicates resubmission by client-supplied job key.
//!
//! Endpoints: `POST /submit`, `GET /status?id=`, `GET /result?id=`,
//! `POST /cancel`, `GET /metrics`, `GET /healthz`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod client;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;

pub use admission::{Admission, Infeasible, LatencyModel};
pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use jobs::JobState;
pub use journal::{Journal, JournalConfig, JournalStats};
pub use protocol::{parse_patch, parse_submit, PatchDirective, PatchRequest, SubmitSpec};
pub use server::{Recovery, ServeConfig, Server};
