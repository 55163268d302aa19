//! Attack/defense-as-a-service on the existing workspace stack.
//!
//! `bbgnn-serve` turns the scenario layer into a long-running service:
//! clients `POST /jobs` a [`JobSpec`](bbgnn_scenario::job::JobSpec) (the
//! same typed spec the bench binaries run), poll `GET /jobs/:id` for
//! progress snapshots — or subscribe to `GET /jobs/:id/events` for a live
//! SSE stream of them — and `DELETE /jobs/:id` to cancel. A pool of
//! `--workers N` job runners executes submissions concurrently; each job
//! runs under its own supervision scope, so a cancel, deadline, or
//! exhausted budget stops exactly that job and never a co-tenant (SIGINT
//! still drains everything — it cancels the process root scope, which
//! every job scope observes).
//! Queued jobs dequeue instantly on DELETE; running jobs wind down
//! cooperatively at the same check sites SIGINT uses. Completed results
//! are shared through the content-addressed store, so a duplicate
//! submission (same graph, config, and seed — the spec [`fingerprint`])
//! replays the recorded value with zero training work.
//!
//! Wire format, queue/admission semantics, and the store-sharing
//! anti-aliasing rules are specified in DESIGN.md §12; `README.md` has a
//! curl walkthrough.
//!
//! Layering:
//!
//! * [`http`] — the hand-rolled, bounded HTTP/1.1 subset with keep-alive
//!   and SSE framing (no deps);
//! * [`state`] — job table, bounded FIFO queue, store-backed records;
//! * [`server`] — accept loop, per-connection threads, the worker pool.
//!
//! [`fingerprint`]: bbgnn_scenario::job::JobSpec::fingerprint

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod http;
pub mod server;
pub mod state;

pub use server::Server;
pub use state::{JobPhase, JobRecord, Refused, ServerState};
