//! # qmkp-serve — multi-tenant solve service
//!
//! Serves the degradation ladder (`qmkp::solve`) to many concurrent
//! tenants:
//!
//! * [`SolveService`] — bounded admission queues (a full lane rejects
//!   immediately, it never blocks the submitter), a worker pool sharded
//!   by the preflight cost model (`sparse` / `classical` lanes so cheap
//!   classical requests never queue behind statevector runs), and
//!   per-request budgets + cooperative cancellation: every
//!   request runs under its own [`qmkp_rt::RtContext`], so cancelling
//!   one ticket touches nothing else.
//! * [`OracleCache`] — a shared compiled-oracle cache keyed by
//!   `(Graph::digest(), k, t)` with LRU eviction under a byte ceiling
//!   and single-flight compilation: N concurrent requests for the same
//!   instance compile once, the rest wait for the artifact.
//!
//! The service is deliberately runtime-free: `std::thread` workers and
//! `std::sync::mpsc` channels, no async executor.
//!
//! ```
//! use qmkp::graph::gen::paper_fig1_graph;
//! use qmkp_serve::{ServiceConfig, SolveRequest, SolveService};
//!
//! let service = SolveService::new(ServiceConfig::default());
//! let ticket = service
//!     .submit(SolveRequest::new(paper_fig1_graph(), 2))
//!     .unwrap();
//! let response = ticket.wait();
//! let outcome = response.outcome.unwrap();
//! assert!(qmkp::graph::is_kplex(
//!     &paper_fig1_graph(),
//!     outcome.best,
//!     2
//! ));
//! ```

#![deny(unsafe_code)]
#![warn(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod cache;
pub mod service;

pub use cache::{CacheStats, OracleCache};
pub use service::{
    ServeError, ServiceConfig, SolveRequest, SolveResponse, SolveService, SolveTicket,
};
