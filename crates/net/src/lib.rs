//! vup-net — std-only network serving for the prediction service.
//!
//! A hand-rolled HTTP/1.1 daemon over [`std::net::TcpListener`] that
//! fronts [`vup_serve::PredictionService`] without adding a single
//! external dependency:
//!
//! - [`http`] — incremental, bounded, panic-free HTTP/1.1 parser and
//!   writer (the protocol security boundary);
//! - [`queue`] — bounded MPMC admission queue: full queue ⇒ shed with
//!   `503 + Retry-After` instead of unbounded buffering;
//! - [`server`] — acceptor + fixed worker pool with keep-alive,
//!   per-connection timeouts, and graceful drain on cancellation;
//! - [`app`] — the application [`server::Handler`]: `POST
//!   /v1/predict-batch`, `GET /healthz`, `GET /metrics`;
//! - [`signal`] — SIGTERM/SIGINT → [`vup_core::executor::CancelToken`]
//!   bridge via a libc `signal(2)` declaration (std already links libc);
//! - [`loadgen`] — seeded closed-loop load generator; `vup loadgen`
//!   writes its run report to `loadgen-report.json`, and only
//!   `vup bench` appends runs to the `BENCH_serve.json` trajectory.
//!
//! Determinism boundary: request *outcomes* (forecasts, provenance,
//! breaker decisions) are deterministic for a given store state and
//! batch sequence — the service runs batches that share a vehicle in
//! batch-index order — while *timings and interleavings* (latencies,
//! which client a shed hits, which of two concurrent batches gets the
//! lower index) are not. The load generator's request stream is a pure
//! function of its seed, so overload runs are reproducible in counts
//! even though per-request latencies vary.

#![warn(missing_docs)]

pub mod app;
pub mod http;
pub mod loadgen;
pub mod queue;
pub mod server;
pub mod signal;

pub use app::{AppHandler, Healthz, WireBatchRequest, WireOutcome, WireRequest, WireResponse};
pub use http::{HttpError, Limits, Request, RequestParser, Response};
pub use loadgen::{BenchReport, LoadPlan};
pub use queue::{Bounded, PushError};
pub use server::{Handler, Server, ServerConfig, ServerSummary};
