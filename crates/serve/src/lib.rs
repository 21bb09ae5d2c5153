//! Real-socket serving tier for the OGSA container.
//!
//! Everything else in this workspace measures the two stacks on a
//! virtual-time simulation — deterministic, paper-faithful, and immune to
//! host noise. This crate is the wall-clock complement: it puts the same
//! container pipeline behind an actual TCP listener with HTTP/1.1
//! keep-alive and pipelining, so throughput can be measured under real
//! connection concurrency instead of an in-process loop.
//!
//! Layout:
//! * [`epoll`] — raw `epoll`/`eventfd` FFI shim; no external deps. The
//!   crate builds on Linux only.
//! * [`http`] — zero-copy request-head parser and response writers.
//! * [`conn`] — per-connection state machine (buffered nonblocking I/O,
//!   pipelined dispatch, precise error answers).
//! * [`server`] — per-worker epoll loops, each accepting its own
//!   connections and dispatching into [`ogsa_transport::Network`] handlers.
//! * [`admin`] — the live observability plane: `/metrics`, `/healthz`,
//!   `/readyz`, and the `/debug/trace` flight-recorder dump, served on a
//!   dedicated admin port by the same worker loops.
//!
//! The serving tier deliberately charges **no virtual time**: the
//! simulation twin stays the paper-invariant instrument, and nothing here
//! can perturb its figures.

#[cfg(not(target_os = "linux"))]
compile_error!("ogsa-serve runs on Linux only: its event loops are built on epoll");

pub mod admin;
pub mod conn;
pub mod epoll;
pub mod http;
pub mod server;

pub use admin::{AdminPlane, ObsConfig, ReadyState};
pub use conn::{Advance, Conn, Dispatch, Request};
pub use http::{Head, HeadParse, HttpError, Method};
pub use server::{ServeConfig, ServeStats, Server};
