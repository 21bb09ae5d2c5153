//! # ogsa-gridbox
//!
//! "Grid-in-a-Box" (§4.2): a single virtual organisation offering remote
//! job execution, "inspired by the OMII 1.0 services", on both stacks.
//!
//! **Said once**, in the private `vo` module, is the application the two
//! VOs share: which sites offer an application and are unreserved, a job's
//! status from the process table, the `JobEnded` event and the wait for
//! one's own, required-field faults, an EPR inside a wrapper element, the
//! constant queries, and the set-up of `vo-host` and of each `site-{i}`.
//! Deployment registers users and sites through the [`admin`] client.
//!
//! **Said per stack** is only what §4.2 says differs; each file's header
//! lists it:
//!
//! * [`wsrf_gib`] — **five** services (one resource type each), WebMethods
//!   rather than CRUD, opaque factory-returned EPRs, scheduled termination,
//!   claim and automatic destroy (un-reserving is free), four outcalls in
//!   `start`, a WS-Notification topic over HTTP one-way, identity from the
//!   signature or the body only.
//! * [`transfer_gib`] — **four** services (a *unified* ResourceAllocation),
//!   everything CRUD with `1`/`R`/`U`/`T` id prefixes and trailing-`/`
//!   listings, client-constructed `DN/filename` EPRs, the manual `U`-mode
//!   Put, one outcall in Create, a WS-Eventing filter over TCP, identity
//!   also from the `RequesterDN` reference property.
//!
//! The common substrate ([`procsim`], [`hostfs`], [`job`]) simulates what
//! the paper's testbed provided natively: Win32 process spawning for jobs
//! and a host filesystem for staged data.
//!
//! [`api::GridScenario`] is the uniform surface the Figure-6 harness
//! measures: GetAvailableResource, MakeReservation, UploadFile,
//! InstantiateJob, DeleteFile, UnreserveResource. [`api::run_job`] names
//! the flow through them once, for every harness, test and example.

pub mod admin;
pub mod api;
pub mod hostfs;
pub mod job;
pub mod procsim;
pub mod transfer_gib;
mod vo;
pub mod wsrf_gib;

pub use admin::{TransferAdminClient, WsrfAdminClient};
pub use api::{run_job, GridScenario, JobPlan, JobStep, ScenarioError, OPERATIONS};
pub use hostfs::HostFs;
pub use job::JobSpec;
pub use procsim::{ProcStatus, ProcessTable};
pub use transfer_gib::TransferGrid;
pub use wsrf_gib::WsrfGrid;
