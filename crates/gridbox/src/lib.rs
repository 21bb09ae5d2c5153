//! # ogsa-gridbox
//!
//! "Grid-in-a-Box" (§4.2): a single virtual organisation offering remote
//! job execution, "inspired by the OMII 1.0 services", built twice:
//!
//! * [`wsrf_gib`] — the WSRF/WS-Notification version with **five** services
//!   (one resource type per service is a WSRF requirement):
//!   AccountService, ResourceAllocationService, ReservationService,
//!   DataService, ExecService. Directories, reservations and jobs are
//!   WS-Resources; accounts and available resources are *not* (§4.2.1).
//!   Reservations use scheduled termination; claiming a reservation
//!   lengthens its lifetime to infinity; the ExecService destroys it when
//!   the job completes — so un-reserving is automatic.
//! * [`transfer_gib`] — the WS-Transfer/WS-Eventing version with **four**
//!   services: Account, Data, a *unified* ResourceAllocation/Reservation
//!   service (WS-Transfer permits many resource types per service), and
//!   Execution. Everything is a resource; every interaction maps onto
//!   CRUD; EPRs carry client-visible structure (user DNs, `"1"`-prefixed
//!   query modes, trailing-`/` directory listings) — §4.2.2 verbatim.
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
pub mod wsrf_gib;

pub use admin::{TransferAdminClient, WsrfAdminClient};
pub use api::{run_job, GridScenario, JobPlan, JobStep, ScenarioError, OPERATIONS};
pub use hostfs::HostFs;
pub use job::JobSpec;
pub use procsim::{ProcStatus, ProcessTable};
pub use transfer_gib::TransferGrid;
pub use wsrf_gib::WsrfGrid;
