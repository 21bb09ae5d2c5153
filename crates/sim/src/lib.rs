//! # ogsa-sim
//!
//! The simulated 2005 testbed: a virtual clock, a calibrated cost model, and
//! a deterministic RNG.
//!
//! ## Why virtual time
//!
//! The paper's numbers were measured on dual AMD Opteron 240 machines
//! running Windows Server 2003, IIS/ASP.NET, WSE 2.0 crypto, and the Xindice
//! XML database over a LAN. None of that is reproducible on modern hardware,
//! and absolute milliseconds are explicitly *not* the reproduction target —
//! the shape is (see DESIGN.md). Every substrate layer therefore charges its
//! simulated cost to a shared [`VirtualClock`]:
//!
//! * the transport charges connection setup, per-request HTTP overhead and
//!   size-dependent wire time;
//! * the security layer charges X.509 signing/verification and TLS
//!   handshakes (with session caching);
//! * the XML database charges per-operation I/O with the insert > read
//!   asymmetry the paper observed ("creating resources ... is always slower
//!   than reading or updating them");
//! * real compute (XML parsing, canonicalisation, hashing) still happens,
//!   but its wall-clock cost is negligible next to the modelled 2005 costs.
//!
//! Threads performing asynchronous work (notification delivery) advance the
//! same clock, so end-to-end latencies — such as the paper's Notify metric
//! (set value → receive notification) — are measured exactly as the paper
//! measured them.

pub mod clock;
pub mod cost;
pub mod rng;
pub mod shard;

pub use clock::{SimDuration, SimInstant, VirtualClock};
pub use cost::CostModel;
pub use rng::DetRng;
