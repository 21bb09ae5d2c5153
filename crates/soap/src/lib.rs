//! # ogsa-soap
//!
//! SOAP 1.1-style envelopes over [`ogsa_xml`]: typed [`Envelope`] with
//! header blocks (the WS-Addressing and `wsse:Security` ones typed) and a
//! body, [`Fault`]s (including the mapping WS-BaseFaults
//! layers on top), and (de)serialisation to the wire form every hop of the
//! simulated testbed exchanges.
//!
//! Both software stacks in the paper speak document/literal SOAP under
//! WS-I Basic Profile; the envelope layer is therefore shared, exactly as it
//! was shared between WSRF.NET and the WS-Transfer implementation through
//! ASP.NET/WSE.

pub mod addressing;
pub mod envelope;
pub mod fault;
pub mod security;
mod vocab;

pub use addressing::AddressingHeader;
pub use envelope::Envelope;
pub use fault::{Fault, FaultCode};
pub use security::{Certificate, SecurityHeader, SignedBlock};
