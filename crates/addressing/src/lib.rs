//! # ogsa-addressing
//!
//! WS-Addressing (2004/08 member submission, as cited by the paper): the
//! [`EndpointReference`] (EPR) construct both stacks use to name resources,
//! and the message-information headers (`wsa:To`, `wsa:Action`,
//! `wsa:MessageID`, `wsa:ReplyTo`, `wsa:RelatesTo`) stamped on every SOAP
//! exchange.
//!
//! The EPR is where the paper's qualitative comparison lives: WSRF treats
//! reference properties as opaque, service-minted names (the WS-Resource
//! Access Pattern), while the WS-Transfer Grid-in-a-Box deliberately leaks
//! structure into them (a user DN, a `"1"` prefix selecting a query mode, a
//! trailing `/` selecting a directory listing). Both styles are expressible
//! here; the application crates exercise both.

pub mod epr;
pub mod headers;

pub use epr::EndpointReference;
pub use headers::{message_id, MessageHeaders, ANONYMOUS};
