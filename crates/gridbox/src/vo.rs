//! The application both stacks call the same (§4.2): the parts of the VO
//! that know nothing of how a stack names a resource or who is asking.
//! [`crate::wsrf_gib`] and [`crate::transfer_gib`] hold only what differs.

use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

use ogsa_addressing::EndpointReference;
use ogsa_container::{Container, Testbed};
use ogsa_security::SecurityPolicy;
use ogsa_soap::Fault;
use ogsa_transport::RetryPolicy;
use ogsa_xml::{Element, XPath, XPathContext, XmlResult};
use ogsa_xmldb::Collection;

use crate::api::ScenarioError;
use crate::hostfs::HostFs;
use crate::procsim::{ProcStatus, ProcessTable};

/// The text of `body`'s child `field`, or the client fault
/// "`what` without `field`".
pub fn required<'a>(body: &'a Element, what: &str, field: &str) -> Result<&'a str, Fault> {
    body.child_text(field)
        .ok_or_else(|| Fault::client(format!("{what} without {field}")))
}

/// `<name>` around an EPR: how one travels inside a body or a document.
pub fn wrap_epr(name: &str, epr: &EndpointReference) -> Element {
    Element::new(name).with_child(epr.to_element())
}

/// The EPR that [`wrap_epr`] put inside `wrapper`.
pub fn unwrap_epr(wrapper: &Element) -> Option<EndpointReference> {
    let epr = wrapper.child_elements().next()?;
    EndpointReference::from_element(epr).ok()
}

/// What a scenario step cannot go on without, or the state error `missing`.
pub fn need<T>(slot: Option<T>, missing: &str) -> Result<T, ScenarioError> {
    slot.ok_or_else(|| ScenarioError::State(missing.into()))
}

/// A store or query error, as the server fault a service answers with.
pub fn server_fault(e: impl std::fmt::Display) -> Fault {
    Fault::server(e.to_string())
}

/// A constant query over a service's collection, compiled on first use.
pub type Query = LazyLock<XmlResult<XPath>>;

pub static WSRF_SITES: Query = LazyLock::new(|| XPath::compile("/registerSite"));
pub static WSRF_RESERVED_SITES: Query =
    LazyLock::new(|| XPath::compile("/ReservationResource/site"));
pub static WSRF_PENDING_JOBS: Query =
    LazyLock::new(|| XPath::compile("/JobResource[notified='false']"));
pub static TRANSFER_SITES: Query = LazyLock::new(|| XPath::compile("/site"));
pub static TRANSFER_PENDING_JOBS: Query =
    LazyLock::new(|| XPath::compile("/job[notified='false']"));

/// The compiled form of `query`; a server fault if its text is not XPath.
pub fn compiled(query: &'static Query) -> Result<&'static XPath, Fault> {
    query.as_ref().map_err(server_fault)
}

/// The documents of `store` that `query` selects, with their keys.
pub fn matching(
    store: &Collection,
    query: &'static Query,
) -> Result<Vec<(String, Element)>, Fault> {
    store
        .query(compiled(query)?, &XPathContext::new())
        .map_err(server_fault)
}

/// "What resources are available for my application?": the registered
/// `sites` that offer `app` and are not among the `reserved`.
pub fn available_sites<'a>(
    sites: Vec<(String, Element)>,
    reserved: &'a [String],
    app: &'a str,
) -> impl Iterator<Item = Element> + 'a {
    let offers = move |doc: &Element| {
        doc.child_elements()
            .any(|e| &*e.name.local == "application" && e.text() == app)
    };
    sites
        .into_iter()
        .filter(move |(name, doc)| !reserved.contains(name) && offers(doc))
        .map(|(_, doc)| doc)
}

/// The site a user takes from an available-resources answer: the first.
pub fn first_offer<'a>(resp: &'a Element, app: &str) -> Result<&'a Element, ScenarioError> {
    let none = || ScenarioError::State(format!("no site offers `{app}`"));
    resp.child_elements().next().ok_or_else(none)
}

/// A job's status word and, once it has exited, its exit code.
pub fn job_status(procs: &ProcessTable, pid: Option<u64>) -> (&'static str, Option<i32>) {
    match procs.status(pid.unwrap_or(0)) {
        Some(ProcStatus::Running) => ("running", None),
        Some(ProcStatus::Exited { code }) => ("exited", Some(code)),
        Some(ProcStatus::Killed) => ("killed", None),
        None => ("unknown", None),
    }
}

/// The event a site raises when job `id` exits.
pub fn job_ended(id: &str, exit: Option<i32>) -> Element {
    Element::new("JobEnded")
        .with_attr("job", id)
        .with_child(Element::text_element(
            "exitCode",
            exit.unwrap_or_default().to_string(),
        ))
}

/// Wait up to `wait` for the [`job_ended`] event naming `job` among those
/// `recv` yields — a site announces every user's jobs — and return its exit
/// code; `None` if `recv` runs dry first.
pub fn await_job_ended(
    job: Option<&EndpointReference>,
    wait: Duration,
    mut recv: impl FnMut(Duration) -> Option<Element>,
) -> Option<i32> {
    let own_job = job.and_then(|j| j.resource_id()).unwrap_or_default();
    let deadline = Instant::now() + wait;
    loop {
        let body = recv(deadline.saturating_duration_since(Instant::now()))?;
        if body.attr_local("job") == Some(own_job) {
            return Some(body.child_parse("exitCode").unwrap_or(-1));
        }
    }
}

/// The `vo-host` container. VO services call site services (and vice
/// versa) on the user's behalf; those server-to-server invokes get a retry
/// budget so a lossy wire doesn't surface as an unretryable fault at the
/// client.
pub fn vo_container(tb: &Testbed, policy: SecurityPolicy) -> Container {
    let vo = tb.container("vo-host", policy);
    let seed = tb.rng().fork("gib-call-retry").seed();
    vo.set_call_retry(Some(RetryPolicy::default_call(seed)));
    vo
}

/// One execution site before any service is deployed on it.
pub struct SiteHost {
    pub name: String,
    pub host: String,
    pub container: Container,
    pub fs: HostFs,
    pub procs: ProcessTable,
}

/// A container, filesystem and process table for each of `hosts`, named
/// `site-{i}`, set up as the iterator is advanced.
pub fn site_hosts<'a>(
    tb: &'a Testbed,
    policy: SecurityPolicy,
    vo: &'a Container,
    hosts: &'a [&'a str],
) -> impl Iterator<Item = SiteHost> + 'a {
    hosts.iter().enumerate().map(move |(i, host)| {
        let container = tb.container(host, policy);
        // Job-exited events are the VO's one must-arrive message: redeliver
        // them when the simulated wire loses them. Seeded off the testbed
        // RNG so runs replay bit-identically.
        let seed = tb.rng().fork("gib-redelivery").seed();
        container.set_redelivery(Some(RetryPolicy::default_redelivery(seed)));
        container.set_call_retry(vo.call_retry());
        let model = Arc::new(tb.model().clone());
        SiteHost {
            name: format!("site-{i}"),
            host: host.to_string(),
            container,
            fs: HostFs::new(tb.clock().clone(), model.clone()),
            procs: ProcessTable::new(tb.clock().clone(), model),
        }
    })
}
