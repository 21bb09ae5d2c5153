//! The WSRF/WS-Notification Grid-in-a-Box (§4.2.1): five services.
//!
//! * **AccountService** — *not* resource-based: "interactions with the
//!   Account and ResourceAllocation services are not mapped to the CRUD
//!   operations (instead opting for operations like addAccount,
//!   accountExists, etc.)".
//! * **ResourceAllocationService** — also not resource-based; answers
//!   "what resources are available for my application?" in concert with
//!   the ReservationService.
//! * **ReservationService** — WS-Resources are reservations; created with
//!   `now + administrator delta` scheduled termination; *claimed* by the
//!   ExecService lengthening the termination time to infinity; destroyed
//!   automatically when the job completes (Figure 6's free "unreserve").
//! * **DataService** — WS-Resources are directories; the file list is a
//!   dynamically-computed resource property; `Destroy` removes the
//!   directory from the host filesystem.
//! * **ExecService** — WS-Resources are jobs; `start` verifies and claims
//!   the reservation and checks the data directory (the outcalls that
//!   dominate Figure 6's InstantiateJob); job exit raises a
//!   WS-Notification carrying the job EPR.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, InvokeError, Operation, OperationContext, Testbed, WebService};
use ogsa_security::SecurityPolicy;
use ogsa_sim::SimDuration;
use ogsa_soap::Fault;
use ogsa_wsn::base::{actions as wsn_actions, SubscribeRequest};
use ogsa_wsn::consumer::Delivery;
use ogsa_wsn::manager::SubscriptionManagerService;
use ogsa_wsn::{NotificationConsumer, NotificationProducer, TopicExpression, TopicPath};
use ogsa_wsrf::service_base::{PortType, ServiceBase, WsrfService, WsrfServiceHost};
use ogsa_wsrf::{ResourceDocument, TerminationTime, WsrfProxy};
use ogsa_xml::Element;

use crate::api::{GridScenario, ScenarioError};
use crate::hostfs::HostFs;
use crate::job::JobSpec;
use crate::procsim::{ProcStatus, ProcessTable};

/// Topic raised when a job exits.
pub const JOB_EXITED_TOPIC: &str = "jobs/exited";

/// Administrator-configured initial reservation lifetime ("e.g. 4 hours").
pub const RESERVATION_DELTA: SimDuration = SimDuration(4 * 3600 * 1_000_000);

fn owner_of(op: &Operation) -> Result<String, Fault> {
    // Signed deployments authenticate the DN; unsigned ones trust the body.
    if let Some(dn) = &op.signer_dn {
        return Ok(dn.clone());
    }
    op.body
        .child_text("owner")
        .map(str::to_owned)
        .ok_or_else(|| Fault::client("request carries no identity"))
}

// ===================================================== AccountService ====

/// addAccount / accountExists / removeAccount over a plain collection.
struct AccountService;

impl WebService for AccountService {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        let accounts = ctx.db().collection("gib:accounts");
        match op.action_name() {
            "addAccount" => {
                let dn = op
                    .body
                    .child_text("dn")
                    .ok_or_else(|| Fault::client("addAccount without dn"))?;
                let mut doc = Element::new("account").with_attr("dn", dn);
                for p in op
                    .body
                    .child_elements()
                    .filter(|e| &*e.name.local == "privilege")
                {
                    doc.add_child(p.clone());
                }
                accounts.upsert(dn, doc);
                Ok(Element::new("addAccountResponse"))
            }
            "accountExists" => {
                let dn = op
                    .body
                    .child_text("dn")
                    .ok_or_else(|| Fault::client("accountExists without dn"))?;
                let exists = accounts.contains(dn);
                Ok(Element::text_element(
                    "accountExistsResponse",
                    exists.to_string(),
                ))
            }
            "removeAccount" => {
                let dn = op
                    .body
                    .child_text("dn")
                    .ok_or_else(|| Fault::client("removeAccount without dn"))?;
                accounts.remove(dn);
                Ok(Element::new("removeAccountResponse"))
            }
            other => Err(Fault::client(format!("AccountService has no `{other}`"))),
        }
    }
}

// ============================================ ResourceAllocationService ====

/// registerSite / getAvailableResources; consults the ReservationService.
struct ResourceAllocationService {
    reservation_epr: OnceLock<EndpointReference>,
}

impl WebService for ResourceAllocationService {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        let sites = ctx.db().collection("gib:sites");
        match op.action_name() {
            "registerSite" => {
                let name = op
                    .body
                    .child_text("name")
                    .ok_or_else(|| Fault::client("registerSite without name"))?;
                sites.upsert(name, op.body.clone());
                Ok(Element::new("registerSiteResponse"))
            }
            "getAvailableResources" => {
                let app = op
                    .body
                    .child_text("application")
                    .ok_or_else(|| Fault::client("getAvailableResources without application"))?
                    .to_owned();
                // In concert with the ReservationService: which sites are
                // currently reserved?
                let reservation_epr = self
                    .reservation_epr
                    .get()
                    .ok_or_else(|| Fault::server("ReservationService not wired"))?;
                let resp = ctx
                    .agent()
                    .invoke(
                        reservation_epr,
                        "urn:gib/listReservedSites",
                        Element::new("listReservedSites"),
                    )
                    .map_err(|e| Fault::server(format!("reservation lookup failed: {e}")))?;
                let reserved: Vec<String> = resp.child_elements().map(|e| e.text()).collect();

                let xp = ogsa_xml::XPath::compile("/registerSite").expect("static");
                let docs = sites
                    .query(&xp, &ogsa_xml::XPathContext::new())
                    .map_err(|e| Fault::server(e.to_string()))?;
                let mut out = Element::new("getAvailableResourcesResponse");
                for (name, doc) in docs {
                    if reserved.contains(&name) {
                        continue;
                    }
                    let offers_app = doc
                        .child_elements()
                        .any(|e| &*e.name.local == "application" && e.text() == app);
                    if offers_app {
                        out.add_child(doc);
                    }
                }
                Ok(out)
            }
            other => Err(Fault::client(format!(
                "ResourceAllocationService has no `{other}`"
            ))),
        }
    }
}

// ================================================== ReservationService ====

/// WS-Resources are reservations {site, owner}.
struct ReservationService {
    account_epr: OnceLock<EndpointReference>,
}

impl WsrfService for ReservationService {
    fn handle_custom(
        &self,
        op: &Operation,
        ctx: &OperationContext,
        base: &ServiceBase,
    ) -> Result<Element, Fault> {
        match op.action_name() {
            "makeReservation" => {
                let site = op
                    .body
                    .child_text("site")
                    .ok_or_else(|| Fault::client("makeReservation without site"))?
                    .to_owned();
                let owner = owner_of(op)?;
                // "Does this user have an account in this VO?" — outcall.
                let account_epr = self
                    .account_epr
                    .get()
                    .ok_or_else(|| Fault::server("AccountService not wired"))?;
                let resp = ctx
                    .agent()
                    .invoke(
                        account_epr,
                        "urn:gib/accountExists",
                        Element::new("accountExists")
                            .with_child(Element::text_element("dn", owner.clone())),
                    )
                    .map_err(|e| Fault::server(format!("account check failed: {e}")))?;
                if resp.text() != "true" {
                    return Err(Fault::client(format!("no VO account for `{owner}`")));
                }

                let doc = Element::new("ReservationResource")
                    .with_child(Element::text_element("site", site))
                    .with_child(Element::text_element("owner", owner));
                let res = base.create(ctx, doc)?;
                // Scheduled termination: now + administrator delta.
                base.schedule_termination(
                    ctx,
                    &res.id,
                    TerminationTime::At(ctx.clock().now().plus(RESERVATION_DELTA)),
                );
                let epr = base.resource_epr(ctx, &res.id);
                Ok(Element::new("makeReservationResponse").with_child(epr.to_element()))
            }
            "listReservedSites" => {
                let xp = ogsa_xml::XPath::compile("/ReservationResource/site").expect("static");
                let sites = base
                    .store()
                    .collection()
                    .select(&xp, &ogsa_xml::XPathContext::new())
                    .map_err(|e| Fault::server(e.to_string()))?;
                Ok(Element::new("listReservedSitesResponse").with_children(sites))
            }
            other => Err(Fault::client(format!(
                "ReservationService has no `{other}`"
            ))),
        }
    }
}

// ========================================================= DataService ====

/// WS-Resources are directories; files are dynamic resource properties.
struct DataService {
    fs: HostFs,
}

impl WsrfService for DataService {
    fn handle_custom(
        &self,
        op: &Operation,
        ctx: &OperationContext,
        base: &ServiceBase,
    ) -> Result<Element, Fault> {
        match op.action_name() {
            // Clients create directory resources "although do not name
            // them" (§4.2.1).
            "createDirectory" => {
                let doc = Element::new("DirectoryResource");
                let res = base.create(ctx, doc)?;
                self.fs.create_dir(&res.id);
                base.schedule_termination(ctx, &res.id, TerminationTime::Never);
                let epr = base.resource_epr(ctx, &res.id);
                Ok(Element::new("createDirectoryResponse").with_child(epr.to_element()))
            }
            "upload" => {
                let id = op.require_resource_id()?;
                let _res = base.load(ctx, id)?;
                let name = op
                    .body
                    .child_text("fileName")
                    .ok_or_else(|| Fault::client("upload without fileName"))?
                    .to_owned();
                let content = op
                    .body
                    .child_text("content")
                    .unwrap_or("")
                    .as_bytes()
                    .to_vec();
                self.fs.write_file(id, &name, content);
                Ok(Element::new("uploadResponse"))
            }
            "deleteFile" => {
                let id = op.require_resource_id()?;
                let _res = base.load(ctx, id)?;
                let name = op
                    .body
                    .child_text("fileName")
                    .ok_or_else(|| Fault::client("deleteFile without fileName"))?;
                if !self.fs.delete_file(id, name) {
                    return Err(Fault::client(format!("no file `{name}`")));
                }
                Ok(Element::new("deleteFileResponse"))
            }
            other => Err(Fault::client(format!("DataService has no `{other}`"))),
        }
    }

    /// "No information for individual files is actually stored as
    /// resources, instead these resource properties are generated
    /// dynamically by examining the contents directory" (§4.2.3).
    fn resource_properties(&self, res: &ResourceDocument, _ctx: &OperationContext) -> Element {
        let mut doc = res.doc.clone();
        if let Some(files) = self.fs.list_dir(&res.id) {
            for f in files {
                doc.add_child(Element::text_element("file", f));
            }
        }
        doc
    }

    /// Destroy removes the directory and its contents from the filesystem.
    fn on_destroy(&self, res: &ResourceDocument, _ctx: &OperationContext) {
        self.fs.delete_dir(&res.id);
    }
}

// ========================================================= ExecService ====

/// WS-Resources are jobs.
struct ExecService {
    procs: ProcessTable,
    site_name: String,
    producer: OnceLock<NotificationProducer>,
    account_epr: OnceLock<EndpointReference>,
}

impl ExecService {
    fn job_status(&self, res: &ResourceDocument) -> (String, Option<i32>) {
        let pid = res.member_parse::<u64>("pid").unwrap_or(0);
        match self.procs.status(pid) {
            Some(ProcStatus::Running) => ("running".into(), None),
            Some(ProcStatus::Exited { code }) => ("exited".into(), Some(code)),
            Some(ProcStatus::Killed) => ("killed".into(), None),
            None => ("unknown".into(), None),
        }
    }
}

impl WsrfService for ExecService {
    fn handle_custom(
        &self,
        op: &Operation,
        ctx: &OperationContext,
        base: &ServiceBase,
    ) -> Result<Element, Fault> {
        match op.action_name() {
            "start" => {
                let owner = owner_of(op)?;
                let spec_elem = op
                    .body
                    .child_local("job")
                    .ok_or_else(|| Fault::client("start without job spec"))?;
                let spec = JobSpec::from_element(spec_elem)
                    .ok_or_else(|| Fault::client("malformed job spec"))?;
                let reservation = EndpointReference::from_element(
                    op.body
                        .child_local("reservation")
                        .and_then(|r| r.child_elements().next())
                        .ok_or_else(|| Fault::client("start without reservation EPR"))?,
                )
                .map_err(|e| Fault::client(format!("bad reservation EPR: {e}")))?;
                let data = EndpointReference::from_element(
                    op.body
                        .child_local("data")
                        .and_then(|d| d.child_elements().next())
                        .ok_or_else(|| Fault::client("start without data EPR"))?,
                )
                .map_err(|e| Fault::client(format!("bad data EPR: {e}")))?;

                let proxy = WsrfProxy::new(ctx.agent());

                // Outcall 1: re-verify VO membership with the
                // AccountService before consuming site resources.
                let account_epr = self
                    .account_epr
                    .get()
                    .ok_or_else(|| Fault::server("AccountService not wired"))?;
                let acct = ctx
                    .agent()
                    .invoke(
                        account_epr,
                        "urn:gib/accountExists",
                        Element::new("accountExists")
                            .with_child(Element::text_element("dn", owner.clone())),
                    )
                    .map_err(|e| Fault::server(format!("account check failed: {e}")))?;
                if acct.text() != "true" {
                    return Err(Fault::client(format!("no VO account for `{owner}`")));
                }

                // Outcall 2: verify the reservation covers this site and
                // this user ("An ExecService uses the reservation EPR to
                // verify that the client has, in fact, reserved that
                // ExecService").
                let rsv_props = proxy
                    .get_properties(&reservation, &["site", "owner"])
                    .map_err(|e| Fault::client(format!("reservation invalid: {e}")))?;
                let site_ok = rsv_props
                    .iter()
                    .any(|p| &*p.name.local == "site" && p.text() == self.site_name);
                let owner_ok = rsv_props
                    .iter()
                    .any(|p| &*p.name.local == "owner" && p.text() == owner);
                if !site_ok || !owner_ok {
                    return Err(Fault::client("reservation does not cover this request"));
                }

                // Outcall 3: claim the reservation by lengthening its
                // lifetime to infinity.
                proxy
                    .set_termination_time(&reservation, TerminationTime::Never)
                    .map_err(|e| Fault::server(format!("claim failed: {e}")))?;

                // Outcall 4: check the staged data directory exists (its
                // file-list property answers).
                proxy.get_property(&data, "file").or_else(|e| match e {
                    // An empty directory is fine; a missing resource is
                    // not — empty dirs raise InvalidResourceProperty.
                    InvokeError::Fault(f) if f.reason.contains("file") => Ok(vec![]),
                    other => Err(Fault::client(format!("data directory invalid: {other}"))),
                })?;

                // Spawn and persist the job resource.
                let pid = self.procs.spawn(spec.runtime, spec.exit_code);
                let doc = Element::new("JobResource")
                    .with_child(Element::text_element(
                        "application",
                        spec.application.clone(),
                    ))
                    .with_child(Element::text_element("owner", owner))
                    .with_child(Element::text_element("pid", pid.to_string()))
                    .with_child(Element::text_element("notified", "false"))
                    .with_child(Element::new("reservation").with_child(reservation.to_element()))
                    .with_child(Element::new("data").with_child(data.to_element()));
                let res = base.create(ctx, doc)?;
                base.schedule_termination(ctx, &res.id, TerminationTime::Never);
                let epr = base.resource_epr(ctx, &res.id);
                Ok(Element::new("startResponse").with_child(epr.to_element()))
            }
            "Subscribe" => {
                let req = SubscribeRequest::from_element(&op.body)
                    .ok_or_else(|| Fault::client("malformed Subscribe"))?;
                let producer = self
                    .producer
                    .get()
                    .ok_or_else(|| Fault::server("producer not wired"))?;
                let epr = producer.store().subscribe(ctx, &req)?;
                Ok(SubscribeRequest::response(&epr))
            }
            // The completion monitor tick (the "Proc Spawn Win Service"):
            // fire notifications for exited jobs and auto-destroy their
            // reservations.
            "pumpCompletions" => {
                let producer = self
                    .producer
                    .get()
                    .ok_or_else(|| Fault::server("producer not wired"))?;
                let xp =
                    ogsa_xml::XPath::compile("/JobResource[notified='false']").expect("static");
                let pending = base
                    .store()
                    .collection()
                    .query(&xp, &ogsa_xml::XPathContext::new())
                    .map_err(|e| Fault::server(e.to_string()))?;
                let mut fired = 0;
                for (id, doc) in pending {
                    let mut res = ResourceDocument::new(id.clone(), doc);
                    let (status, exit) = self.job_status(&res);
                    if status != "exited" {
                        continue;
                    }
                    let job_epr = base.resource_epr(ctx, &id);
                    // "This notification message will contain the job's EPR
                    // so that the client knows which ... has ended."
                    let message = Element::new("JobEnded")
                        .with_attr("job", id.clone())
                        .with_child(Element::text_element(
                            "exitCode",
                            exit.unwrap_or_default().to_string(),
                        ))
                        .with_child(Element::new("jobEPR").with_child(job_epr.to_element()));
                    producer.notify_from(
                        &TopicPath::parse(JOB_EXITED_TOPIC).expect("static"),
                        message,
                        Some(job_epr),
                    );
                    // Automatic unreserve: destroy the claimed reservation.
                    if let Some(rsv) = res
                        .doc
                        .child_local("reservation")
                        .and_then(|r| r.child_elements().next())
                        .and_then(|e| EndpointReference::from_element(e).ok())
                    {
                        let _ = WsrfProxy::new(ctx.agent()).destroy(&rsv);
                    }
                    res.set_member("notified", "true");
                    base.save(ctx, &res)?;
                    fired += 1;
                }
                Ok(Element::text_element(
                    "pumpCompletionsResponse",
                    fired.to_string(),
                ))
            }
            other => Err(Fault::client(format!("ExecService has no `{other}`"))),
        }
    }

    /// Job resources expose status / elapsed / exit code dynamically
    /// ("whether the job is currently running, how long it has been
    /// running, when it exited and the exit code").
    fn resource_properties(&self, res: &ResourceDocument, _ctx: &OperationContext) -> Element {
        let mut doc = res.doc.clone();
        let (status, exit) = self.job_status(res);
        doc.add_child(Element::text_element("status", status));
        if let Some(code) = exit {
            doc.add_child(Element::text_element("exitCode", code.to_string()));
        }
        if let Some(elapsed) = res
            .member_parse::<u64>("pid")
            .and_then(|pid| self.procs.elapsed(pid))
        {
            doc.add_child(Element::text_element(
                "elapsedMicros",
                elapsed.as_micros().to_string(),
            ));
        }
        doc
    }

    /// "WSRF's Destroy method will kill a job if it is running and then
    /// cleanup the information about the process' exit state."
    fn on_destroy(&self, res: &ResourceDocument, _ctx: &OperationContext) {
        if let Some(pid) = res.member_parse::<u64>("pid") {
            self.procs.kill(pid);
            self.procs.reap(pid);
        }
    }
}

// =========================================================== deployment ====

/// One deployed execution site.
pub struct WsrfSite {
    pub name: String,
    pub host: String,
    pub exec_epr: EndpointReference,
    pub data_epr: EndpointReference,
}

/// The deployed WSRF VO.
pub struct WsrfGrid {
    pub account_epr: EndpointReference,
    pub allocation_epr: EndpointReference,
    pub reservation_epr: EndpointReference,
    pub sites: Vec<WsrfSite>,
    admin: ClientAgent,
    /// Names each scenario's notification consumer endpoint. Per grid, not
    /// per process: the endpoint's address travels in signed messages, so
    /// its length is charged for, and a run must not depend on what the
    /// process ran before it.
    consumer_seq: AtomicU64,
}

impl WsrfGrid {
    /// Deploy the VO: Account/Allocation/Reservation on `vo-host`, one
    /// Exec+Data pair per entry of `site_hosts`, all offering
    /// `applications`. Accounts are added for `users`.
    pub fn deploy(
        tb: &Testbed,
        policy: SecurityPolicy,
        site_hosts: &[&str],
        applications: &[&str],
        users: &[&str],
    ) -> WsrfGrid {
        let vo = tb.container("vo-host", policy);
        // VO services call site services (and vice versa) on the user's
        // behalf; give those server-to-server invokes a retry budget so a
        // lossy wire doesn't surface as an unretryable fault at the client.
        vo.set_call_retry(Some(ogsa_transport::RetryPolicy::default_call(
            tb.rng().fork("gib-call-retry").seed(),
        )));

        let account_epr = vo.deploy("/services/Account", Arc::new(AccountService));

        let reservation_service = Arc::new(ReservationService {
            account_epr: OnceLock::new(),
        });
        let (reservation_epr, _rsv_base) = WsrfServiceHost::deploy(
            &vo,
            "/services/Reservation",
            reservation_service.clone(),
            PortType::all(),
            true,
        );
        reservation_service
            .account_epr
            .set(account_epr.clone())
            .expect("wired once");

        let allocation_service = Arc::new(ResourceAllocationService {
            reservation_epr: OnceLock::new(),
        });
        let allocation_epr = vo.deploy("/services/ResourceAllocation", allocation_service.clone());
        allocation_service
            .reservation_epr
            .set(reservation_epr.clone())
            .expect("wired once");

        let admin = tb.client("vo-host", "CN=admin,O=VO", policy);
        for user in users {
            admin
                .invoke(
                    &account_epr,
                    "urn:gib/addAccount",
                    Element::new("addAccount")
                        .with_child(Element::text_element("dn", *user))
                        .with_child(Element::text_element("privilege", "submit")),
                )
                .expect("add account");
        }

        let mut sites = Vec::new();
        for (i, host) in site_hosts.iter().enumerate() {
            let site_name = format!("site-{i}");
            let container = tb.container(host, policy);
            // Job-exited notifications are the VO's one must-arrive message:
            // redeliver them when the simulated wire loses them. Seeded off
            // the testbed RNG so runs replay bit-identically.
            container.set_redelivery(Some(ogsa_transport::RetryPolicy::default_redelivery(
                tb.rng().fork("gib-redelivery").seed(),
            )));
            container.set_call_retry(vo.call_retry());
            let fs = HostFs::new(tb.clock().clone(), Arc::new(tb.model().clone()));
            let procs = ProcessTable::new(tb.clock().clone(), Arc::new(tb.model().clone()));

            let (data_epr, _data_base) = WsrfServiceHost::deploy(
                &container,
                "/services/Data",
                Arc::new(DataService { fs }),
                PortType::all(),
                true,
            );

            let (_mgr, store) =
                SubscriptionManagerService::deploy(&container, "/services/Exec/subscriptions");
            let exec_service = Arc::new(ExecService {
                procs,
                site_name: site_name.clone(),
                producer: OnceLock::new(),
                account_epr: OnceLock::new(),
            });
            let (exec_epr, _exec_base) = WsrfServiceHost::deploy(
                &container,
                "/services/Exec",
                exec_service.clone(),
                PortType::all(),
                true,
            );
            exec_service
                .producer
                .set(NotificationProducer::new(store, container.service_agent()))
                .ok()
                .expect("wired once");
            exec_service
                .account_epr
                .set(account_epr.clone())
                .expect("wired once");

            // Register the site with the allocation service.
            let mut reg = Element::new("registerSite")
                .with_child(Element::text_element("name", site_name.clone()))
                .with_child(Element::text_element("host", *host));
            for app in applications {
                reg.add_child(Element::text_element("application", *app));
            }
            reg.add_child(Element::new("execEPR").with_child(exec_epr.to_element()));
            reg.add_child(Element::new("dataEPR").with_child(data_epr.to_element()));
            admin
                .invoke(&allocation_epr, "urn:gib/registerSite", reg)
                .expect("register site");

            sites.push(WsrfSite {
                name: site_name,
                host: host.to_string(),
                exec_epr,
                data_epr,
            });
        }

        WsrfGrid {
            account_epr,
            allocation_epr,
            reservation_epr,
            sites,
            admin,
            consumer_seq: AtomicU64::new(0),
        }
    }

    /// The admin agent (tests use it for account management).
    pub fn admin(&self) -> &ClientAgent {
        &self.admin
    }

    /// Start a user scenario session.
    pub fn scenario(&self, agent: ClientAgent) -> WsrfGridScenario<'_> {
        WsrfGridScenario {
            grid: self,
            agent,
            chosen: None,
            reservation: None,
            data_dir: None,
            job: None,
            waiter: None,
            job_runtime: SimDuration::ZERO,
        }
    }
}

// ============================================================ scenario ====

struct ChosenSite {
    name: String,
    exec_epr: EndpointReference,
    data_epr: EndpointReference,
}

/// One grid user's session against the WSRF VO.
pub struct WsrfGridScenario<'g> {
    grid: &'g WsrfGrid,
    agent: ClientAgent,
    chosen: Option<ChosenSite>,
    reservation: Option<EndpointReference>,
    data_dir: Option<EndpointReference>,
    job: Option<EndpointReference>,
    waiter: Option<NotificationConsumer>,
    job_runtime: SimDuration,
}

impl WsrfGridScenario<'_> {
    fn chosen(&self) -> Result<&ChosenSite, ScenarioError> {
        self.chosen
            .as_ref()
            .ok_or_else(|| ScenarioError::State("no site chosen yet".into()))
    }

    /// The job EPR, once instantiated.
    pub fn job_epr(&self) -> Option<&EndpointReference> {
        self.job.as_ref()
    }

    /// Poll the job's status resource property.
    pub fn job_status(&self) -> Result<String, ScenarioError> {
        let job = self
            .job
            .as_ref()
            .ok_or_else(|| ScenarioError::State("no job".into()))?;
        Ok(WsrfProxy::new(&self.agent).get_property_text(job, "status")?)
    }
}

impl GridScenario for WsrfGridScenario<'_> {
    fn stack_name(&self) -> &'static str {
        "WSRF.NET"
    }

    fn get_available_resource(&mut self, application: &str) -> Result<(), ScenarioError> {
        let resp = self.agent.invoke(
            &self.grid.allocation_epr,
            "urn:gib/getAvailableResources",
            Element::new("getAvailableResources")
                .with_child(Element::text_element("application", application)),
        )?;
        let site = resp
            .child_elements()
            .next()
            .ok_or_else(|| ScenarioError::State(format!("no site offers `{application}`")))?;
        let name = site.child_text("name").unwrap_or_default().to_owned();
        let exec_epr = site
            .child_local("execEPR")
            .and_then(|e| e.child_elements().next())
            .and_then(|e| EndpointReference::from_element(e).ok())
            .ok_or_else(|| ScenarioError::State("site without exec EPR".into()))?;
        let data_epr = site
            .child_local("dataEPR")
            .and_then(|e| e.child_elements().next())
            .and_then(|e| EndpointReference::from_element(e).ok())
            .ok_or_else(|| ScenarioError::State("site without data EPR".into()))?;
        self.chosen = Some(ChosenSite {
            name,
            exec_epr,
            data_epr,
        });
        Ok(())
    }

    fn make_reservation(&mut self) -> Result<(), ScenarioError> {
        let site = self.chosen()?.name.clone();
        let resp = self.agent.invoke(
            &self.grid.reservation_epr,
            "urn:gib/makeReservation",
            Element::new("makeReservation")
                .with_child(Element::text_element("site", site))
                .with_child(Element::text_element("owner", self.agent.dn())),
        )?;
        let epr = resp
            .child_elements()
            .next()
            .and_then(|e| EndpointReference::from_element(e).ok())
            .ok_or_else(|| ScenarioError::State("makeReservation returned no EPR".into()))?;
        self.reservation = Some(epr);
        Ok(())
    }

    fn upload_file(&mut self, name: &str, size_bytes: usize) -> Result<(), ScenarioError> {
        let data_epr = self.chosen()?.data_epr.clone();
        // First upload creates the directory resource (Figure 5 step 5),
        // later uploads reuse it — "a pair of calls".
        if self.data_dir.is_none() {
            let resp = self.agent.invoke(
                &data_epr,
                "urn:gib/createDirectory",
                Element::new("createDirectory"),
            )?;
            let dir = resp
                .child_elements()
                .next()
                .and_then(|e| EndpointReference::from_element(e).ok())
                .ok_or_else(|| ScenarioError::State("no directory EPR".into()))?;
            self.data_dir = Some(dir);
        }
        let dir = self.data_dir.clone().expect("just set");
        self.agent.invoke(
            &dir,
            "urn:gib/upload",
            Element::new("upload")
                .with_child(Element::text_element("fileName", name))
                .with_child(Element::text_element("content", "x".repeat(size_bytes))),
        )?;
        Ok(())
    }

    fn instantiate_job(&mut self, runtime: SimDuration) -> Result<(), ScenarioError> {
        let chosen_exec = self.chosen()?.exec_epr.clone();
        let reservation = self
            .reservation
            .clone()
            .ok_or_else(|| ScenarioError::State("no reservation".into()))?;
        let data = self
            .data_dir
            .clone()
            .ok_or_else(|| ScenarioError::State("no data directory".into()))?;

        // Client call 1: subscribe to the job-exited topic.
        let consumer = NotificationConsumer::listen(
            &self.agent,
            &format!(
                "/gib-notify/{}",
                self.grid.consumer_seq.fetch_add(1, Ordering::Relaxed)
            ),
        );
        let req = SubscribeRequest::new(
            consumer.epr().clone(),
            TopicExpression::concrete(JOB_EXITED_TOPIC),
        );
        self.agent
            .invoke(&chosen_exec, wsn_actions::SUBSCRIBE, req.to_element())?;
        self.waiter = Some(consumer);

        // Client call 2: start (server fans out to Reservation ×2 + Data).
        let spec = JobSpec::new("blast", runtime);
        let resp = self.agent.invoke(
            &chosen_exec,
            "urn:gib/start",
            Element::new("start")
                .with_child(Element::text_element("owner", self.agent.dn()))
                .with_child(spec.to_element())
                .with_child(Element::new("reservation").with_child(reservation.to_element()))
                .with_child(Element::new("data").with_child(data.to_element())),
        )?;
        let job = resp
            .child_elements()
            .next()
            .and_then(|e| EndpointReference::from_element(e).ok())
            .ok_or_else(|| ScenarioError::State("start returned no job EPR".into()))?;
        self.job = Some(job);
        self.job_runtime = runtime;
        Ok(())
    }

    fn delete_file(&mut self, name: &str) -> Result<(), ScenarioError> {
        let dir = self
            .data_dir
            .clone()
            .ok_or_else(|| ScenarioError::State("no data directory".into()))?;
        self.agent.invoke(
            &dir,
            "urn:gib/deleteFile",
            Element::new("deleteFile").with_child(Element::text_element("fileName", name)),
        )?;
        Ok(())
    }

    fn unreserve_resource(&mut self) -> Result<(), ScenarioError> {
        // Automatic in the WSRF version: the ExecService destroyed the
        // reservation when the job completed. Nothing to do.
        self.reservation = None;
        Ok(())
    }

    fn unreserve_is_automatic(&self) -> bool {
        true
    }

    fn finish_job(&mut self, wait: Duration) -> Result<i32, ScenarioError> {
        let chosen_exec = self.chosen()?.exec_epr.clone();
        // Let the job's virtual runtime elapse, then tick the completion
        // monitor.
        self.agent
            .clock()
            .advance(self.job_runtime + SimDuration::from_micros(1));
        self.agent.invoke(
            &chosen_exec,
            "urn:gib/pumpCompletions",
            Element::new("pumpCompletions"),
        )?;
        let waiter = self
            .waiter
            .as_ref()
            .ok_or_else(|| ScenarioError::State("no subscription".into()))?;
        let own_job = self
            .job
            .as_ref()
            .and_then(|j| j.resource_id())
            .unwrap_or_default()
            .to_owned();
        // The notification carries the job EPR "so that the client knows
        // which of the potentially many jobs they are currently running,
        // has ended" — filter to ours.
        let deadline = std::time::Instant::now() + wait;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let body = match waiter.recv_timeout(remaining) {
                Some(Delivery::Wrapped(n)) => n.message,
                Some(Delivery::Raw(body)) => body,
                None => {
                    return Err(ScenarioError::State(
                        "job-exited notification never arrived".into(),
                    ))
                }
            };
            if body.attr_local("job") == Some(&own_job) {
                return Ok(body.child_parse("exitCode").unwrap_or(-1));
            }
        }
    }
}
