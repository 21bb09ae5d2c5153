//! The WSRF/WS-Notification Grid-in-a-Box (§4.2.1). The application is in
//! `crate::vo`; this file holds what the paper says differs on this stack:
//!
//! * **Five services, one resource type each.** AccountService and
//!   ResourceAllocationService are *not* resource-based: "interactions with
//!   the Account and ResourceAllocation services are not mapped to the CRUD
//!   operations (instead opting for operations like addAccount,
//!   accountExists, etc.)". Reservation, Data and Exec hold WS-Resources
//!   (reservations, directories, jobs) and add WebMethods to the imported
//!   port types.
//! * **Opaque, factory-returned EPRs.** `makeReservation`, `createDirectory`
//!   and `start` hand out the names; clients "do not name" resources.
//! * **Lifetime does the unreserving.** A reservation is created with
//!   `now + administrator delta` scheduled termination, *claimed* by the
//!   ExecService lengthening that to infinity, and destroyed by it when the
//!   job completes (Figure 6's free "unreserve").
//! * **Four outcalls in `start`** — account, reservation, claim, data
//!   directory: they dominate Figure 6's InstantiateJob.
//! * **Directory and job state are dynamic resource properties**; `Destroy`
//!   removes the directory from the host, kills and reaps the process.
//! * **WS-Notification**: job exit raises a topic, delivered over HTTP
//!   one-way, carrying the job EPR.
//! * **Identity** is the signer's DN, else the body's `owner` — nothing else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Duration;

use ogsa_addressing::EndpointReference;
use ogsa_container::{
    ClientAgent, Container, InvokeError, Operation, OperationContext, Testbed, WebService,
};
use ogsa_security::SecurityPolicy;
use ogsa_sim::SimDuration;
use ogsa_soap::Fault;
use ogsa_wsn::base::{actions as wsn_actions, SubscribeRequest};
use ogsa_wsn::consumer::Delivery;
use ogsa_wsn::manager::SubscriptionManagerService;
use ogsa_wsn::{NotificationConsumer, NotificationProducer, TopicExpression, TopicPath};
use ogsa_wsrf::service_base::{PortType, ServiceBase, WsrfService, WsrfServiceHost};
use ogsa_wsrf::{ResourceDocument, TerminationTime, WsrfProxy};
use ogsa_xml::{Element, XPathContext};

use crate::admin::WsrfAdminClient;
use crate::api::{GridScenario, ScenarioError};
use crate::hostfs::HostFs;
use crate::job::JobSpec;
use crate::procsim::ProcessTable;
use crate::vo::{self, need, required, server_fault, unwrap_epr, wrap_epr};

/// Topic raised when a job exits.
pub const JOB_EXITED_TOPIC: &str = "jobs/exited";
static JOB_EXITED: LazyLock<Option<TopicPath>> =
    LazyLock::new(|| TopicPath::parse(JOB_EXITED_TOPIC));

/// Administrator-configured initial reservation lifetime ("e.g. 4 hours").
pub const RESERVATION_DELTA: SimDuration = SimDuration(4 * 3600 * 1_000_000);

fn owner_of(op: &Operation) -> Result<&str, Fault> {
    // Signed deployments authenticate the DN; unsigned ones trust the body.
    op.signer_dn()
        .or_else(|| op.body.child_text("owner"))
        .ok_or_else(|| Fault::client("request carries no identity"))
}

/// "Does this user have an account in this VO?" — an outcall.
fn check_account(
    ctx: &OperationContext,
    account_epr: &EndpointReference,
    owner: &str,
) -> Result<(), Fault> {
    let resp = ctx
        .agent()
        .invoke(
            account_epr,
            "urn:gib/accountExists",
            Element::new("accountExists").with_child(Element::text_element("dn", owner)),
        )
        .map_err(|e| Fault::server(format!("account check failed: {e}")))?;
    if resp.text() != "true" {
        return Err(Fault::client(format!("no VO account for `{owner}`")));
    }
    Ok(())
}

// ===================================================== AccountService ====

/// addAccount / accountExists / removeAccount over a plain collection.
struct AccountService;

impl WebService for AccountService {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        let accounts = ctx.db().collection("gib:accounts");
        match op.action_name() {
            "addAccount" => {
                let dn = required(&op.body, "addAccount", "dn")?;
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
                let exists = accounts.contains(required(&op.body, "accountExists", "dn")?);
                Ok(Element::text_element(
                    "accountExistsResponse",
                    exists.to_string(),
                ))
            }
            "removeAccount" => {
                accounts.remove(required(&op.body, "removeAccount", "dn")?);
                Ok(Element::new("removeAccountResponse"))
            }
            other => Err(Fault::client(format!("AccountService has no `{other}`"))),
        }
    }
}

// ============================================ ResourceAllocationService ====

/// registerSite / getAvailableResources; consults the ReservationService.
struct ResourceAllocationService {
    reservation_epr: EndpointReference,
}

impl WebService for ResourceAllocationService {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        let sites = ctx.db().collection("gib:sites");
        match op.action_name() {
            "registerSite" => {
                sites.upsert(required(&op.body, "registerSite", "name")?, op.body.clone());
                Ok(Element::new("registerSiteResponse"))
            }
            "getAvailableResources" => {
                let app = required(&op.body, "getAvailableResources", "application")?;
                // In concert with the ReservationService: which sites are
                // currently reserved?
                let resp = ctx
                    .agent()
                    .invoke(
                        &self.reservation_epr,
                        "urn:gib/listReservedSites",
                        Element::new("listReservedSites"),
                    )
                    .map_err(|e| Fault::server(format!("reservation lookup failed: {e}")))?;
                let reserved: Vec<String> = resp.child_elements().map(|e| e.text()).collect();
                let registered = vo::matching(&sites, &vo::WSRF_SITES)?;
                Ok(Element::new("getAvailableResourcesResponse")
                    .with_children(vo::available_sites(registered, &reserved, app)))
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
    account_epr: EndpointReference,
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
                let site = required(&op.body, "makeReservation", "site")?;
                let owner = owner_of(op)?;
                check_account(ctx, &self.account_epr, owner)?;
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
                Ok(wrap_epr("makeReservationResponse", &epr))
            }
            "listReservedSites" => {
                let reserved = vo::compiled(&vo::WSRF_RESERVED_SITES)?;
                let sites = base
                    .store()
                    .collection()
                    .select(reserved, &XPathContext::new())
                    .map_err(server_fault)?;
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
                Ok(wrap_epr("createDirectoryResponse", &epr))
            }
            "upload" => {
                let id = op.require_resource_id()?;
                let _res = base.load(ctx, id)?;
                let name = required(&op.body, "upload", "fileName")?;
                let content = op.body.child_text("content").unwrap_or("");
                self.fs.write_file(id, name, content.as_bytes().to_vec());
                Ok(Element::new("uploadResponse"))
            }
            "deleteFile" => {
                let id = op.require_resource_id()?;
                let _res = base.load(ctx, id)?;
                let name = required(&op.body, "deleteFile", "fileName")?;
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
        let files = self.fs.list_dir(&res.id).unwrap_or_default();
        let files = files.into_iter().map(|f| Element::text_element("file", f));
        res.doc.clone().with_children(files)
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
    producer: NotificationProducer,
    account_epr: EndpointReference,
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
                let spec = op
                    .body
                    .child_local("job")
                    .ok_or_else(|| Fault::client("start without job spec"))?;
                let spec = JobSpec::from_element(spec)
                    .ok_or_else(|| Fault::client("malformed job spec"))?;
                let epr_in = |wrapper: &str| {
                    let epr = op
                        .body
                        .child_local(wrapper)
                        .and_then(|w| w.child_elements().next())
                        .ok_or_else(|| Fault::client(format!("start without {wrapper} EPR")))?;
                    EndpointReference::from_element(epr)
                        .map_err(|e| Fault::client(format!("bad {wrapper} EPR: {e}")))
                };
                let reservation = epr_in("reservation")?;
                let data = epr_in("data")?;

                let proxy = WsrfProxy::new(ctx.agent());

                // Outcall 1: re-verify VO membership with the
                // AccountService before consuming site resources.
                check_account(ctx, &self.account_epr, owner)?;

                // Outcall 2: verify the reservation covers this site and
                // this user ("An ExecService uses the reservation EPR to
                // verify that the client has, in fact, reserved that
                // ExecService").
                let rsv_props = proxy
                    .get_properties(&reservation, &["site", "owner"])
                    .map_err(|e| Fault::client(format!("reservation invalid: {e}")))?;
                let covers = |property: &str, value: &str| {
                    let is = |p: &Element| &*p.name.local == property && p.text() == value;
                    rsv_props.iter().any(is)
                };
                if !covers("site", &self.site_name) || !covers("owner", owner) {
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
                    .with_child(Element::text_element("application", spec.application))
                    .with_child(Element::text_element("owner", owner))
                    .with_child(Element::text_element("pid", pid.to_string()))
                    .with_child(Element::text_element("notified", "false"))
                    .with_child(wrap_epr("reservation", &reservation))
                    .with_child(wrap_epr("data", &data));
                let res = base.create(ctx, doc)?;
                base.schedule_termination(ctx, &res.id, TerminationTime::Never);
                let epr = base.resource_epr(ctx, &res.id);
                Ok(wrap_epr("startResponse", &epr))
            }
            "Subscribe" => {
                let req = SubscribeRequest::from_element(&op.body)
                    .ok_or_else(|| Fault::client("malformed Subscribe"))?;
                let epr = self.producer.store().subscribe(ctx, &req)?;
                Ok(SubscribeRequest::response(&epr))
            }
            // The completion monitor tick (the "Proc Spawn Win Service"):
            // fire notifications for exited jobs and auto-destroy their
            // reservations.
            "pumpCompletions" => {
                let topic = JOB_EXITED
                    .as_ref()
                    .ok_or_else(|| Fault::server("job-exited topic is not a concrete path"))?;
                let pending = vo::matching(base.store().collection(), &vo::WSRF_PENDING_JOBS)?;
                let mut fired = 0;
                for (id, doc) in pending {
                    let mut res = ResourceDocument::new(id, doc);
                    let (status, exit) = vo::job_status(&self.procs, res.member_parse("pid"));
                    if status != "exited" {
                        continue;
                    }
                    let job_epr = base.resource_epr(ctx, &res.id);
                    // "This notification message will contain the job's EPR
                    // so that the client knows which ... has ended."
                    let message =
                        vo::job_ended(&res.id, exit).with_child(wrap_epr("jobEPR", &job_epr));
                    self.producer.notify_from(topic, message, Some(job_epr));
                    // Automatic unreserve: destroy the claimed reservation.
                    if let Some(rsv) = res.doc.child_local("reservation").and_then(unwrap_epr) {
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
        let (status, exit) = vo::job_status(&self.procs, res.member_parse("pid"));
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
    admin: WsrfAdminClient,
    /// Names each scenario's notification consumer endpoint. Per grid, not
    /// per process: the endpoint's address travels in signed messages, so
    /// its length is charged for, and a run must not depend on what the
    /// process ran before it.
    consumer_seq: AtomicU64,
}

/// A WSRF service with every port type imported and the resource cache on.
fn deploy_wsrf(container: &Container, path: &str, s: impl WsrfService) -> EndpointReference {
    WsrfServiceHost::deploy(container, path, Arc::new(s), PortType::all(), true).0
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
        let vo = vo::vo_container(tb, policy);
        let account_epr = vo.deploy("/services/Account", Arc::new(AccountService));
        let reservation = ReservationService {
            account_epr: account_epr.clone(),
        };
        let reservation_epr = deploy_wsrf(&vo, "/services/Reservation", reservation);
        let allocation = ResourceAllocationService {
            reservation_epr: reservation_epr.clone(),
        };
        let allocation_epr = vo.deploy("/services/ResourceAllocation", Arc::new(allocation));

        let admin = tb.client("vo-host", "CN=admin,O=VO", policy);
        let admin = WsrfAdminClient::over(&account_epr, &allocation_epr, admin);
        for user in users {
            admin.add_account(user, &["submit"]).expect("add account");
        }

        let sites = vo::site_hosts(tb, policy, &vo, site_hosts)
            .map(|site| {
                let host = &site.container;
                let data_epr = deploy_wsrf(host, "/services/Data", DataService { fs: site.fs });
                let (_, subscriptions) =
                    SubscriptionManagerService::deploy(host, "/services/Exec/subscriptions");
                let exec = ExecService {
                    procs: site.procs,
                    site_name: site.name.clone(),
                    producer: NotificationProducer::new(subscriptions, host.service_agent()),
                    account_epr: account_epr.clone(),
                };
                let exec_epr = deploy_wsrf(host, "/services/Exec", exec);
                admin
                    .register_site(&site.name, &site.host, applications, &exec_epr, &data_epr)
                    .expect("register site");
                WsrfSite {
                    name: site.name,
                    host: site.host,
                    exec_epr,
                    data_epr,
                }
            })
            .collect();

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
        &self.admin.agent
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
        need(self.chosen.as_ref(), "no site chosen yet")
    }

    /// The job EPR, once instantiated.
    pub fn job_epr(&self) -> Option<&EndpointReference> {
        self.job.as_ref()
    }

    /// Poll the job's status resource property.
    pub fn job_status(&self) -> Result<String, ScenarioError> {
        let job = need(self.job.as_ref(), "no job")?;
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
        let site = vo::first_offer(&resp, application)?;
        let exec_epr = site.child_local("execEPR").and_then(unwrap_epr);
        let data_epr = site.child_local("dataEPR").and_then(unwrap_epr);
        self.chosen = Some(ChosenSite {
            name: site.child_text("name").unwrap_or_default().to_owned(),
            exec_epr: need(exec_epr, "site without exec EPR")?,
            data_epr: need(data_epr, "site without data EPR")?,
        });
        Ok(())
    }

    fn make_reservation(&mut self) -> Result<(), ScenarioError> {
        let resp = self.agent.invoke(
            &self.grid.reservation_epr,
            "urn:gib/makeReservation",
            Element::new("makeReservation")
                .with_child(Element::text_element("site", &self.chosen()?.name))
                .with_child(Element::text_element("owner", self.agent.dn())),
        )?;
        self.reservation = Some(need(unwrap_epr(&resp), "makeReservation returned no EPR")?);
        Ok(())
    }

    fn upload_file(&mut self, name: &str, size_bytes: usize) -> Result<(), ScenarioError> {
        // First upload creates the directory resource (Figure 5 step 5),
        // later uploads reuse it — "a pair of calls".
        if self.data_dir.is_none() {
            let resp = self.agent.invoke(
                &self.chosen()?.data_epr,
                "urn:gib/createDirectory",
                Element::new("createDirectory"),
            )?;
            self.data_dir = unwrap_epr(&resp);
        }
        self.agent.invoke(
            need(self.data_dir.as_ref(), "no directory EPR")?,
            "urn:gib/upload",
            Element::new("upload")
                .with_child(Element::text_element("fileName", name))
                .with_child(Element::text_element("content", "x".repeat(size_bytes))),
        )?;
        Ok(())
    }

    fn instantiate_job(&mut self, runtime: SimDuration) -> Result<(), ScenarioError> {
        let chosen_exec = self.chosen()?.exec_epr.clone();
        let reservation = need(self.reservation.as_ref(), "no reservation")?;
        let data = need(self.data_dir.as_ref(), "no data directory")?;

        // Client call 1: subscribe to the job-exited topic.
        let seq = self.grid.consumer_seq.fetch_add(1, Ordering::Relaxed);
        let consumer = NotificationConsumer::listen(&self.agent, &format!("/gib-notify/{seq}"));
        let req = SubscribeRequest::new(
            consumer.epr().clone(),
            TopicExpression::concrete(JOB_EXITED_TOPIC),
        );
        self.agent
            .invoke(&chosen_exec, wsn_actions::SUBSCRIBE, req.to_element())?;
        self.waiter = Some(consumer);

        // Client call 2: start (server fans out to Account, Reservation ×2
        // and Data).
        let spec = JobSpec::new("blast", runtime);
        let resp = self.agent.invoke(
            &chosen_exec,
            "urn:gib/start",
            Element::new("start")
                .with_child(Element::text_element("owner", self.agent.dn()))
                .with_child(spec.to_element())
                .with_child(wrap_epr("reservation", reservation))
                .with_child(wrap_epr("data", data)),
        )?;
        self.job = Some(need(unwrap_epr(&resp), "start returned no job EPR")?);
        self.job_runtime = runtime;
        Ok(())
    }

    fn delete_file(&mut self, name: &str) -> Result<(), ScenarioError> {
        let dir = need(self.data_dir.as_ref(), "no data directory")?;
        self.agent.invoke(
            dir,
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
        let chosen_exec = &self.chosen()?.exec_epr;
        // Let the job's virtual runtime elapse, then tick the completion
        // monitor.
        self.agent
            .clock()
            .advance(self.job_runtime + SimDuration::from_micros(1));
        self.agent.invoke(
            chosen_exec,
            "urn:gib/pumpCompletions",
            Element::new("pumpCompletions"),
        )?;
        let waiter = need(self.waiter.as_ref(), "no subscription")?;
        // The notification carries the job EPR "so that the client knows
        // which of the potentially many jobs they are currently running,
        // has ended" — filter to ours.
        let exit = vo::await_job_ended(self.job.as_ref(), wait, |remaining| {
            Some(match waiter.recv_timeout(remaining)? {
                Delivery::Wrapped(n) => n.message,
                Delivery::Raw(body) => body,
            })
        });
        need(exit, "job-exited notification never arrived")
    }
}
