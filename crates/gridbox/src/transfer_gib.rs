//! The WS-Transfer/WS-Eventing Grid-in-a-Box (§4.2.2). The application is
//! in `crate::vo`; this file holds what the paper says differs on this
//! stack — everything a resource, every interaction CRUD, and the
//! EPR-structure conventions the paper describes verbatim:
//!
//! * **Four services**: WS-Transfer allows many resource types per service,
//!   so sites and reservations share a *unified* ResourceAllocation.
//! * **Account** — Create makes an account whose EPR carries the user's
//!   X.509 DN; Get answers privilege questions; Create/Delete are
//!   admin-only.
//! * **Data** — the client constructs the resource id, `DN/filename`; the
//!   storage directory is a hash of the DN; a Get whose EPR ends with `/`
//!   returns a directory listing, otherwise a download; Put overwrites;
//!   Delete removes the file permanently.
//! * **ResourceAllocation** — Get on an id starting `1` is the
//!   available-resources query; any other id asks which user holds the
//!   reservation for that site. Put has three modes selected by the id's
//!   initial symbol: `R` make, `U` remove, `T` change reservation time.
//!   Un-reserving is the client's manual `U`-mode Put.
//! * **Execution** — Create instantiates a job after **one outcall** (the
//!   reservation holder, through the allocation service); Get returns the
//!   representation, which outlives the process; Delete both kills a
//!   running process and removes the representation (one resolution of the
//!   spec's resource-vs-representation ambiguity).
//! * **WS-Eventing**: exits push events over TCP, filtered by owner.
//! * **Identity** is the signer's DN, else the body's `owner`, else — for
//!   body-less Deletes — the `RequesterDN` reference property.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, Operation, OperationContext, Testbed};
use ogsa_eventing::messages::{actions as wse_actions, SubscribeRequest};
use ogsa_eventing::{EventConsumer, EventSourceService, NotificationManager};
use ogsa_security::SecurityPolicy;
use ogsa_sim::{DetRng, SimDuration};
use ogsa_soap::Fault;
use ogsa_transfer::{CreateOutcome, TransferLogic, TransferProxy, TransferService};
use ogsa_xml::Element;
use ogsa_xmldb::Collection;

use crate::admin::TransferAdminClient;
use crate::api::{GridScenario, ScenarioError};
use crate::hostfs::HostFs;
use crate::job::JobSpec;
use crate::procsim::ProcessTable;
use crate::vo::{self, need, required, server_fault};

fn requester_of(op: &Operation) -> Result<Cow<'_, str>, Fault> {
    // The authenticated signature always wins; unsigned deployments fall
    // back to an `owner` element in the body, and for body-less operations
    // (WS-Transfer Delete) to a `RequesterDN` reference property — the
    // client-constructed-EPR idiom this stack embraces (§2.3).
    if let Some(dn) = op.signer_dn() {
        return Ok(Cow::Borrowed(dn));
    }
    if let Some(owner) = op.body.find_local("owner") {
        return Ok(owner.text_cow());
    }
    op.reference_properties
        .iter()
        .find(|p| &*p.name.local == "RequesterDN")
        .map(Element::text_cow)
        .ok_or_else(|| Fault::client("request carries no identity"))
}

/// "Create() and Delete() are administrative functions and can be called
/// only from the administrative client": a client fault naming what only it
/// `may` do, unless the requester is that client.
fn admin_only(op: &Operation, may: &str) -> Result<(), Fault> {
    if requester_of(op)?.starts_with("CN=admin") {
        return Ok(());
    }
    Err(Fault::client(format!(
        "only the administrative client may {may}"
    )))
}

/// RA Get, second mode: "used by the Data service and the Execution service
/// to make sure that the user who wants to use them has a reservation."
fn verify_reservation(
    ctx: &OperationContext,
    allocation_epr: &EndpointReference,
    site_name: &str,
    dn: &str,
) -> Result<(), Fault> {
    let site_epr = EndpointReference::resource(allocation_epr.address.clone(), site_name);
    let holder = TransferProxy::new(ctx.agent())
        .get(&site_epr)
        .map_err(|e| Fault::client(format!("reservation check failed: {e}")))?;
    if holder.text() != dn {
        return Err(Fault::client(format!("`{dn}` holds no reservation here")));
    }
    Ok(())
}

/// The host directory and file name behind a `DN/filename` id.
fn file_of(id: &str) -> Result<(String, &str), Fault> {
    let (dn, name) = id
        .rsplit_once('/')
        .ok_or_else(|| Fault::client("malformed file id"))?;
    Ok((HostFs::dn_directory(dn), name))
}

/// The last step of every Create here: `stored` goes into the collection
/// under the `id` the service chose and is returned to the client as sent.
fn keep(store: &Collection, id: String, stored: Element) -> Result<CreateOutcome, Fault> {
    store.insert(&id, stored.clone()).map_err(server_fault)?;
    Ok(CreateOutcome {
        id,
        stored,
        modified: None,
    })
}

// ============================================================ Account ====

/// Accounts keyed by DN; Create/Delete admin-only.
struct AccountLogic;

impl TransferLogic for AccountLogic {
    fn create(
        &self,
        representation: Element,
        op: &Operation,
        _ctx: &OperationContext,
        store: &Arc<Collection>,
        _rng: &DetRng,
    ) -> Result<CreateOutcome, Fault> {
        admin_only(op, "create accounts")?;
        // "the EPR containing the X509 DN of the user" — the account's own
        // DN becomes the resource id.
        let dn = required(&representation, "account", "dn")?.to_owned();
        keep(store, dn, representation)
    }

    fn delete(
        &self,
        id: &str,
        op: &Operation,
        _ctx: &OperationContext,
        store: &Arc<Collection>,
    ) -> Result<(), Fault> {
        admin_only(op, "remove accounts")?;
        store
            .remove(id)
            .map(|_| ())
            .ok_or_else(|| Fault::client(format!("no account `{id}`")))
    }
}

// =============================================================== Data ====

/// Files keyed by `DN/filename`; listing via trailing-`/` EPRs.
struct DataLogic {
    fs: HostFs,
    allocation_epr: EndpointReference,
    site_name: String,
}

impl TransferLogic for DataLogic {
    fn create(
        &self,
        representation: Element,
        op: &Operation,
        ctx: &OperationContext,
        store: &Arc<Collection>,
        _rng: &DetRng,
    ) -> Result<CreateOutcome, Fault> {
        let dn = requester_of(op)?;
        verify_reservation(ctx, &self.allocation_epr, &self.site_name, &dn)?;
        let name = representation
            .attr_local("name")
            .ok_or_else(|| Fault::client("file without name"))?
            .to_owned();
        // "The EPR of the resource (file) is in the format user's
        // DN/filename."
        let id = format!("{dn}/{name}");
        let dir = HostFs::dn_directory(&dn);
        self.fs.create_dir(&dir);
        self.fs
            .write_file(&dir, &name, representation.text().into_bytes());
        let meta = Element::new("file")
            .with_attr("name", name)
            .with_attr("owner", dn);
        keep(store, id, meta)
    }

    fn get(
        &self,
        id: &str,
        _op: &Operation,
        _ctx: &OperationContext,
        _store: &Arc<Collection>,
    ) -> Result<Element, Fault> {
        // "If the EPR ends with '/', the Get() operation returns a listing
        // of all the files in the directory specified."
        if let Some(dn) = id.strip_suffix('/') {
            let dir = HostFs::dn_directory(dn);
            let files = self.fs.list_dir(&dir).unwrap_or_default();
            let files = files.into_iter().map(|f| Element::text_element("file", f));
            return Ok(Element::new("listing")
                .with_attr("owner", dn)
                .with_children(files));
        }
        // "Otherwise Get() interprets the request as a download."
        let (dir, name) = file_of(id)?;
        let contents = self
            .fs
            .read_file(&dir, name)
            .ok_or_else(|| Fault::client(format!("no file `{id}`")))?;
        Ok(Element::new("file")
            .with_attr("name", name)
            .with_text(String::from_utf8_lossy(&contents).into_owned()))
    }

    fn put(
        &self,
        id: &str,
        replacement: Element,
        _op: &Operation,
        _ctx: &OperationContext,
        _store: &Arc<Collection>,
    ) -> Result<Option<Element>, Fault> {
        // "Put() overrides an existing file with a newer version."
        let (dir, name) = file_of(id)?;
        if self.fs.read_file(&dir, name).is_none() {
            return Err(Fault::client(format!("no file `{id}` to override")));
        }
        self.fs
            .write_file(&dir, name, replacement.text().into_bytes());
        Ok(None)
    }

    fn delete(
        &self,
        id: &str,
        _op: &Operation,
        _ctx: &OperationContext,
        store: &Arc<Collection>,
    ) -> Result<(), Fault> {
        let (dir, name) = file_of(id)?;
        if !self.fs.delete_file(&dir, name) {
            return Err(Fault::client(format!("no file `{id}`")));
        }
        store.remove(id);
        Ok(())
    }
}

// ================================================ ResourceAllocation ====

/// Unified sites + reservations.
struct AllocationLogic {
    account_epr: EndpointReference,
}

/// Where the unified service keeps the reservation of `site`, beside it.
fn reservation_key(site: &str) -> String {
    format!("rsv:{site}")
}

impl TransferLogic for AllocationLogic {
    /// Create a computing site (admin).
    fn create(
        &self,
        representation: Element,
        op: &Operation,
        _ctx: &OperationContext,
        store: &Arc<Collection>,
        _rng: &DetRng,
    ) -> Result<CreateOutcome, Fault> {
        admin_only(op, "register sites")?;
        let name = representation
            .attr_local("name")
            .ok_or_else(|| Fault::client("site without name"))?
            .to_owned();
        keep(store, name, representation)
    }

    fn get(
        &self,
        id: &str,
        _op: &Operation,
        _ctx: &OperationContext,
        store: &Arc<Collection>,
    ) -> Result<Element, Fault> {
        // "If the EPR starts with '1', the get is interpreted as a get
        // available resources query" — the rest of the id names the
        // application.
        if let Some(app) = id.strip_prefix('1') {
            let sites = vo::matching(store, &vo::TRANSFER_SITES)?;
            let reserved: Vec<String> = store
                .keys()
                .iter()
                .filter_map(|k| k.strip_prefix("rsv:").map(str::to_owned))
                .collect();
            return Ok(Element::new("availableResources")
                .with_attr("application", app)
                .with_children(vo::available_sites(sites, &reserved, app)));
        }
        // "Otherwise, the Get() is a request to check which user has a
        // reservation to a particular computing site."
        let rsv = store
            .get(&reservation_key(id))
            .ok_or_else(|| Fault::client(format!("site `{id}` is not reserved")))?;
        Ok(Element::text_element(
            "reservationHolder",
            rsv.child_text("owner").unwrap_or_default().to_owned(),
        ))
    }

    /// "Delete() permanently removes a computing site from the database" —
    /// administrative only.
    fn delete(
        &self,
        id: &str,
        op: &Operation,
        _ctx: &OperationContext,
        store: &Arc<Collection>,
    ) -> Result<(), Fault> {
        admin_only(op, "remove computing sites")?;
        store
            .remove(id)
            .map(|_| ())
            .ok_or_else(|| Fault::client(format!("no such site `{id}`")))?;
        // A removed site takes its reservation with it.
        store.remove(&reservation_key(id));
        Ok(())
    }

    fn put(
        &self,
        id: &str,
        replacement: Element,
        op: &Operation,
        ctx: &OperationContext,
        store: &Arc<Collection>,
    ) -> Result<Option<Element>, Fault> {
        // Three modes "depending on the initial symbol of the EPR".
        let (mode, site) = id.split_at(1);
        match mode {
            // Make a reservation.
            "R" => {
                let owner = requester_of(op)?;
                // Account check via the Account service's Get.
                let acct =
                    EndpointReference::resource(self.account_epr.address.clone(), owner.clone());
                TransferProxy::new(ctx.agent())
                    .get(&acct)
                    .map_err(|e| Fault::client(format!("no VO account for `{owner}`: {e}")))?;

                if !store.contains(site) {
                    return Err(Fault::client(format!("no such site `{site}`")));
                }
                let key = reservation_key(site);
                if store.contains(&key) {
                    return Err(Fault::client(format!("site `{site}` already reserved")));
                }
                let doc = Element::new("reservation")
                    .with_attr("site", site)
                    .with_child(Element::text_element("owner", owner))
                    .with_child(Element::text_element(
                        "until",
                        replacement.child_text("until").unwrap_or("0").to_owned(),
                    ));
                store.insert(&key, doc).map_err(server_fault)?;
                Ok(None)
            }
            // Remove a reservation — "A failure to destroy a reservation
            // after a job is finished would prevent the subsequent use of
            // that execution resource" (§4.2.3): this is the manual step
            // WSRF gets for free.
            "U" => store
                .remove(&reservation_key(site))
                .map(|_| None)
                .ok_or_else(|| Fault::client(format!("site `{site}` is not reserved"))),
            // Change the time to which a site is reserved.
            "T" => {
                let key = reservation_key(site);
                let mut doc = store
                    .get(&key)
                    .ok_or_else(|| Fault::client(format!("site `{site}` is not reserved")))?;
                let until = required(&replacement, "T-mode Put", "until")?;
                doc.remove_children(&"until".into());
                doc.add_child(Element::text_element("until", until));
                store.update(&key, doc).map_err(server_fault)?;
                Ok(None)
            }
            _ => Err(Fault::client(format!(
                "unknown Put mode `{mode}` (expected R/U/T prefix)"
            ))),
        }
    }
}

// ========================================================== Execution ====

/// Jobs; Create verifies the reservation through the allocation service.
struct ExecutionLogic {
    procs: ProcessTable,
    site_name: String,
    allocation_epr: EndpointReference,
    notifier: NotificationManager,
    job_seq: AtomicU64,
}

impl ExecutionLogic {
    /// The completion monitor: push events for the exited, un-notified jobs
    /// in `store` (this service's collection).
    fn pump_completions(&self, store: &Collection) -> usize {
        let Ok(pending) = vo::matching(store, &vo::TRANSFER_PENDING_JOBS) else {
            return 0;
        };
        let mut fired = 0;
        for (id, mut doc) in pending {
            let (status, exit) = vo::job_status(&self.procs, doc.child_parse("pid"));
            if status != "exited" {
                continue;
            }
            let owner = doc.child_text("owner").unwrap_or_default();
            self.notifier
                .trigger(vo::job_ended(&id, exit).with_attr("owner", owner));
            doc.remove_children(&"notified".into());
            doc.add_child(Element::text_element("notified", "true"));
            let _ = store.update(&id, doc);
            fired += 1;
        }
        fired
    }
}

impl TransferLogic for ExecutionLogic {
    fn create(
        &self,
        representation: Element,
        op: &Operation,
        ctx: &OperationContext,
        store: &Arc<Collection>,
        _rng: &DetRng,
    ) -> Result<CreateOutcome, Fault> {
        let owner = requester_of(op)?;
        let spec = JobSpec::from_element(&representation)
            .ok_or_else(|| Fault::client("malformed job representation"))?;

        // The one outcall: the reservation holder.
        verify_reservation(ctx, &self.allocation_epr, &self.site_name, &owner)?;

        let pid = self.procs.spawn(spec.runtime, spec.exit_code);
        let id = format!("job-{}", self.job_seq.fetch_add(1, Ordering::Relaxed));
        // The stored representation: the client's spec plus server fields.
        let stored = representation
            .with_child(Element::text_element("owner", owner))
            .with_child(Element::text_element("pid", pid.to_string()))
            .with_child(Element::text_element("notified", "false"));
        keep(store, id, stored)
    }

    /// "The representation of the resource may remain even when the
    /// resource (e.g., process) does not exist anymore" — Get always
    /// answers from the stored representation, decorated with live status.
    fn get(
        &self,
        id: &str,
        _op: &Operation,
        _ctx: &OperationContext,
        store: &Arc<Collection>,
    ) -> Result<Element, Fault> {
        let doc = store
            .get(id)
            .ok_or_else(|| Fault::client(format!("no job `{id}`")))?;
        let (status, exit) = vo::job_status(&self.procs, doc.child_parse("pid"));
        let mut out = doc;
        out.add_child(Element::text_element("status", status));
        if let Some(code) = exit {
            out.remove_children(&"exitCode".into());
            out.add_child(Element::text_element("exitCode", code.to_string()));
        }
        Ok(out)
    }

    fn delete(
        &self,
        id: &str,
        _op: &Operation,
        _ctx: &OperationContext,
        store: &Arc<Collection>,
    ) -> Result<(), Fault> {
        let doc = store
            .get(id)
            .ok_or_else(|| Fault::client(format!("no job `{id}`")))?;
        if let Some(pid) = doc.child_parse::<u64>("pid") {
            self.procs.kill(pid);
        }
        store.remove(id);
        Ok(())
    }
}

// ========================================================== deployment ====

/// One deployed execution site (transfer flavour).
pub struct TransferSite {
    pub name: String,
    pub host: String,
    pub data_epr: EndpointReference,
    pub exec_epr: EndpointReference,
    pub events_epr: EndpointReference,
    exec_logic: Arc<ExecutionLogic>,
    exec_store: Arc<Collection>,
}

/// The deployed WS-Transfer VO.
pub struct TransferGrid {
    pub account_epr: EndpointReference,
    pub allocation_epr: EndpointReference,
    pub sites: Vec<TransferSite>,
    admin: TransferAdminClient,
    /// Names each scenario's event consumer endpoint; per grid, so that a
    /// run does not depend on what the process ran before it.
    consumer_seq: AtomicU64,
}

impl TransferGrid {
    /// Deploy: Account + unified ResourceAllocation on `vo-host`, one
    /// Data + Execution (+ event source) per site host.
    pub fn deploy(
        tb: &Testbed,
        policy: SecurityPolicy,
        site_hosts: &[&str],
        applications: &[&str],
        users: &[&str],
    ) -> TransferGrid {
        let vo = vo::vo_container(tb, policy);
        let (account_epr, _) =
            TransferService::deploy(&vo, "/services/Account", Arc::new(AccountLogic));
        let allocation_logic = AllocationLogic {
            account_epr: account_epr.clone(),
        };
        let (allocation_epr, _) = TransferService::deploy(
            &vo,
            "/services/ResourceAllocation",
            Arc::new(allocation_logic),
        );

        let admin = tb.client("vo-host", "CN=admin,O=VO", policy);
        let admin = TransferAdminClient::over(&account_epr, &allocation_epr, admin);
        for user in users {
            admin.add_account(user, &["submit"]).expect("add account");
        }

        let sites = vo::site_hosts(tb, policy, &vo, site_hosts)
            .map(|site| {
                let host = &site.container;
                let data_logic = DataLogic {
                    fs: site.fs,
                    allocation_epr: allocation_epr.clone(),
                    site_name: site.name.clone(),
                };
                let (data_epr, _) =
                    TransferService::deploy(host, "/services/Data", Arc::new(data_logic));

                let (events_epr, notifier) =
                    EventSourceService::deploy(host, "/services/ExecutionEvents");
                let exec_logic = Arc::new(ExecutionLogic {
                    procs: site.procs,
                    site_name: site.name.clone(),
                    allocation_epr: allocation_epr.clone(),
                    notifier,
                    job_seq: AtomicU64::new(0),
                });
                let (exec_epr, exec_store) =
                    TransferService::deploy(host, "/services/Execution", exec_logic.clone());

                let (exec, data) = (&exec_epr.address, &data_epr.address);
                admin
                    .register_site(&site.name, &site.host, applications, exec, data)
                    .expect("register site");
                TransferSite {
                    name: site.name,
                    host: site.host,
                    data_epr,
                    exec_epr,
                    events_epr,
                    exec_logic,
                    exec_store,
                }
            })
            .collect();

        TransferGrid {
            account_epr,
            allocation_epr,
            sites,
            admin,
            consumer_seq: AtomicU64::new(0),
        }
    }

    pub fn admin(&self) -> &ClientAgent {
        &self.admin.agent
    }

    /// Tick every site's completion monitor.
    pub fn pump_completions(&self) -> usize {
        self.sites
            .iter()
            .map(|s| s.exec_logic.pump_completions(&s.exec_store))
            .sum()
    }

    /// Start a user scenario session.
    pub fn scenario(&self, agent: ClientAgent) -> TransferGridScenario<'_> {
        TransferGridScenario {
            grid: self,
            agent,
            chosen: None,
            job: None,
            consumer: None,
            job_runtime: SimDuration::ZERO,
        }
    }
}

// ============================================================ scenario ====

struct ChosenSite {
    name: String,
    exec_address: String,
    data_address: String,
    events_address: String,
}

/// One grid user's session against the WS-Transfer VO.
pub struct TransferGridScenario<'g> {
    grid: &'g TransferGrid,
    agent: ClientAgent,
    chosen: Option<ChosenSite>,
    job: Option<EndpointReference>,
    consumer: Option<EventConsumer>,
    job_runtime: SimDuration,
}

impl TransferGridScenario<'_> {
    fn chosen(&self) -> Result<&ChosenSite, ScenarioError> {
        need(self.chosen.as_ref(), "no site chosen yet")
    }

    /// The allocation service's resource `{mode}{rest}`: the id's initial
    /// symbol selects what a Get or Put of it means.
    fn allocation(&self, mode: char, rest: &str) -> EndpointReference {
        let address = self.grid.allocation_epr.address.clone();
        EndpointReference::resource(address, format!("{mode}{rest}"))
    }

    /// EPR of a staged file: `DN/filename` (client-constructed — the EPR
    /// opaqueness the paper's §2.3 debates, broken on purpose here).
    pub fn file_epr(&self, name: &str) -> Result<EndpointReference, ScenarioError> {
        let site = self.chosen()?;
        Ok(EndpointReference::resource(
            site.data_address.clone(),
            format!("{}/{name}", self.agent.dn()),
        ))
    }

    /// The job EPR, once instantiated.
    pub fn job_epr(&self) -> Option<&EndpointReference> {
        self.job.as_ref()
    }

    /// Poll job status via Get.
    pub fn job_status(&self) -> Result<String, ScenarioError> {
        let job = need(self.job.as_ref(), "no job")?;
        let rep = TransferProxy::new(&self.agent).get(job)?;
        Ok(rep.child_text("status").unwrap_or("unknown").to_owned())
    }
}

impl GridScenario for TransferGridScenario<'_> {
    fn stack_name(&self) -> &'static str {
        "WS-Transfer / WS-Eventing"
    }

    fn get_available_resource(&mut self, application: &str) -> Result<(), ScenarioError> {
        // Get with a "1"-prefixed id: the available-resources query mode.
        let resp = TransferProxy::new(&self.agent).get(&self.allocation('1', application))?;
        let site = vo::first_offer(&resp, application)?;
        let address = |of: &str| site.child_text(of).unwrap_or_default().to_owned();
        let exec_address = address("execAddress");
        self.chosen = Some(ChosenSite {
            name: site.attr_local("name").unwrap_or_default().to_owned(),
            events_address: format!("{exec_address}Events"),
            exec_address,
            data_address: address("dataAddress"),
        });
        Ok(())
    }

    fn make_reservation(&mut self) -> Result<(), ScenarioError> {
        // Put, R-mode.
        TransferProxy::new(&self.agent).put(
            &self.allocation('R', &self.chosen()?.name),
            Element::new("reservation")
                .with_child(Element::text_element("owner", self.agent.dn()))
                .with_child(Element::text_element("until", "0")),
        )?;
        Ok(())
    }

    fn upload_file(&mut self, name: &str, size_bytes: usize) -> Result<(), ScenarioError> {
        let data_address = self.chosen()?.data_address.clone();
        let factory = EndpointReference::service(data_address);
        TransferProxy::new(&self.agent).create(
            &factory,
            Element::new("file")
                .with_attr("name", name)
                .with_child(Element::text_element("owner", self.agent.dn()))
                .with_text("x".repeat(size_bytes)),
        )?;
        Ok(())
    }

    fn instantiate_job(&mut self, runtime: SimDuration) -> Result<(), ScenarioError> {
        let site = self.chosen()?;
        let events = EndpointReference::service(site.events_address.clone());
        let exec = EndpointReference::service(site.exec_address.clone());

        // Client call 1: subscribe (filtered to this user's jobs).
        let seq = self.grid.consumer_seq.fetch_add(1, Ordering::Relaxed);
        let consumer = EventConsumer::listen(&self.agent, &format!("/gib-events/{seq}"));
        let req = SubscribeRequest::new(consumer.epr().clone())
            .with_filter(&format!("/JobEnded[@owner='{}']", self.agent.dn()));
        self.agent
            .invoke(&events, wse_actions::SUBSCRIBE, req.to_element())?;
        self.consumer = Some(consumer);

        // Client call 2: Create the job resource (server verifies the
        // reservation via one outcall to the allocation service).
        let spec = JobSpec::new("blast", runtime)
            .to_element()
            .with_child(Element::text_element("owner", self.agent.dn()));
        let (job, _) = TransferProxy::new(&self.agent).create(&exec, spec)?;
        self.job = Some(job);
        self.job_runtime = runtime;
        Ok(())
    }

    fn delete_file(&mut self, name: &str) -> Result<(), ScenarioError> {
        let epr = self.file_epr(name)?;
        TransferProxy::new(&self.agent).delete(&epr)?;
        Ok(())
    }

    fn unreserve_resource(&mut self) -> Result<(), ScenarioError> {
        // Put, U-mode: manual, client-paid — the Figure 6 asymmetry.
        let epr = self.allocation('U', &self.chosen()?.name);
        TransferProxy::new(&self.agent).put(&epr, Element::new("unreserve"))?;
        Ok(())
    }

    fn unreserve_is_automatic(&self) -> bool {
        false
    }

    fn finish_job(&mut self, wait: Duration) -> Result<i32, ScenarioError> {
        self.agent
            .clock()
            .advance(self.job_runtime + SimDuration::from_micros(1));
        self.grid.pump_completions();
        let consumer = need(self.consumer.as_ref(), "no subscription")?;
        let exit = vo::await_job_ended(self.job.as_ref(), wait, |t| consumer.recv_timeout(t));
        need(exit, "job-exited event never arrived")
    }
}
