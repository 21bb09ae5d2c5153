//! The WS-Transfer/WS-Eventing Grid-in-a-Box (§4.2.2): four services,
//! everything a resource, every interaction CRUD — with the EPR-structure
//! conventions the paper describes verbatim:
//!
//! * **Account** — Create makes an account whose EPR carries the user's
//!   X.509 DN; Get answers privilege questions; Create/Delete are
//!   admin-only.
//! * **Data** — the resource id is `DN/filename`; the storage directory is
//!   a hash of the DN; a Get whose EPR ends with `/` returns a directory
//!   listing, otherwise a download; Put overwrites; Delete removes the file
//!   permanently.
//! * **ResourceAllocation** — *unified* sites + reservations (WS-Transfer
//!   allows many resource types per service). Get on an id starting `1` is
//!   the available-resources query; any other id asks which user holds the
//!   reservation for that site. Put has three modes selected by the id's
//!   initial symbol: `R` make, `U` remove, `T` change reservation time.
//! * **Execution** — Create instantiates a job (after verifying the
//!   reservation through the allocation service); Get returns the
//!   representation, which outlives the process; Delete both kills a
//!   running process and removes the representation (one resolution of the
//!   spec's resource-vs-representation ambiguity — the other is tested);
//!   exits push WS-Eventing messages over TCP.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
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

use crate::api::{GridScenario, ScenarioError};
use crate::hostfs::HostFs;
use crate::job::JobSpec;
use crate::procsim::{ProcStatus, ProcessTable};

fn requester_of(op: &Operation) -> Result<String, Fault> {
    // The authenticated signature always wins; unsigned deployments fall
    // back to an `owner` element in the body, and for body-less operations
    // (WS-Transfer Delete) to a `RequesterDN` reference property — the
    // client-constructed-EPR idiom this stack embraces (§2.3).
    if let Some(dn) = &op.signer_dn {
        return Ok(dn.clone());
    }
    if let Some(owner) = op.body.find_local("owner") {
        return Ok(owner.text());
    }
    op.headers
        .reference_properties
        .iter()
        .find(|p| &*p.name.local == "RequesterDN")
        .map(|p| p.text())
        .ok_or_else(|| Fault::client("request carries no identity"))
}

fn is_admin(dn: &str) -> bool {
    dn.starts_with("CN=admin")
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
        let requester = requester_of(op)?;
        if !is_admin(&requester) {
            return Err(Fault::client(
                "only the administrative client may create accounts",
            ));
        }
        // "the EPR containing the X509 DN of the user" — the account's own
        // DN becomes the resource id.
        let dn = representation
            .child_text("dn")
            .ok_or_else(|| Fault::client("account without dn"))?
            .to_owned();
        store
            .insert(&dn, representation.clone())
            .map_err(|e| Fault::server(e.to_string()))?;
        Ok(CreateOutcome {
            id: dn,
            stored: representation,
            modified: None,
        })
    }

    fn delete(
        &self,
        id: &str,
        op: &Operation,
        _ctx: &OperationContext,
        store: &Arc<Collection>,
    ) -> Result<(), Fault> {
        let requester = requester_of(op)?;
        if !is_admin(&requester) {
            return Err(Fault::client(
                "only the administrative client may remove accounts",
            ));
        }
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
    allocation_epr: OnceLock<EndpointReference>,
    site_name: String,
}

impl DataLogic {
    fn verify_reservation(&self, dn: &str, ctx: &OperationContext) -> Result<(), Fault> {
        // RA Get, second mode: "used by the Data service and the Execution
        // service to make sure that the user who wants to use them has a
        // reservation."
        let ra = self
            .allocation_epr
            .get()
            .ok_or_else(|| Fault::server("allocation service not wired"))?;
        let site_epr = EndpointReference::resource(ra.address.clone(), self.site_name.clone());
        let holder = TransferProxy::new(ctx.agent())
            .get(&site_epr)
            .map_err(|e| Fault::client(format!("reservation check failed: {e}")))?;
        if holder.text() != dn {
            return Err(Fault::client(format!("`{dn}` holds no reservation here")));
        }
        Ok(())
    }
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
        self.verify_reservation(&dn, ctx)?;
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
        store
            .insert(&id, meta.clone())
            .map_err(|e| Fault::server(e.to_string()))?;
        Ok(CreateOutcome {
            id,
            stored: meta,
            modified: None,
        })
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
            let mut out = Element::new("listing").with_attr("owner", dn);
            for f in files {
                out.add_child(Element::text_element("file", f));
            }
            return Ok(out);
        }
        // "Otherwise Get() interprets the request as a download."
        let (dn, name) = id
            .rsplit_once('/')
            .ok_or_else(|| Fault::client("malformed file id"))?;
        let dir = HostFs::dn_directory(dn);
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
        let (dn, name) = id
            .rsplit_once('/')
            .ok_or_else(|| Fault::client("malformed file id"))?;
        let dir = HostFs::dn_directory(dn);
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
        let (dn, name) = id
            .rsplit_once('/')
            .ok_or_else(|| Fault::client("malformed file id"))?;
        let dir = HostFs::dn_directory(dn);
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
    account_epr: OnceLock<EndpointReference>,
}

impl AllocationLogic {
    fn reservation_key(site: &str) -> String {
        format!("rsv:{site}")
    }
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
        let requester = requester_of(op)?;
        if !is_admin(&requester) {
            return Err(Fault::client(
                "only the administrative client may register sites",
            ));
        }
        let name = representation
            .attr_local("name")
            .ok_or_else(|| Fault::client("site without name"))?
            .to_owned();
        store
            .insert(&name, representation.clone())
            .map_err(|e| Fault::server(e.to_string()))?;
        Ok(CreateOutcome {
            id: name,
            stored: representation,
            modified: None,
        })
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
            let xp = ogsa_xml::XPath::compile("/site").expect("static");
            let docs = store
                .query(&xp, &ogsa_xml::XPathContext::new())
                .map_err(|e| Fault::server(e.to_string()))?;
            let reserved: Vec<String> = store
                .keys()
                .iter()
                .filter_map(|k| k.strip_prefix("rsv:").map(str::to_owned))
                .collect();
            let mut out = Element::new("availableResources").with_attr("application", app);
            for (name, doc) in docs {
                if reserved.contains(&name) {
                    continue;
                }
                if doc
                    .child_elements()
                    .any(|e| &*e.name.local == "application" && e.text() == app)
                {
                    out.add_child(doc);
                }
            }
            return Ok(out);
        }
        // "Otherwise, the Get() is a request to check which user has a
        // reservation to a particular computing site."
        let rsv = store
            .get(&Self::reservation_key(id))
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
        let requester = requester_of(op)?;
        if !is_admin(&requester) {
            return Err(Fault::client(
                "only the administrative client may remove computing sites",
            ));
        }
        store
            .remove(id)
            .map(|_| ())
            .ok_or_else(|| Fault::client(format!("no such site `{id}`")))?;
        // A removed site takes its reservation with it.
        store.remove(&Self::reservation_key(id));
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
                let account_epr = self
                    .account_epr
                    .get()
                    .ok_or_else(|| Fault::server("account service not wired"))?;
                let acct = EndpointReference::resource(account_epr.address.clone(), owner.clone());
                TransferProxy::new(ctx.agent())
                    .get(&acct)
                    .map_err(|e| Fault::client(format!("no VO account for `{owner}`: {e}")))?;

                if !store.contains(site) {
                    return Err(Fault::client(format!("no such site `{site}`")));
                }
                let key = Self::reservation_key(site);
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
                store
                    .insert(&key, doc)
                    .map_err(|e| Fault::server(e.to_string()))?;
                Ok(None)
            }
            // Remove a reservation — "A failure to destroy a reservation
            // after a job is finished would prevent the subsequent use of
            // that execution resource" (§4.2.3): this is the manual step
            // WSRF gets for free.
            "U" => store
                .remove(&Self::reservation_key(site))
                .map(|_| None)
                .ok_or_else(|| Fault::client(format!("site `{site}` is not reserved"))),
            // Change the time to which a site is reserved.
            "T" => {
                let key = Self::reservation_key(site);
                let mut doc = store
                    .get(&key)
                    .ok_or_else(|| Fault::client(format!("site `{site}` is not reserved")))?;
                let until = replacement
                    .child_text("until")
                    .ok_or_else(|| Fault::client("T-mode Put without until"))?
                    .to_owned();
                doc.remove_children(&"until".into());
                doc.add_child(Element::text_element("until", until));
                store
                    .update(&key, doc)
                    .map_err(|e| Fault::server(e.to_string()))?;
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
pub struct ExecutionLogic {
    procs: ProcessTable,
    site_name: String,
    allocation_epr: OnceLock<EndpointReference>,
    notifier: OnceLock<NotificationManager>,
    job_seq: AtomicU64,
    store: OnceLock<Arc<Collection>>,
    /// §3.2's Delete ambiguity, made explicit: does deleting the
    /// representation also terminate the process?
    pub delete_kills_process: bool,
}

impl ExecutionLogic {
    fn status_fields(&self, doc: &Element) -> (String, Option<i32>) {
        let pid: u64 = doc.child_parse("pid").unwrap_or(0);
        match self.procs.status(pid) {
            Some(ProcStatus::Running) => ("running".into(), None),
            Some(ProcStatus::Exited { code }) => ("exited".into(), Some(code)),
            Some(ProcStatus::Killed) => ("killed".into(), None),
            None => ("unknown".into(), None),
        }
    }

    /// The completion monitor: push events for exited, un-notified jobs.
    pub fn pump_completions(&self) -> usize {
        let (Some(store), Some(notifier)) = (self.store.get(), self.notifier.get()) else {
            return 0;
        };
        let xp = ogsa_xml::XPath::compile("/job[notified='false']").expect("static");
        let Ok(pending) = store.query(&xp, &ogsa_xml::XPathContext::new()) else {
            return 0;
        };
        let mut fired = 0;
        for (id, mut doc) in pending {
            let (status, exit) = self.status_fields(&doc);
            if status != "exited" {
                continue;
            }
            notifier.trigger(
                Element::new("JobEnded")
                    .with_attr("job", id.clone())
                    .with_attr(
                        "owner",
                        doc.child_text("owner").unwrap_or_default().to_owned(),
                    )
                    .with_child(Element::text_element(
                        "exitCode",
                        exit.unwrap_or_default().to_string(),
                    )),
            );
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

        // Outcall: verify the reservation (RA Get, second mode).
        let ra = self
            .allocation_epr
            .get()
            .ok_or_else(|| Fault::server("allocation service not wired"))?;
        let site_epr = EndpointReference::resource(ra.address.clone(), self.site_name.clone());
        let holder = TransferProxy::new(ctx.agent())
            .get(&site_epr)
            .map_err(|e| Fault::client(format!("reservation check failed: {e}")))?;
        if holder.text() != owner {
            return Err(Fault::client(format!(
                "`{owner}` holds no reservation here"
            )));
        }

        let pid = self.procs.spawn(spec.runtime, spec.exit_code);
        let id = format!("job-{}", self.job_seq.fetch_add(1, Ordering::Relaxed));
        // The stored representation: the client's spec plus server fields.
        let stored = representation
            .clone()
            .with_child(Element::text_element("owner", owner))
            .with_child(Element::text_element("pid", pid.to_string()))
            .with_child(Element::text_element("notified", "false"));
        store
            .insert(&id, stored.clone())
            .map_err(|e| Fault::server(e.to_string()))?;
        Ok(CreateOutcome {
            id,
            stored,
            modified: None,
        })
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
        let (status, exit) = self.status_fields(&doc);
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
        if self.delete_kills_process {
            if let Some(pid) = doc.child_parse::<u64>("pid") {
                self.procs.kill(pid);
            }
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
    pub exec_logic: Arc<ExecutionLogic>,
}

/// The deployed WS-Transfer VO.
pub struct TransferGrid {
    pub account_epr: EndpointReference,
    pub allocation_epr: EndpointReference,
    pub sites: Vec<TransferSite>,
    admin: ClientAgent,
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
        let vo = tb.container("vo-host", policy);
        // VO services call site services (and vice versa) on the user's
        // behalf; give those server-to-server invokes a retry budget so a
        // lossy wire doesn't surface as an unretryable fault at the client.
        vo.set_call_retry(Some(ogsa_transport::RetryPolicy::default_call(
            tb.rng().fork("gib-call-retry").seed(),
        )));

        let (account_epr, _) =
            TransferService::deploy(&vo, "/services/Account", Arc::new(AccountLogic));

        let allocation_logic = Arc::new(AllocationLogic {
            account_epr: OnceLock::new(),
        });
        let (allocation_epr, _) = TransferService::deploy(
            &vo,
            "/services/ResourceAllocation",
            allocation_logic.clone(),
        );
        allocation_logic
            .account_epr
            .set(account_epr.clone())
            .expect("wired once");

        let admin = tb.client("vo-host", "CN=admin,O=VO", policy);
        let admin_proxy = TransferProxy::new(&admin);
        for user in users {
            admin_proxy
                .create(
                    &account_epr,
                    Element::new("account")
                        .with_child(Element::text_element("dn", *user))
                        .with_child(Element::text_element("privilege", "submit"))
                        .with_child(Element::text_element("owner", admin.dn())),
                )
                .expect("create account");
        }

        let mut sites = Vec::new();
        for (i, host) in site_hosts.iter().enumerate() {
            let site_name = format!("site-{i}");
            let container = tb.container(host, policy);
            // Job-exited events are the VO's one must-arrive message:
            // redeliver them when the simulated wire loses them. Seeded off
            // the testbed RNG so runs replay bit-identically.
            container.set_redelivery(Some(ogsa_transport::RetryPolicy::default_redelivery(
                tb.rng().fork("gib-redelivery").seed(),
            )));
            container.set_call_retry(vo.call_retry());
            let fs = HostFs::new(tb.clock().clone(), Arc::new(tb.model().clone()));
            let procs = ProcessTable::new(tb.clock().clone(), Arc::new(tb.model().clone()));

            let data_logic = Arc::new(DataLogic {
                fs,
                allocation_epr: OnceLock::new(),
                site_name: site_name.clone(),
            });
            let (data_epr, _) =
                TransferService::deploy(&container, "/services/Data", data_logic.clone());
            data_logic
                .allocation_epr
                .set(allocation_epr.clone())
                .expect("wired once");

            let exec_logic = Arc::new(ExecutionLogic {
                procs,
                site_name: site_name.clone(),
                allocation_epr: OnceLock::new(),
                notifier: OnceLock::new(),
                job_seq: AtomicU64::new(0),
                store: OnceLock::new(),
                delete_kills_process: true,
            });
            let (exec_epr, exec_store) =
                TransferService::deploy(&container, "/services/Execution", exec_logic.clone());
            let (events_epr, notifier) =
                EventSourceService::deploy(&container, "/services/ExecutionEvents");
            exec_logic
                .allocation_epr
                .set(allocation_epr.clone())
                .expect("wired once");
            exec_logic.notifier.set(notifier).ok().expect("wired once");
            exec_logic.store.set(exec_store).expect("wired once");

            // Register the computing site.
            let mut site = Element::new("site")
                .with_attr("name", site_name.clone())
                .with_child(Element::text_element("host", *host))
                .with_child(Element::text_element(
                    "execAddress",
                    exec_epr.address.clone(),
                ))
                .with_child(Element::text_element(
                    "dataAddress",
                    data_epr.address.clone(),
                ))
                .with_child(Element::text_element("owner", admin.dn()));
            for app in applications {
                site.add_child(Element::text_element("application", *app));
            }
            admin_proxy
                .create(&allocation_epr, site)
                .expect("register site");

            sites.push(TransferSite {
                name: site_name,
                host: host.to_string(),
                data_epr,
                exec_epr,
                events_epr,
                exec_logic,
            });
        }

        TransferGrid {
            account_epr,
            allocation_epr,
            sites,
            admin,
            consumer_seq: AtomicU64::new(0),
        }
    }

    pub fn admin(&self) -> &ClientAgent {
        &self.admin
    }

    /// Tick every site's completion monitor.
    pub fn pump_completions(&self) -> usize {
        self.sites
            .iter()
            .map(|s| s.exec_logic.pump_completions())
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
        self.chosen
            .as_ref()
            .ok_or_else(|| ScenarioError::State("no site chosen yet".into()))
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
        let job = self
            .job
            .as_ref()
            .ok_or_else(|| ScenarioError::State("no job".into()))?;
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
        let query_epr = EndpointReference::resource(
            self.grid.allocation_epr.address.clone(),
            format!("1{application}"),
        );
        let resp = TransferProxy::new(&self.agent).get(&query_epr)?;
        let site = resp
            .child_elements()
            .next()
            .ok_or_else(|| ScenarioError::State(format!("no site offers `{application}`")))?;
        let name = site.attr_local("name").unwrap_or_default().to_owned();
        let exec_address = site
            .child_text("execAddress")
            .unwrap_or_default()
            .to_owned();
        let data_address = site
            .child_text("dataAddress")
            .unwrap_or_default()
            .to_owned();
        let events_address = format!("{exec_address}Events");
        self.chosen = Some(ChosenSite {
            name,
            exec_address,
            data_address,
            events_address,
        });
        Ok(())
    }

    fn make_reservation(&mut self) -> Result<(), ScenarioError> {
        let site = self.chosen()?.name.clone();
        // Put, R-mode.
        let epr = EndpointReference::resource(
            self.grid.allocation_epr.address.clone(),
            format!("R{site}"),
        );
        TransferProxy::new(&self.agent).put(
            &epr,
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
        let consumer = EventConsumer::listen(
            &self.agent,
            &format!(
                "/gib-events/{}",
                self.grid.consumer_seq.fetch_add(1, Ordering::Relaxed)
            ),
        );
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
        let site = self.chosen()?.name.clone();
        let epr = EndpointReference::resource(
            self.grid.allocation_epr.address.clone(),
            format!("U{site}"),
        );
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
        let consumer = self
            .consumer
            .as_ref()
            .ok_or_else(|| ScenarioError::State("no subscription".into()))?;
        let own_job = self
            .job
            .as_ref()
            .and_then(|j| j.resource_id())
            .unwrap_or_default()
            .to_owned();
        let deadline = std::time::Instant::now() + wait;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let Some(body) = consumer.recv_timeout(remaining) else {
                return Err(ScenarioError::State(
                    "job-exited event never arrived".into(),
                ));
            };
            if body.attr_local("job") == Some(&own_job) {
                return Ok(body.child_parse("exitCode").unwrap_or(-1));
            }
        }
    }
}
