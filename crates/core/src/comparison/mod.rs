//! The comparison harness: scenario runners producing the paper's figures.

pub mod ablation;
pub mod breakdown;
pub mod cell;
pub mod fanout;
pub mod grid;
pub mod hello;
pub mod throughput;

use ogsa_container::{ClientAgent, Container, Testbed};
use ogsa_counter::{CounterApi, TransferCounter, WsrfCounter};
use ogsa_gridbox::{GridScenario, TransferGrid, WsrfGrid};
use ogsa_security::SecurityPolicy;

/// Which software stack a measurement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stack {
    /// WSRF + WS-Notification (the paper's WSRF.NET).
    Wsrf,
    /// WS-Transfer + WS-Eventing.
    Transfer,
}

impl Stack {
    /// Label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Stack::Wsrf => "WSRF.NET",
            Stack::Transfer => "WS-Transfer / WS-Eventing",
        }
    }

    pub fn all() -> [Stack; 2] {
        [Stack::Transfer, Stack::Wsrf]
    }

    /// Short machine-readable key for JSON artifacts.
    pub fn key(self) -> &'static str {
        match self {
            Stack::Wsrf => "wsrf",
            Stack::Transfer => "transfer",
        }
    }

    /// Deploy this stack's counter service on `container`.
    pub fn deploy_counter(self, container: &Container) -> DeployedCounter {
        match self {
            Stack::Wsrf => DeployedCounter::Wsrf(WsrfCounter::deploy(container)),
            Stack::Transfer => DeployedCounter::Transfer(TransferCounter::deploy(container)),
        }
    }

    /// Deploy this stack's Grid-in-a-Box VO on `tb` the way Figure 6 does:
    /// VO services on `vo-host`, an execution site on each of
    /// [`SITE_HOSTS`] offering `blast`, accounts for `users`.
    pub fn deploy_grid(self, tb: &Testbed, policy: SecurityPolicy, users: &[&str]) -> DeployedGrid {
        let apps = ["blast"];
        match self {
            Stack::Wsrf => {
                DeployedGrid::Wsrf(WsrfGrid::deploy(tb, policy, &SITE_HOSTS, &apps, users))
            }
            Stack::Transfer => {
                DeployedGrid::Transfer(TransferGrid::deploy(tb, policy, &SITE_HOSTS, &apps, users))
            }
        }
    }
}

/// The execution sites of every harness's VO.
pub const SITE_HOSTS: [&str; 2] = ["site-a", "site-b"];

/// A counter service deployed on either stack.
pub enum DeployedCounter {
    Wsrf(WsrfCounter),
    Transfer(TransferCounter),
}

impl DeployedCounter {
    /// A client of the service behind the stack-neutral [`CounterApi`].
    pub fn client(&self, agent: ClientAgent) -> Box<dyn CounterApi> {
        match self {
            DeployedCounter::Wsrf(d) => Box::new(d.client(agent)),
            DeployedCounter::Transfer(d) => Box::new(d.client(agent)),
        }
    }
}

/// A Grid-in-a-Box VO deployed on either stack.
pub enum DeployedGrid {
    Wsrf(WsrfGrid),
    Transfer(TransferGrid),
}

impl DeployedGrid {
    /// Start a user session behind the stack-neutral [`GridScenario`].
    pub fn scenario(&self, agent: ClientAgent) -> Box<dyn GridScenario + '_> {
        match self {
            DeployedGrid::Wsrf(g) => Box::new(g.scenario(agent)),
            DeployedGrid::Transfer(g) => Box::new(g.scenario(agent)),
        }
    }
}
