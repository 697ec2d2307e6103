//! The vulnerable network daemons running inside Devs.
//!
//! [`NetMgrDaemon`] models Connman's DNS proxy (CVE-2017-12865 analogue):
//! it periodically queries its configured DNS server and parses responses
//! through an unchecked stack-buffer copy. [`DnsProxyDaemon`] models
//! Dnsmasq's DHCPv6 handling (CVE-2017-14493 analogue): it joins the
//! All_DHCP_Relay_Agents_and_Servers IPv6 multicast group and parses
//! RELAY-FORW options through the same kind of copy.
//!
//! Both daemons expose the info-leak primitive their
//! [`BinaryImage`] declares, enabling the attacker's
//! two-stage leak-then-rebase exploit against ASLR devices.
//!
//! [`BinaryImage`]: tinyvm::BinaryImage

mod dnsproxy;
mod netmgr;

pub use dnsproxy::DnsProxyDaemon;
pub use netmgr::NetMgrDaemon;

use crate::container::{ContainerEvent, ContainerHandle};
use crate::shell::ShellJob;
use netsim::Ctx;
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;
use tinyvm::{BinaryImage, DeliveryOutcome, Protections, VulnProcess};

/// DNS record type the malicious server uses to trigger the leak primitive.
pub const RTYPE_LEAK_PROBE: u16 = 0xFFA0;
/// DHCPv6 option code carrying a leak probe.
pub const OPTION_LEAK_PROBE: u16 = 0xFF01;
/// DHCPv6 option code carrying the leaked address in a reply.
pub const OPTION_LEAK_VALUE: u16 = 0xFF02;

/// Formats the DNS query name a Connman-like daemon emits when its leak
/// primitive fires.
pub(crate) fn leak_query_name(addr: u64) -> String {
    format!("leak-{addr:016x}.probe")
}

/// Parses a leak query name back into the leaked address.
pub fn parse_leak_query_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("leak-")?.strip_suffix(".probe")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Shared state and behaviour of a vulnerable daemon: the running
/// [`VulnProcess`], crash/restart supervision, and outcome accounting.
#[derive(Debug)]
pub struct ServiceCore {
    container: ContainerHandle,
    process: VulnProcess,
    daemon: String,
    restart_delay: Duration,
    /// Exploit payloads delivered to the copy path.
    pub payloads_received: u64,
    /// Successful command executions.
    pub execs: u64,
    /// Crashes (failed exploits).
    pub crashes: u64,
    /// Exploits blocked by memory defenses.
    pub blocked: u64,
}

impl ServiceCore {
    /// Creates the core for `daemon` running `image` under `protections`.
    pub fn new<R: Rng + ?Sized>(
        container: ContainerHandle,
        image: Arc<BinaryImage>,
        protections: Protections,
        daemon: impl Into<String>,
        rng: &mut R,
    ) -> Self {
        ServiceCore {
            container,
            process: VulnProcess::start(image, protections, rng),
            daemon: daemon.into(),
            restart_delay: Duration::from_secs(3),
            payloads_received: 0,
            execs: 0,
            crashes: 0,
            blocked: 0,
        }
    }

    /// The container this daemon runs in.
    pub fn container(&self) -> &ContainerHandle {
        &self.container
    }

    /// Deep-copies the core into a forked world: the [`VulnProcess`] and
    /// counters clone plainly, the container handle translates through
    /// `map`.
    pub fn fork(&self, map: &netsim::ForkMap) -> ServiceCore {
        ServiceCore {
            container: netsim::ForkClone::fork_clone(&self.container, map),
            process: self.process.clone(),
            daemon: self.daemon.clone(),
            restart_delay: self.restart_delay,
            payloads_received: self.payloads_received,
            execs: self.execs,
            crashes: self.crashes,
            blocked: self.blocked,
        }
    }

    /// The underlying vulnerable process.
    pub fn process(&self) -> &VulnProcess {
        &self.process
    }

    /// Answers a leak probe.
    pub fn leak(&self) -> Option<u64> {
        self.process.leak_probe()
    }

    /// Feeds network input into the vulnerable copy path, handling all four
    /// outcomes: spawns the attacker's shell on success, schedules a
    /// supervisor restart (timer `restart_token`) on crash, and logs
    /// blocked exploits.
    pub fn deliver(&mut self, ctx: &mut Ctx<'_>, data: &[u8], restart_token: u64) {
        self.payloads_received += 1;
        match self.process.deliver_input(data) {
            DeliveryOutcome::Handled | DeliveryOutcome::Dead => {}
            DeliveryOutcome::Blocked(_) => {
                self.blocked += 1;
                self.container.log(ContainerEvent::ExploitBlocked {
                    time: ctx.now(),
                    daemon: self.daemon.clone(),
                });
            }
            DeliveryOutcome::Crashed(_) => {
                self.crashes += 1;
                self.container.log(ContainerEvent::DaemonCrashed {
                    time: ctx.now(),
                    daemon: self.daemon.clone(),
                });
                ctx.set_timer(self.restart_delay, restart_token);
            }
            DeliveryOutcome::Exec(cmd) => {
                self.execs += 1;
                let job = ShellJob::command(self.container.clone(), cmd);
                let node = ctx.node_id();
                ctx.spawn_app(node, Box::new(job));
            }
        }
    }

    /// Supervisor restart after a crash.
    pub fn restart(&mut self, ctx: &mut Ctx<'_>) {
        self.process.restart(ctx.rng());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leak_query_name_roundtrip() {
        let addr = 0x5555_5555_7000_11a0u64;
        let name = leak_query_name(addr);
        assert_eq!(parse_leak_query_name(&name), Some(addr));
    }

    #[test]
    fn parse_leak_rejects_other_names() {
        assert_eq!(parse_leak_query_name("pool.ntp.org"), None);
        assert_eq!(parse_leak_query_name("leak-zz.probe"), None);
        assert_eq!(parse_leak_query_name("leak-12"), None);
    }
}
