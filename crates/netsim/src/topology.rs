//! World wiring for common scenarios.
//!
//! The paper's simulated network (§III-D) conceptually collapses the
//! Internet path between any two components into "a single connection line
//! with specific latency and bandwidth". A [`Fabric`] builds exactly that:
//! a root node (router / simulated Internet) with one point-to-point link
//! per core component, and the Devs behind it in one of three shapes — the
//! same star, regional routers with finite uplinks, or one shared Wi-Fi
//! channel.

use crate::ids::{ChannelId, IfaceId, NodeId};
use crate::link::LinkConfig;
use crate::sim::Simulator;
use crate::wifi::WifiConfig;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Allocates dual-stack addresses out of `10.0.0.0/8` and `fd00::/16`.
#[derive(Debug, Clone)]
pub struct AddrAllocator {
    next: u32,
}

impl AddrAllocator {
    /// Pairs one allocator can hand out: the host numbers of `10.0.0.0/8`
    /// less the network and broadcast addresses. A [`Fabric`] spends at
    /// most two per attached node (its end of the link and the router's),
    /// which is what `SimulationConfig::validate` budgets.
    pub const CAPACITY: u32 = 0x00FF_FFFE;

    /// Starts allocating from host number 1.
    pub(crate) fn new() -> Self {
        AddrAllocator { next: 1 }
    }

    /// Allocates the next dual-stack (v4, v6) address pair.
    ///
    /// Host numbers map little-octet-first into `10.x.y.z`, so the first
    /// 65534 pairs are bit-identical to the historical `/16` allocator
    /// (pinned by recorded traces); beyond that the third byte of the
    /// network part starts counting, opening the space to ~16.7M hosts for
    /// million-device worlds.
    ///
    /// # Panics
    ///
    /// Panics after [`AddrAllocator::CAPACITY`] allocations.
    pub(crate) fn next_pair(&mut self) -> (IpAddr, IpAddr) {
        let n = self.next;
        assert!(n <= Self::CAPACITY, "address space exhausted");
        self.next += 1;
        let v4 = IpAddr::V4(Ipv4Addr::new(
            10,
            ((n >> 16) & 0xFF) as u8,
            ((n >> 8) & 0xFF) as u8,
            (n & 0xFF) as u8,
        ));
        let v6 = IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, (n >> 16) as u16, n as u16));
        (v4, v6)
    }
}

/// One node attached to a [`Fabric`].
#[derive(Debug, Clone, Copy)]
pub struct Member {
    /// The attached node.
    pub node: NodeId,
    /// The node's edge interface.
    pub iface: IfaceId,
    /// The node's IPv4 address.
    pub addr_v4: IpAddr,
    /// The node's IPv6 address.
    pub addr_v6: IpAddr,
}

/// How Devs reach the root.
#[derive(Debug, Clone)]
enum Access {
    /// Each over its own point-to-point link, like the core components.
    Star,
    /// Through regional routers; the root's `r`-th interface is region
    /// `r`'s uplink.
    Tiered(Vec<NodeId>),
    /// As stations of one shared channel whose gateway is the root.
    Wifi { chan: ChannelId, gateway_iface: IfaceId },
}

/// The simulated Internet joining Attacker, Devs and TServer: a root node
/// that forwards unicast and relays multicast, core components wired to it
/// point to point, and the Devs behind it in one of three shapes.
#[derive(Debug, Clone)]
pub struct Fabric {
    root: NodeId,
    alloc: AddrAllocator,
    access: Access,
}

fn add_router(sim: &mut Simulator, name: impl Into<String>) -> NodeId {
    let router = sim.add_node(name);
    sim.nodes.forwarding[router.index()] = true;
    sim.nodes.forward_multicast[router.index()] = true;
    router
}

impl Fabric {
    /// A star: every Dev on its own link to the root node `name`.
    pub fn star(sim: &mut Simulator, name: &str) -> Self {
        Fabric {
            root: add_router(sim, name),
            alloc: AddrAllocator::new(),
            access: Access::Star,
        }
    }

    /// A two-tier fabric: the backbone `{name}-backbone` fronting `regions`
    /// regional routers, each joined to it by `uplink`.
    ///
    /// The paper acknowledges (§V-C) that "all components share uniform
    /// connections, while real-world factors like distance and network quality
    /// impact device-device links". Devs in the same region share a regional
    /// uplink, so congestion appears at two levels (regional uplinks first,
    /// then the backbone).
    ///
    /// # Panics
    ///
    /// Panics if `regions` is zero.
    pub fn tiered(sim: &mut Simulator, name: &str, regions: usize, uplink: LinkConfig) -> Self {
        assert!(regions > 0, "at least one region is required");
        let backbone = add_router(sim, format!("{name}-backbone"));
        let mut alloc = AddrAllocator::new();
        let mut region_nodes = Vec::with_capacity(regions);
        for r in 0..regions {
            let region = add_router(sim, format!("{name}-region-{r}"));
            let (rv4, rv6) = alloc.next_pair();
            let (bv4, bv6) = alloc.next_pair();
            let r_if = sim.add_iface(region, vec![rv4, rv6]);
            let b_if = sim.add_iface(backbone, vec![bv4, bv6]);
            sim.connect_p2p(r_if, b_if, uplink.clone())
                .expect("freshly created interfaces are unattached");
            sim.add_default_route(region, r_if);
            region_nodes.push(region);
        }
        Fabric { root: backbone, alloc, access: Access::Tiered(region_nodes) }
    }

    /// A Wi-Fi access network: the router (access point) `name` joining
    /// the Devs over one shared CSMA/CA channel configured by `config` —
    /// the shape of the paper's physical validation setup (Raspberry-Pi
    /// Devs on a Netgear router, servers on Ethernet).
    pub fn wifi(sim: &mut Simulator, name: &str, config: WifiConfig) -> Self {
        let root = add_router(sim, name);
        let chan = sim.add_wifi_channel(config);
        let mut alloc = AddrAllocator::new();
        let (gv4, gv6) = alloc.next_pair();
        let gateway_iface = sim.add_iface(root, vec![gv4, gv6]);
        sim.attach_wifi(gateway_iface, chan)
            .expect("freshly created interfaces are unattached");
        sim.set_wifi_gateway(chan, gateway_iface);
        Fabric { root, alloc, access: Access::Wifi { chan, gateway_iface } }
    }

    /// The always-up root node (the star's centre, the backbone, or the
    /// access point) — where network-level defenses are deployed.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Attaches a core component (Attacker, TServer, extra clients) to the
    /// root over a point-to-point link with `config`, assigning it a
    /// dual-stack address pair and a default route.
    pub fn attach_core(&mut self, sim: &mut Simulator, node: NodeId, config: LinkConfig) -> Member {
        self.attach_p2p(sim, self.root, node, config)
    }

    /// Attaches the `index`-th Dev: to the root (star), to regional router
    /// `index` modulo the region count (tiered), or to the shared medium
    /// as a station shaped to `config.rate_bps` at the application layer —
    /// how the paper's lab limits its Raspberry Pis to IoT data rates.
    pub fn attach_dev(
        &mut self,
        sim: &mut Simulator,
        index: usize,
        node: NodeId,
        config: LinkConfig,
    ) -> Member {
        match self.access {
            Access::Star => self.attach_p2p(sim, self.root, node, config),
            Access::Tiered(ref regions) => {
                let region = index % regions.len();
                let router = regions[region];
                let member = self.attach_p2p(sim, router, node, config);
                // The backbone reaches the member via the region's uplink.
                let uplink = sim.node(self.root).ifaces()[region];
                sim.add_route(self.root, member.addr_v4, 32, uplink);
                sim.add_route(self.root, member.addr_v6, 128, uplink);
                member
            }
            Access::Wifi { chan, gateway_iface } => {
                let (v4, v6) = self.alloc.next_pair();
                let iface = sim.add_iface(node, vec![v4, v6]);
                sim.attach_wifi(iface, chan)
                    .expect("freshly created interfaces are unattached");
                sim.set_wifi_station_shaping(chan, iface, config.rate_bps);
                sim.add_default_route(node, iface);
                // The router reaches stations out its gateway interface; the
                // channel resolves the destination station by address.
                sim.add_route(self.root, v4, 32, gateway_iface);
                sim.add_route(self.root, v6, 128, gateway_iface);
                Member { node, iface, addr_v4: v4, addr_v6: v6 }
            }
        }
    }

    fn attach_p2p(
        &mut self,
        sim: &mut Simulator,
        router: NodeId,
        node: NodeId,
        config: LinkConfig,
    ) -> Member {
        let (v4, v6) = self.alloc.next_pair();
        let (rv4, rv6) = self.alloc.next_pair();
        let iface = sim.add_iface(node, vec![v4, v6]);
        let router_iface = sim.add_iface(router, vec![rv4, rv6]);
        sim.connect_p2p(iface, router_iface, config)
            .expect("freshly created interfaces are unattached");
        sim.add_default_route(node, iface);
        sim.add_route(router, v4, 32, router_iface);
        sim.add_route(router, v6, 128, router_iface);
        Member { node, iface, addr_v4: v4, addr_v6: v6 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use crate::packet::{Packet, Payload};
    use crate::app::Ctx;
    use crate::time::SimTime;
    use std::net::SocketAddr;
    use std::time::Duration;

    #[test]
    fn allocator_is_sequential_and_dual_stack() {
        let mut a = AddrAllocator::new();
        let (v4, v6) = a.next_pair();
        assert_eq!(v4, IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(v6, IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 1)));
        let (v4b, _) = a.next_pair();
        assert_eq!(v4b, IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)));
    }

    #[test]
    fn allocator_crosses_octet_boundary() {
        let mut a = AddrAllocator::new();
        for _ in 0..255 {
            a.next_pair();
        }
        let (v4, _) = a.next_pair();
        assert_eq!(v4, IpAddr::V4(Ipv4Addr::new(10, 0, 1, 0)));
    }

    #[test]
    fn allocator_widens_past_the_old_16_bit_space() {
        let mut a = AddrAllocator::new();
        for _ in 0..0xFFFE {
            a.next_pair();
        }
        // Host 0xFFFF is the first beyond the old /16 allocator's panic
        // point; everything before it must stay bit-identical (pinned by
        // recorded traces), and the third byte takes over afterwards.
        let (v4, v6) = a.next_pair();
        assert_eq!(v4, IpAddr::V4(Ipv4Addr::new(10, 0, 255, 255)));
        assert_eq!(v6, IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 0xFFFF)));
        let (v4, v6) = a.next_pair();
        assert_eq!(v4, IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)));
        assert_eq!(v6, IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 1, 0)));
    }

    #[test]
    fn every_shape_hands_out_the_addresses_recorded_runs_rely_on() {
        // The first core component and the first two Devs of each shape,
        // as the three separate builders numbered them: a tiered fabric
        // spends two pairs per region first, a Wi-Fi one a single pair on
        // the gateway, and a station has no router-side address.
        type Build = fn(&mut Simulator) -> Fabric;
        let shapes: [(Build, [u8; 3]); 3] = [
            (|sim| Fabric::star(sim, "internet"), [1, 3, 5]),
            (|sim| Fabric::tiered(sim, "internet", 3, LinkConfig::default()), [7, 9, 11]),
            (|sim| Fabric::wifi(sim, "router", WifiConfig::default()), [2, 4, 5]),
        ];
        for (build, hosts) in shapes {
            let mut sim = Simulator::new(1);
            let mut fabric = build(&mut sim);
            let nodes = ["attacker", "dev-0", "dev-1"].map(|name| sim.add_node(name));
            let cfg = LinkConfig::default();
            let members = [
                fabric.attach_core(&mut sim, nodes[0], cfg.clone()),
                fabric.attach_dev(&mut sim, 0, nodes[1], cfg.clone()),
                fabric.attach_dev(&mut sim, 1, nodes[2], cfg),
            ];
            for (member, host) in members.iter().zip(hosts) {
                assert_eq!(member.addr_v4, IpAddr::V4(Ipv4Addr::new(10, 0, 0, host)));
                let v6 = Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, u16::from(host));
                assert_eq!(member.addr_v6, IpAddr::V6(v6));
            }
        }
    }

    #[derive(Default)]
    struct CountSink(u64);
    impl Application for CountSink {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.udp_bind(9).expect("bind");
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &Packet) {
            self.0 += 1;
        }
    }

    struct OneShotSender(SocketAddr);
    impl Application for OneShotSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.udp_bind(1000).expect("bind");
            ctx.udp_send(1000, self.0, Payload::empty(), 64).expect("send");
        }
    }

    #[test]
    fn star_routes_between_members() {
        let mut sim = Simulator::new(9);
        let mut star = Fabric::star(&mut sim, "internet");
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let cfg = LinkConfig::new(1_000_000, Duration::from_millis(5));
        let _ma = star.attach_core(&mut sim, a, cfg.clone());
        let mb = star.attach_core(&mut sim, b, cfg);
        let sink = sim.install_app(b, Box::new(CountSink::default()));
        sim.install_app(a, Box::new(OneShotSender(SocketAddr::new(mb.addr_v4, 9))));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<CountSink>(sink).expect("sink").0, 1);
    }

    #[test]
    fn tiered_routes_across_regions() {
        let mut sim = Simulator::new(4);
        let mut t = Fabric::tiered(
            &mut sim,
            "net",
            3,
            LinkConfig::new(10_000_000, Duration::from_millis(2)),
        );
        let cfg = LinkConfig::new(1_000_000, Duration::from_millis(5));
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let srv = sim.add_node("srv");
        t.attach_dev(&mut sim, 0, a, cfg.clone());
        let mb = t.attach_dev(&mut sim, 1, b, cfg.clone());
        let ms = t.attach_core(&mut sim, srv, cfg);
        // region 0 -> region 1
        let sink_b = sim.install_app(b, Box::new(CountSink::default()));
        sim.install_app(a, Box::new(OneShotSender(SocketAddr::new(mb.addr_v4, 9))));
        // region 1 -> backbone member
        let sink_s = sim.install_app(srv, Box::new(CountSink::default()));
        sim.install_app(b, Box::new(OneShotSender(SocketAddr::new(ms.addr_v4, 9))));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<CountSink>(sink_b).expect("sink").0, 1);
        assert_eq!(sim.app_ref::<CountSink>(sink_s).expect("sink").0, 1);
    }

    #[test]
    fn regional_uplink_is_a_shared_bottleneck() {
        // Two senders in one region share a 200 kbps uplink; the same pair
        // split across regions do not contend.
        let run = |same_region: bool| -> u64 {
            let mut sim = Simulator::new(6);
            let mut t = Fabric::tiered(
                &mut sim,
                "net",
                2,
                LinkConfig::new(200_000, Duration::from_millis(2)),
            );
            let cfg = LinkConfig::new(2_000_000, Duration::from_millis(5));
            let srv = sim.add_node("srv");
            let ms = t.attach_core(&mut sim, srv, LinkConfig::default());
            let sink = sim.install_app(srv, Box::new(CountSink::default()));
            for i in 0..2usize {
                let n = sim.add_node(format!("s{i}"));
                let region = if same_region { 0 } else { i };
                t.attach_dev(&mut sim, region, n, cfg.clone());
                struct Flood(SocketAddr);
                impl Application for Flood {
                    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                        ctx.udp_bind(1000).expect("bind");
                        ctx.set_timer(Duration::ZERO, 0);
                    }
                    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                        let _ = ctx.udp_send(1000, self.0, Payload::empty(), 500);
                        ctx.set_timer(Duration::from_millis(5), 0);
                    }
                }
                sim.install_app(n, Box::new(Flood(SocketAddr::new(ms.addr_v4, 9))));
            }
            sim.run_until(SimTime::from_secs(5));
            sim.app_ref::<CountSink>(sink).expect("sink").0
        };
        let contended = run(true);
        let spread = run(false);
        assert!(
            spread as f64 > contended as f64 * 1.5,
            "splitting regions should relieve the uplink: {contended} vs {spread}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn tiered_requires_regions() {
        let mut sim = Simulator::new(0);
        let _ = Fabric::tiered(&mut sim, "x", 0, LinkConfig::default());
    }

    #[test]
    fn star_routes_ipv6_too() {
        let mut sim = Simulator::new(9);
        let mut star = Fabric::star(&mut sim, "internet");
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let cfg = LinkConfig::default();
        star.attach_core(&mut sim, a, cfg.clone());
        let mb = star.attach_core(&mut sim, b, cfg);
        let sink = sim.install_app(b, Box::new(CountSink::default()));
        sim.install_app(a, Box::new(OneShotSender(SocketAddr::new(mb.addr_v6, 9))));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<CountSink>(sink).expect("sink").0, 1);
    }
}
