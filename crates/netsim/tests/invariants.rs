//! Simulator-level invariants: conservation, bounds, and shaping
//! behaviour, including property-based checks.

use netsim::topology::Fabric;
use netsim::{
    Application, Ctx, FilterRule, FilterVerdict, LinkConfig, NodeId, Packet, PacketFilter, Payload,
    SimTime, Simulator, StateHasher, Telemetry, TelemetryConfig, WifiConfig,
};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::Duration;

fn v4(d: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(10, 0, 0, d))
}

#[derive(Default)]
struct Sink {
    packets: u64,
    bytes: u64,
}
impl Application for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.udp_bind(9).expect("bind");
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: &Packet) {
        self.packets += 1;
        self.bytes += u64::from(p.wire_bytes());
    }
}

struct Blaster {
    dst: SocketAddr,
    count: u32,
    interval: Duration,
    payload: u32,
    sent: u32,
}
impl Application for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.udp_bind(1000).expect("bind");
        ctx.set_timer(Duration::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        if self.sent >= self.count {
            return;
        }
        self.sent += 1;
        ctx.udp_send(1000, self.dst, Payload::empty(), self.payload)
            .expect("send");
        ctx.set_timer(self.interval, 0);
    }
}

/// sent == delivered + dropped, for arbitrary offered loads.
fn conservation_case(count: u32, interval_us: u64, rate_bps: u64) {
    let mut sim = Simulator::new(7);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let ia = sim.add_iface(a, vec![v4(1)]);
    let ib = sim.add_iface(b, vec![v4(2)]);
    sim.connect_p2p(ia, ib, LinkConfig::new(rate_bps, Duration::from_millis(1)))
        .expect("link");
    sim.add_default_route(a, ia);
    sim.add_default_route(b, ib);
    sim.install_app(b, Box::new(Sink::default()));
    sim.install_app(
        a,
        Box::new(Blaster {
            dst: SocketAddr::new(v4(2), 9),
            count,
            interval: Duration::from_micros(interval_us),
            payload: 512,
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(120));
    let s = sim.stats();
    assert_eq!(
        s.packets_sent,
        s.packets_delivered + s.total_dropped(),
        "conservation violated: {s:?}"
    );
    assert_eq!(sim.buffered_bytes(), 0, "queues must drain by the horizon");
}

#[test]
fn packet_conservation_underload() {
    conservation_case(500, 10_000, 10_000_000);
}

#[test]
fn packet_conservation_overload() {
    // Offered ~432 Mbps into a 1 Mbps link: most packets drop, but the
    // books still balance.
    conservation_case(5_000, 10, 1_000_000);
}

/// The loss law: a medium that drops each frame with probability p drops
/// p of its attempts, within 4σ = 4·sqrt(p(1 − p)/n). One Wi-Fi channel
/// and one wired link, each carrying 10,000 frames at p = 0.1, paced so
/// that every frame reaches the medium (no queue or retry-limit drops).
#[test]
fn lossy_wifi_and_wire_drop_their_probability_of_frames() {
    const P: f64 = 0.1;
    const FRAMES: u32 = 10_000;
    let mut sim = Simulator::new(11);
    let chan = sim.add_wifi_channel(WifiConfig {
        rate_bps: 10_000_000,
        loss_probability: P,
        ..WifiConfig::default()
    });
    let (a, b) = (sim.add_node("wifi-tx"), sim.add_node("wifi-rx"));
    let (ia, ib) = (sim.add_iface(a, vec![v4(1)]), sim.add_iface(b, vec![v4(2)]));
    sim.attach_wifi(ia, chan).expect("attach");
    sim.attach_wifi(ib, chan).expect("attach");
    sim.add_default_route(a, ia);
    let (c, d) = (sim.add_node("wire-tx"), sim.add_node("wire-rx"));
    let (ic, id) = (sim.add_iface(c, vec![v4(3)]), sim.add_iface(d, vec![v4(4)]));
    let wire = LinkConfig { loss_probability: P, ..LinkConfig::new(10_000_000, Duration::from_millis(1)) };
    sim.connect_p2p(ic, id, wire).expect("link");
    sim.add_default_route(c, ic);
    let mut sinks = Vec::new();
    for (tx, rx, dst) in [(a, b, v4(2)), (c, d, v4(4))] {
        let blaster = Blaster {
            dst: SocketAddr::new(dst, 9),
            count: FRAMES,
            interval: Duration::from_millis(1),
            payload: 100,
            sent: 0,
        };
        sim.install_app(tx, Box::new(blaster));
        sinks.push(sim.install_app(rx, Box::new(Sink::default())));
    }
    sim.run_until(SimTime::from_secs(12));
    let s = sim.stats();
    let received = |i: usize| sim.app_ref::<Sink>(sinks[i]).expect("sink").packets;
    let sigma = (P * (1.0 - P) / f64::from(FRAMES)).sqrt();
    for (medium, lost, delivered) in
        [("wifi", s.dropped_wifi_loss, received(0)), ("wire", s.dropped_link_loss, received(1))]
    {
        let attempts = lost + delivered;
        assert_eq!(attempts, u64::from(FRAMES), "{medium}: every frame reached the medium");
        let share = lost as f64 / attempts as f64;
        assert!(
            (share - P).abs() <= 4.0 * sigma,
            "{medium}: lost {lost} of {attempts} ({share:.4}), p = {P} ± {:.4}",
            4.0 * sigma
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn packet_conservation_random(
        count in 1u32..800,
        interval_us in 10u64..20_000,
        rate_kbps in 50u64..50_000,
    ) {
        conservation_case(count, interval_us, rate_kbps * 1000);
    }
}

#[test]
fn wifi_shaping_caps_station_throughput() {
    let mut sim = Simulator::new(5);
    let chan = sim.add_wifi_channel(WifiConfig {
        rate_bps: 54_000_000,
        ..WifiConfig::default()
    });
    let a = sim.add_node("sta");
    let b = sim.add_node("ap");
    let ia = sim.add_iface(a, vec![v4(1)]);
    let ib = sim.add_iface(b, vec![v4(2)]);
    sim.attach_wifi(ia, chan).expect("attach");
    sim.attach_wifi(ib, chan).expect("attach");
    sim.add_default_route(a, ia);
    // Shape the station to 200 kbps while offering ~2.2 Mbps.
    sim.set_wifi_station_shaping(chan, ia, 200_000);
    let sink = sim.install_app(b, Box::new(Sink::default()));
    sim.install_app(
        a,
        Box::new(Blaster {
            dst: SocketAddr::new(v4(2), 9),
            count: 10_000,
            interval: Duration::from_millis(2),
            payload: 512,
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(10));
    let bytes = sim.app_ref::<Sink>(sink).expect("sink").bytes;
    let kbps = bytes as f64 * 8.0 / 1000.0 / 10.0;
    assert!(
        (120.0..=230.0).contains(&kbps),
        "shaped throughput should approach 200 kbps, got {kbps:.0}"
    );
}

#[test]
fn wifi_contention_degrades_aggregate_throughput_per_station() {
    // Aggregate throughput per station falls as stations multiply on a
    // saturated medium (collisions + sharing).
    let run = |stations: usize| -> f64 {
        let mut sim = Simulator::new(11);
        let chan = sim.add_wifi_channel(WifiConfig {
            rate_bps: 2_000_000,
            ..WifiConfig::default()
        });
        let ap = sim.add_node("ap");
        let iap = sim.add_iface(ap, vec![v4(200)]);
        sim.attach_wifi(iap, chan).expect("attach");
        sim.set_wifi_gateway(chan, iap);
        let sink = sim.install_app(ap, Box::new(Sink::default()));
        for i in 0..stations {
            let n = sim.add_node(format!("sta{i}"));
            let iface = sim.add_iface(n, vec![v4(i as u8 + 1)]);
            sim.attach_wifi(iface, chan).expect("attach");
            sim.add_default_route(n, iface);
            sim.install_app(
                n,
                Box::new(Blaster {
                    dst: SocketAddr::new(v4(200), 9),
                    count: 100_000,
                    interval: Duration::from_micros(500),
                    payload: 512,
                    sent: 0,
                }),
            );
        }
        sim.run_until(SimTime::from_secs(5));
        sim.app_ref::<Sink>(sink).expect("sink").bytes as f64 / stations as f64
    };
    let few = run(2);
    let many = run(12);
    assert!(
        many < few,
        "per-station goodput must fall with contention: 2 stations {few:.0} B vs 12 stations {many:.0} B"
    );
}

#[test]
fn ingress_filter_sees_transit_traffic() {
    let mut sim = Simulator::new(3);
    let mut star = Fabric::star(&mut sim, "fabric");
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    star.attach_core(&mut sim, a, LinkConfig::default());
    let mb = star.attach_core(&mut sim, b, LinkConfig::default());
    let sink = sim.install_app(b, Box::new(Sink::default()));
    sim.install_app(
        a,
        Box::new(Blaster {
            dst: SocketAddr::new(mb.addr_v4, 9),
            count: 10,
            interval: Duration::from_millis(5),
            payload: 100,
            sent: 0,
        }),
    );
    // Drop every other packet at the fabric.
    #[derive(Debug, Clone)]
    struct Flip(bool);
    impl PacketFilter for Flip {
        fn verdict(&mut self, _pkt: &Packet, _now: SimTime) -> FilterVerdict {
            self.0 = !self.0;
            if self.0 {
                FilterVerdict::Drop
            } else {
                FilterVerdict::Allow
            }
        }
        fn fork(&self) -> Box<dyn PacketFilter> {
            Box::new(self.clone())
        }
        fn state_digest(&self, h: &mut StateHasher) {
            h.write_bool(self.0);
        }
    }
    sim.push_node_filter(star.root(), FilterRule::Custom(Box::new(Flip(false))));
    sim.run_until(SimTime::from_secs(2));
    let delivered = sim.app_ref::<Sink>(sink).expect("sink").packets;
    assert_eq!(delivered, 5, "alternate packets filtered in transit");
    assert_eq!(sim.stats().dropped_filtered, 5);
}

#[test]
fn link_jitter_spreads_arrival_times() {
    // With zero jitter, equally-spaced sends arrive equally spaced; with
    // jitter, inter-arrival gaps vary.
    let gaps = |jitter_ms: u64| -> Vec<i64> {
        let mut sim = Simulator::new(9);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let ia = sim.add_iface(a, vec![v4(1)]);
        let ib = sim.add_iface(b, vec![v4(2)]);
        sim.connect_p2p(
            ia,
            ib,
            LinkConfig::new(10_000_000, Duration::from_millis(5))
                .with_jitter(Duration::from_millis(jitter_ms)),
        )
        .expect("link");
        sim.add_default_route(a, ia);
        sim.add_default_route(b, ib);
        let capture = TelemetryConfig { capture: true, ..TelemetryConfig::default() };
        sim.set_telemetry(Telemetry::from_config(&capture));
        sim.install_app(b, Box::new(Sink::default()));
        sim.install_app(
            a,
            Box::new(Blaster {
                dst: SocketAddr::new(v4(2), 9),
                count: 20,
                interval: Duration::from_millis(50),
                payload: 100,
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(3));
        let arrivals: Vec<i64> = sim
            .telemetry()
            .with_capture(|c| {
                let delivered = c.records().iter().filter(|r| r.kind == "delivered");
                delivered.map(|r| r.time_nanos as i64).collect()
            })
            .expect("capturing");
        assert_eq!(arrivals.len(), 20);
        arrivals.windows(2).map(|w| w[1] - w[0]).collect()
    };
    let no_jitter = gaps(0);
    let jittered = gaps(20);
    assert!(
        no_jitter.windows(2).all(|w| w[0] == w[1]),
        "no jitter => constant gaps"
    );
    assert!(
        jittered.windows(2).any(|w| w[0] != w[1]),
        "jitter => varying gaps"
    );
}

#[test]
fn node_ids_are_stable_across_growth() {
    let mut sim = Simulator::new(0);
    let ids: Vec<NodeId> = (0..100).map(|i| sim.add_node(format!("n{i}"))).collect();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(sim.node(*id).name(), format!("n{i}"));
    }
}

#[test]
fn tcp_lite_survives_a_lossy_wireless_medium() {
    use netsim::TcpEvent;
    // 20% random frame loss: the handshake and every data segment must
    // still complete via retransmission.
    struct Server {
        got: Vec<u32>,
    }
    impl Application for Server {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_listen(23).expect("listen");
        }
        fn on_tcp(&mut self, _ctx: &mut Ctx<'_>, ev: TcpEvent) {
            if let TcpEvent::Data { payload, .. } = ev {
                self.got.push(*payload.get::<u32>().expect("u32"));
            }
        }
    }
    struct Client {
        server: SocketAddr,
        to_send: u32,
    }
    impl Application for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_connect(self.server).expect("connect");
        }
        fn on_tcp(&mut self, ctx: &mut Ctx<'_>, ev: TcpEvent) {
            if let TcpEvent::Connected { conn } = ev {
                for i in 0..self.to_send {
                    ctx.tcp_send(conn, Payload::new(i), 4).expect("send");
                }
            }
        }
    }
    let mut sim = Simulator::new(17);
    let chan = sim.add_wifi_channel(WifiConfig {
        rate_bps: 10_000_000,
        loss_probability: 0.2,
        ..WifiConfig::default()
    });
    let a = sim.add_node("client");
    let b = sim.add_node("server");
    let ia = sim.add_iface(a, vec![v4(1)]);
    let ib = sim.add_iface(b, vec![v4(2)]);
    sim.attach_wifi(ia, chan).expect("attach");
    sim.attach_wifi(ib, chan).expect("attach");
    sim.add_default_route(a, ia);
    sim.add_default_route(b, ib);
    let srv = sim.install_app(b, Box::new(Server { got: vec![] }));
    sim.install_app(
        a,
        Box::new(Client {
            server: SocketAddr::new(v4(2), 23),
            to_send: 30,
        }),
    );
    sim.run_until(SimTime::from_secs(60));
    let got = &sim.app_ref::<Server>(srv).expect("server").got;
    assert_eq!(got.len(), 30, "all messages delivered despite 20% loss");
    // In order, each exactly once.
    let expected: Vec<u32> = (0..30).collect();
    assert_eq!(got, &expected);
    assert!(sim.stats().dropped_wifi_loss > 0, "the medium really was lossy");
}
