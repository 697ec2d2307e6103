//! Bring your own vulnerable binary — the framework's headline capability:
//! "DDoSim enables researchers to create simulated environments comprising
//! potential bot devices running **user-specified binaries**".
//!
//! This example defines a brand-new IoT daemon (`campd`, a toy camera
//! control service with a stack overflow in its command parser), a matching
//! exploit delivery app, and wires both into a scratch network — all
//! through the public API, no framework changes.
//!
//! ```sh
//! cargo run --release --example custom_binary
//! ```

use attacker::{ExploitForge, ExploitStrategy, FileServer};
use firmware::{CommandSet, ContainerHandle, ServiceCore};
use malware::CncServer;
use netsim::topology::Fabric;
use netsim::{Application, Ctx, LinkConfig, Packet, Payload, SimTime, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tinyvm::{Arch, BinaryImage, GadgetOp, LeakSpec, Protections, VulnSpec};

/// Step 1 — describe the binary: a 256-byte command buffer, gadgets found
/// by "analysis", and a leak primitive (an error reply that echoes a code
/// address).
fn campd_image() -> BinaryImage {
    let mut gadgets = BTreeMap::new();
    gadgets.insert(0x0840, GadgetOp::PopArg0);
    gadgets.insert(0x1f10, GadgetOp::SyscallExec);
    BinaryImage {
        name: "campd".to_owned(),
        arch: Arch::Arm7, // a camera SoC
        text_base: 0x0040_0000,
        text_len: 0x3_0000,
        gadgets,
        vuln: VulnSpec {
            buffer_len: 256,
            gap_to_ra: 12,
            max_input: 768,
        },
        leak: Some(LeakSpec {
            leaked_symbol_addr: 0x0040_0840,
        }),
        size_bytes: 420_000,
    }
}

/// Step 2 — the daemon: listens on UDP 8554 for camera control commands
/// and parses them through the vulnerable copy path.
struct CampDaemon {
    core: ServiceCore,
}

const CAMP_PORT: u16 = 8554;
const TIMER_RESTART: u64 = 1;
/// Private "command" that triggers the leak primitive (an overlong session
/// token echoes a pointer in the error reply).
struct LeakProbe;
/// The leak reply.
struct LeakReply(u64);

impl Application for CampDaemon {
    fn name(&self) -> &str {
        "campd"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core
            .container()
            .register_proc("campd", Some(ctx.app_id()), vec![CAMP_PORT]);
        ctx.udp_bind(CAMP_PORT).expect("camera port is free");
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_RESTART {
            self.core.restart(ctx);
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &Packet) {
        if packet.payload.get::<LeakProbe>().is_some() {
            if let Some(addr) = self.core.leak() {
                let _ = ctx.udp_send(CAMP_PORT, packet.src, Payload::new(LeakReply(addr)), 32);
            }
            return;
        }
        if let Some(bytes) = packet.payload.get::<Vec<u8>>() {
            self.core.deliver(ctx, bytes, TIMER_RESTART);
        }
    }
}

/// Step 3 — the exploit delivery app on the attacker.
struct CampExploiter {
    target: SocketAddr,
    forge: ExploitForge,
    port: u16,
}

impl Application for CampExploiter {
    fn name(&self) -> &str {
        "camp-exploiter"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.port = ctx.udp_bind_ephemeral();
        // Stage 1: trigger the leak.
        ctx.udp_send(self.port, self.target, Payload::new(LeakProbe), 40)
            .expect("addressable");
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &Packet) {
        if let Some(LeakReply(addr)) = packet.payload.get::<LeakReply>() {
            // Stage 2: rebase and fire.
            let payload = self
                .forge
                .rebased_payload(*addr)
                .expect("campd image has the required gadgets");
            let bytes = payload.len() as u32;
            ctx.udp_send(self.port, self.target, Payload::new(payload), bytes)
                .expect("addressable");
        }
    }
}

fn main() {
    let mut sim = Simulator::new(99);
    let mut star = Fabric::star(&mut sim, "net");

    // The attacker hosts the usual Mirai infrastructure.
    let attacker = sim.add_node("attacker");
    let am = star.attach_core(&mut sim, attacker, LinkConfig::default());
    sim.install_app(attacker, Box::new(CncServer::new()));
    let cnc = SocketAddr::new(am.addr_v4, protocols::CNC_PORT);
    sim.install_app(
        attacker,
        Box::new(FileServer::new(vec![
            malware::infection_script(am.addr_v4),
            malware::mirai_binary_file(Arch::Arm7, cnc, 600_000, Duration::from_secs(2)),
        ])),
    );

    // The device runs our brand-new daemon under full W^X+ASLR.
    let image = Arc::new(campd_image());
    let camera = sim.add_node("smart-camera");
    let cm = star.attach_core(&mut sim, camera, LinkConfig::new(400_000, Duration::from_millis(10)));
    let container = ContainerHandle::new(
        "smart-camera",
        Arch::Arm7,
        camera,
        CommandSet::standard(),
        6_000_000 + image.size_bytes,
    );
    let mut rng = SmallRng::seed_from_u64(1);
    let core = ServiceCore::new(
        container.clone(),
        Arc::clone(&image),
        Protections::FULL,
        "campd",
        &mut rng,
    );
    sim.install_app(camera, Box::new(CampDaemon { core }));

    // And the custom exploiter.
    let forge = ExploitForge::new(
        Arc::clone(&image),
        ExploitStrategy::LeakRebase,
        malware::stage1_command(am.addr_v4),
    );
    sim.install_app(
        attacker,
        Box::new(CampExploiter {
            target: SocketAddr::new(cm.addr_v4, CAMP_PORT),
            forge,
            port: 0,
        }),
    );

    sim.run_until(SimTime::from_secs(30));

    println!("custom daemon: campd (ARM camera service), W^X+ASLR enabled");
    println!(
        "device recruited: {} (infected at {:?})",
        container.is_infected(),
        container.state().infected_at.map(|t| t.to_string())
    );
    println!("audit trail:");
    for e in container.state().events.iter().take(8) {
        println!("  {e:?}");
    }
    assert!(container.is_infected(), "the custom exploit chain must work");
    println!("\nnew binary + new exploit, zero framework changes — the paper's extensibility claim.");
}
