//! Device reboots and re-infection.
//!
//! Mirai famously does not persist: "the malware does not survive a
//! reboot" — which is why epidemic treatments of IoT botnets (e.g. the
//! SEIRS work the paper cites as \[55\]) include a recovered→susceptible
//! transition. This controller reboots Devs at a configurable rate: the
//! resident bot and all downloads vanish, the device goes dark briefly,
//! and the firmware daemon comes back up vulnerable — whereupon the
//! attacker's reconciler re-exploits it. The botnet settles into the
//! endemic equilibrium those models predict.

use firmware::ContainerHandle;
use netsim::{Application, Category, Ctx, ForkClone, ForkMap, NodeId};
use rand::Rng;
use std::time::Duration;

const TIMER_EPOCH: u64 = 1;
/// How often reboot decisions are drawn.
pub const REBOOT_EPOCH: Duration = Duration::from_secs(10);
/// How long a rebooting device stays off the network.
pub const REBOOT_DOWNTIME: Duration = Duration::from_secs(5);

/// Process names that survive a reboot (init restarts the firmware
/// daemons).
pub const DAEMON_NAMES: [&str; 2] = ["connmand", "dnsmasq"];

/// Reboots Devs at `rate_per_min` per device; installed on an always-up
/// orchestration node.
#[derive(Debug)]
pub struct RebootController {
    devices: Vec<(NodeId, ContainerHandle)>,
    rate_per_min: f64,
    /// Total reboots performed.
    pub reboots: u64,
}

impl RebootController {
    /// Creates a controller over `devices` with a per-device reboot rate
    /// (expected reboots per minute).
    pub fn new(devices: Vec<(NodeId, ContainerHandle)>, rate_per_min: f64) -> Self {
        RebootController {
            devices,
            rate_per_min: rate_per_min.max(0.0),
            reboots: 0,
        }
    }

    fn epoch_probability(&self) -> f64 {
        (self.rate_per_min * REBOOT_EPOCH.as_secs_f64() / 60.0).clamp(0.0, 1.0)
    }

    fn epoch(&mut self, ctx: &mut Ctx<'_>) {
        let p = self.epoch_probability();
        for i in 0..self.devices.len() {
            if !ctx.rng().gen_bool(p) {
                continue;
            }
            let (node, container) = self.devices[i].clone();
            if !container.bot_alive() && container.state().reboot_count == 0 {
                // Rebooting a pristine device is a no-op for the botnet;
                // still counts as a power cycle.
            }
            self.reboots += 1;
            let (reboot_no, was_bot) = (self.reboots, container.bot_alive());
            ctx.record_event(Category::Reboot, || {
                format!(
                    "reboot #{reboot_no}: node {} power-cycled{}",
                    node.index(),
                    if was_bot { " (resident bot dies)" } else { "" }
                )
            });
            // Volatile state dies; the apps embodying it are removed.
            for app in container.reboot(ctx.now(), &DAEMON_NAMES) {
                ctx.kill_app(app);
            }
            ctx.set_node_admin(node, false);
            // Forkable (data + fn pointer) so an in-flight downtime window
            // survives Ddosim::fork.
            ctx.sim().schedule_forkable_call_after(
                REBOOT_DOWNTIME,
                "reboot.restore",
                node,
                |sim, node| sim.set_node_admin(node, true),
            );
        }
    }
}

impl Application for RebootController {
    fn name(&self) -> &str {
        "reboot-controller"
    }

    fn fork(&self, map: &ForkMap) -> Option<Box<dyn Application>> {
        Some(Box::new(RebootController {
            devices: self.devices.fork_clone(map),
            rate_per_min: self.rate_per_min,
            reboots: self.reboots,
        }))
    }

    fn state_digest(&self, h: &mut netsim::StateHasher) {
        h.write_usize(self.devices.len());
        h.write_f64(self.rate_per_min);
        h.write_u64(self.reboots);
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.rate_per_min > 0.0 {
            ctx.set_timer(REBOOT_EPOCH, TIMER_EPOCH);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_EPOCH {
            self.epoch(ctx);
            ctx.set_timer(REBOOT_EPOCH, TIMER_EPOCH);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_probability_scales_with_rate() {
        let make = |rate| RebootController::new(Vec::new(), rate);
        assert_eq!(make(0.0).epoch_probability(), 0.0);
        let p = make(3.0).epoch_probability(); // 3/min over 10 s = 0.5
        assert!((p - 0.5).abs() < 1e-12);
        assert_eq!(make(100.0).epoch_probability(), 1.0, "clamped");
    }

    #[test]
    fn negative_rates_are_clamped() {
        assert_eq!(RebootController::new(Vec::new(), -1.0).rate_per_min, 0.0);
    }
}
