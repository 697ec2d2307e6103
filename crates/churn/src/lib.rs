//! # churn — IoT network churn (Fan et al.)
//!
//! Implements the churn model the paper adopts (§IV-A, Eq. 1), from Fan et
//! al.'s churn-resilient task scheduling work \[22\]: a device's *leaving
//! factor* is `L(h) = (1 − q(h))(1 − e(h))` where `q` is link quality and
//! `e` remaining energy, and its *leaving probability* is a piecewise
//! scaling of `L(h)` with coefficients φ₁ = 0.16, φ₂ = 0.08, φ₃ = 0.04.
//!
//! Two variants, exactly as the paper defines them:
//!
//! * **static churn** — each device leaves with probability `l(h)` at the
//!   simulation's outset and never rejoins;
//! * **dynamic churn** — `l(h)` is re-estimated every 20 s, enabling
//!   intermittent departures and rejoins (a device that is down rejoins
//!   when its freshly-drawn conditions improve).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use netsim::{Application, Ctx, NodeId};
use rand::Rng;
use std::time::Duration;

/// Which churn variant an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChurnMode {
    /// No churn: all Devs persist (the paper's default for Fig. 3/Table I).
    #[default]
    None,
    /// Departures at t = 0 only, no rejoining.
    Static,
    /// Re-evaluated every [`DYNAMIC_CHURN_PERIOD`]; departures and rejoins.
    Dynamic,
}

impl ChurnMode {
    /// The mode's spec name (`none`, `static`, `dynamic`) — the spelling
    /// the `--churn` flag, scenario plans and checkpoints share.
    pub fn as_str(self) -> &'static str {
        match self {
            ChurnMode::None => "none",
            ChurnMode::Static => "static",
            ChurnMode::Dynamic => "dynamic",
        }
    }

    /// Parses a spec name written by [`ChurnMode::as_str`].
    ///
    /// # Errors
    ///
    /// A message quoting `s` when it names no mode.
    pub fn parse(s: &str) -> Result<Self, String> {
        [ChurnMode::None, ChurnMode::Static, ChurnMode::Dynamic]
            .into_iter()
            .find(|m| m.as_str() == s)
            .ok_or_else(|| format!("unknown churn mode '{s}'"))
    }
}

impl std::fmt::Display for ChurnMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnMode::None => f.write_str("no churn"),
            ChurnMode::Static => f.write_str("static churn"),
            ChurnMode::Dynamic => f.write_str("dynamic churn"),
        }
    }
}

/// The paper's dynamic-churn re-estimation period.
pub const DYNAMIC_CHURN_PERIOD: Duration = Duration::from_secs(20);

/// The Fan et al. leaving-probability model.
///
/// # Examples
///
/// ```
/// use churn::FanChurnModel;
///
/// // A device with poor link quality (q=0.2) and low energy (e=0.3):
/// let l = FanChurnModel::leaving_factor(0.2, 0.3); // 0.56
/// let p = FanChurnModel::PAPER.leaving_probability(l);
/// assert!((p - 0.08 * 0.56).abs() < 1e-12); // second piece of Eq. 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanChurnModel {
    /// Coefficient for L(h) ≤ 0.4.
    pub phi1: f64,
    /// Coefficient for 0.4 < L(h) ≤ 0.7.
    pub phi2: f64,
    /// Coefficient for L(h) > 0.7.
    pub phi3: f64,
}

impl FanChurnModel {
    /// The coefficients used by Fan et al. and by the paper:
    /// φ₁ = 0.16, φ₂ = 0.08, φ₃ = 0.04.
    pub const PAPER: FanChurnModel = FanChurnModel {
        phi1: 0.16,
        phi2: 0.08,
        phi3: 0.04,
    };

    /// Leaving factor `L(h) = (1 − q)(1 − e)` for link quality `q` and
    /// remaining energy `e`, both in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `q` or `e` are outside `[0, 1]`.
    pub fn leaving_factor(q: f64, e: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q), "link quality out of range");
        debug_assert!((0.0..=1.0).contains(&e), "energy out of range");
        (1.0 - q) * (1.0 - e)
    }

    /// Leaving probability `l(h)` (Eq. 1): piecewise scaling of `L(h)`.
    pub fn leaving_probability(&self, leaving_factor: f64) -> f64 {
        let l = leaving_factor;
        let p = if l <= 0.4 {
            self.phi1 * l
        } else if l <= 0.7 {
            self.phi2 * l
        } else {
            self.phi3 * l
        };
        p.clamp(0.0, 1.0)
    }

    /// Convenience: `l(h)` straight from `q` and `e`.
    pub fn probability_from_conditions(&self, q: f64, e: f64) -> f64 {
        self.leaving_probability(Self::leaving_factor(q, e))
    }
}

impl Default for FanChurnModel {
    fn default() -> Self {
        FanChurnModel::PAPER
    }
}

/// Per-device churn bookkeeping.
#[derive(Debug, Clone, Copy)]
struct DeviceChurn {
    node: NodeId,
    down: bool,
}

/// Events the controller records (telemetry for the churn experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A device left the network.
    Left(NodeId),
    /// A device rejoined the network.
    Rejoined(NodeId),
}

const TIMER_EPOCH: u64 = 1;

/// The churn controller: an application (installed on an always-up
/// orchestration node) that takes Dev nodes down and up according to the
/// model.
#[derive(Debug)]
pub struct ChurnController {
    model: FanChurnModel,
    mode: ChurnMode,
    devices: Vec<DeviceChurn>,
    /// Recorded departures/rejoins (order preserved).
    pub events: Vec<ChurnEvent>,
    /// Total departures.
    pub departures: u64,
    /// Total rejoins.
    pub rejoins: u64,
}

impl ChurnController {
    /// Creates a controller over `devices`.
    pub fn new(model: FanChurnModel, mode: ChurnMode, devices: Vec<NodeId>) -> Self {
        ChurnController {
            model,
            mode,
            devices: devices
                .into_iter()
                .map(|node| DeviceChurn { node, down: false })
                .collect(),
            events: Vec::new(),
            departures: 0,
            rejoins: 0,
        }
    }

    /// Devices currently down.
    pub fn down_count(&self) -> usize {
        self.devices.iter().filter(|d| d.down).count()
    }

    fn epoch(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.devices.len() {
            // Fresh conditions each epoch: link quality and energy vary
            // with the environment (q, e ~ U[0,1], as the paper assigns
            // them randomly).
            let q: f64 = ctx.rng().gen();
            let e: f64 = ctx.rng().gen();
            let p = self.model.probability_from_conditions(q, e);
            let d = self.devices[i];
            if !d.down {
                if ctx.rng().gen_bool(p) {
                    self.devices[i].down = true;
                    self.departures += 1;
                    self.events.push(ChurnEvent::Left(d.node));
                    ctx.set_node_admin(d.node, false);
                }
            } else if self.mode == ChurnMode::Dynamic && !ctx.rng().gen_bool(p) {
                // Conditions improved: the device rejoins.
                self.devices[i].down = false;
                self.rejoins += 1;
                self.events.push(ChurnEvent::Rejoined(d.node));
                ctx.set_node_admin(d.node, true);
            }
        }
    }
}

impl Application for ChurnController {
    fn name(&self) -> &str {
        "churn-controller"
    }

    fn fork(&self, _map: &netsim::ForkMap) -> Option<Box<dyn Application>> {
        Some(Box::new(ChurnController {
            model: self.model,
            mode: self.mode,
            devices: self.devices.clone(),
            events: self.events.clone(),
            departures: self.departures,
            rejoins: self.rejoins,
        }))
    }

    fn state_digest(&self, h: &mut netsim::StateHasher) {
        h.write_usize(self.devices.len());
        for d in &self.devices {
            h.write_usize(d.node.index());
            h.write_bool(d.down);
        }
        h.write_u64(self.departures);
        h.write_u64(self.rejoins);
        h.write_usize(self.events.len());
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.mode {
            ChurnMode::None => {}
            ChurnMode::Static => self.epoch(ctx),
            ChurnMode::Dynamic => {
                self.epoch(ctx);
                ctx.set_timer(DYNAMIC_CHURN_PERIOD, TIMER_EPOCH);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_EPOCH && self.mode == ChurnMode::Dynamic {
            self.epoch(ctx);
            ctx.set_timer(DYNAMIC_CHURN_PERIOD, TIMER_EPOCH);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaving_factor_formula() {
        assert_eq!(FanChurnModel::leaving_factor(1.0, 1.0), 0.0);
        assert_eq!(FanChurnModel::leaving_factor(0.0, 0.0), 1.0);
        let l = FanChurnModel::leaving_factor(0.5, 0.5);
        assert!((l - 0.25).abs() < 1e-12);
    }

    #[test]
    fn piecewise_coefficients_match_paper() {
        let m = FanChurnModel::PAPER;
        // L = 0.3 → φ1·L = 0.048
        assert!((m.leaving_probability(0.3) - 0.048).abs() < 1e-12);
        // L = 0.5 → φ2·L = 0.04
        assert!((m.leaving_probability(0.5) - 0.04).abs() < 1e-12);
        // L = 0.8 → φ3·L = 0.032
        assert!((m.leaving_probability(0.8) - 0.032).abs() < 1e-12);
    }

    #[test]
    fn boundaries_belong_to_lower_piece() {
        let m = FanChurnModel::PAPER;
        assert!((m.leaving_probability(0.4) - 0.16 * 0.4).abs() < 1e-12);
        assert!((m.leaving_probability(0.7) - 0.08 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn probability_is_clamped() {
        let m = FanChurnModel {
            phi1: 10.0,
            phi2: 10.0,
            phi3: 10.0,
        };
        assert_eq!(m.leaving_probability(0.3), 1.0);
    }

    #[test]
    fn worst_conditions_give_small_probability() {
        // Counter-intuitive but faithful to Eq. 1: the highest leaving
        // factors use the smallest coefficient.
        let m = FanChurnModel::PAPER;
        let worst = m.probability_from_conditions(0.0, 0.0); // L = 1.0
        assert!((worst - 0.04).abs() < 1e-12);
    }

    #[test]
    fn controller_counts_devices() {
        let c = ChurnController::new(
            FanChurnModel::PAPER,
            ChurnMode::Static,
            vec![NodeId::from_index(1), NodeId::from_index(2)],
        );
        assert_eq!(c.down_count(), 0);
        assert_eq!(c.departures, 0);
    }

    #[test]
    fn mode_display() {
        assert_eq!(ChurnMode::None.to_string(), "no churn");
        assert_eq!(ChurnMode::Static.to_string(), "static churn");
        assert_eq!(ChurnMode::Dynamic.to_string(), "dynamic churn");
    }
}
