//! Epidemic models of botnet spread (§V-A2).
//!
//! "Many studies ... use epidemic modeling techniques, such as the
//! Susceptible-Infected-Recovered model ... typically a system of ordinary
//! differential equations." This module provides SI and SIR integrators
//! (RK4) and a fitting routine, so DDoSim's *measured* infection curve can
//! be compared against the mathematical prediction — the paper's second
//! use case. A SEIRS integrator covers the richer IoT-botnet models the
//! paper cites.
//!
//! # Examples
//!
//! ```
//! use analysis::epidemic::{fit_si_beta, observed_curve};
//!
//! // Per-device infection timestamps measured by a DDoSim run:
//! let times = [2.0, 3.0, 3.5, 4.0, 4.2, 5.0, 6.0, 8.0];
//! let curve = observed_curve(&times, 1.0, 10.0);
//! let (beta, rmse) = fit_si_beta(&curve, 8.0, 1.0, 1.0);
//! assert!(beta > 0.0 && rmse < 8.0);
//! ```

/// State of an SIR system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SirState {
    /// Susceptible hosts.
    pub s: f64,
    /// Infected hosts.
    pub i: f64,
    /// Recovered (patched/cleaned) hosts.
    pub r: f64,
}

impl SirState {
    /// Total population.
    pub fn n(&self) -> f64 {
        self.s + self.i + self.r
    }
}

/// SIR parameters; set `gamma = 0` for the pure SI model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SirParams {
    /// Contact/infection rate β.
    pub beta: f64,
    /// Recovery rate γ.
    pub gamma: f64,
}

fn derivatives(state: SirState, p: SirParams) -> SirState {
    let n = state.n().max(1e-12);
    let new_infections = p.beta * state.s * state.i / n;
    let recoveries = p.gamma * state.i;
    SirState {
        s: -new_infections,
        i: new_infections - recoveries,
        r: recoveries,
    }
}

fn add(a: SirState, b: SirState, k: f64) -> SirState {
    SirState {
        s: a.s + b.s * k,
        i: a.i + b.i * k,
        r: a.r + b.r * k,
    }
}

/// One RK4 step of size `dt`.
pub(crate) fn rk4_step(state: SirState, p: SirParams, dt: f64) -> SirState {
    let k1 = derivatives(state, p);
    let k2 = derivatives(add(state, k1, dt / 2.0), p);
    let k3 = derivatives(add(state, k2, dt / 2.0), p);
    let k4 = derivatives(add(state, k3, dt), p);
    SirState {
        s: state.s + dt / 6.0 * (k1.s + 2.0 * k2.s + 2.0 * k3.s + k4.s),
        i: state.i + dt / 6.0 * (k1.i + 2.0 * k2.i + 2.0 * k3.i + k4.i),
        r: state.r + dt / 6.0 * (k1.r + 2.0 * k2.r + 2.0 * k3.r + k4.r),
    }
}

/// Integrates the infected-count curve `I(t)` at `dt` steps for `steps`
/// steps, starting from `initial`.
pub fn infected_curve(initial: SirState, p: SirParams, dt: f64, steps: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(steps + 1);
    let mut state = initial;
    out.push(state.i);
    for _ in 0..steps {
        state = rk4_step(state, p, dt);
        out.push(state.i);
    }
    out
}

/// Converts per-device infection timestamps (seconds) into a cumulative
/// infected-count curve sampled every `dt` seconds over `[0, horizon]`.
pub fn observed_curve(infection_times_secs: &[f64], dt: f64, horizon: f64) -> Vec<f64> {
    let mut times = infection_times_secs.to_vec();
    times.sort_by(f64::total_cmp);
    let steps = (horizon / dt).ceil() as usize;
    (0..=steps)
        .map(|k| {
            let t = k as f64 * dt;
            times.iter().filter(|x| **x <= t).count() as f64
        })
        .collect()
}

/// Root-mean-square error between two equal-length curves.
///
/// # Panics
///
/// Panics if the lengths differ or the curves are empty.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "curve lengths differ");
    assert!(!a.is_empty(), "curves are empty");
    let mse = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        / a.len() as f64;
    mse.sqrt()
}

/// Fits β of a pure SI model (γ=0) to an observed cumulative infection
/// curve by golden-section-style grid refinement; returns `(beta, rmse)`.
///
/// # Panics
///
/// Panics if `observed` is empty or the population is not positive.
pub fn fit_si_beta(observed: &[f64], population: f64, i0: f64, dt: f64) -> (f64, f64) {
    assert!(!observed.is_empty(), "observed curve is empty");
    assert!(population > 0.0, "population must be positive");
    let steps = observed.len() - 1;
    let eval = |beta: f64| -> f64 {
        let curve = infected_curve(
            SirState {
                s: population - i0,
                i: i0,
                r: 0.0,
            },
            SirParams { beta, gamma: 0.0 },
            dt,
            steps,
        );
        rmse(&curve, observed)
    };
    let mut lo = 1e-4;
    let mut hi = 10.0;
    let mut best = (lo, eval(lo));
    for _ in 0..4 {
        let mut grid_best = best;
        let n = 40;
        for k in 0..=n {
            let beta = lo + (hi - lo) * k as f64 / n as f64;
            let err = eval(beta);
            if err < grid_best.1 {
                grid_best = (beta, err);
            }
        }
        best = grid_best;
        let span = (hi - lo) / n as f64 * 4.0;
        lo = (best.0 - span).max(1e-6);
        hi = best.0 + span;
    }
    best
}

/// State of a SEIRS system (the model Gardner et al. use for IoT botnets,
/// cited by the paper as \[55\]): Susceptible → Exposed (compromised but not
/// yet attacking) → Infected → Recovered (patched/rebooted) → Susceptible
/// again (reinfection after reboot, Mirai's hallmark).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeirsState {
    /// Susceptible hosts.
    pub s: f64,
    /// Exposed hosts (compromised, bot not yet active).
    pub e: f64,
    /// Infected hosts (active bots).
    pub i: f64,
    /// Recovered hosts (cleaned, temporarily immune).
    pub r: f64,
}

impl SeirsState {
    /// Total population.
    pub fn n(&self) -> f64 {
        self.s + self.e + self.i + self.r
    }
}

/// SEIRS parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeirsParams {
    /// Contact/compromise rate β.
    pub beta: f64,
    /// Incubation rate σ (E→I; 1/σ is the mean time from compromise to an
    /// active bot — the download + registration latency DDoSim simulates
    /// explicitly).
    pub sigma: f64,
    /// Recovery rate γ (I→R; cleaning/reboots).
    pub gamma: f64,
    /// Immunity-loss rate ξ (R→S; devices reboot back into the vulnerable
    /// state because Mirai does not persist).
    pub xi: f64,
}

fn seirs_derivatives(state: SeirsState, p: SeirsParams) -> SeirsState {
    let n = state.n().max(1e-12);
    let exposures = p.beta * state.s * state.i / n;
    let activations = p.sigma * state.e;
    let recoveries = p.gamma * state.i;
    let relapses = p.xi * state.r;
    SeirsState {
        s: -exposures + relapses,
        e: exposures - activations,
        i: activations - recoveries,
        r: recoveries - relapses,
    }
}

fn seirs_add(a: SeirsState, b: SeirsState, k: f64) -> SeirsState {
    SeirsState {
        s: a.s + b.s * k,
        e: a.e + b.e * k,
        i: a.i + b.i * k,
        r: a.r + b.r * k,
    }
}

/// One RK4 step of the SEIRS system.
pub(crate) fn seirs_rk4_step(state: SeirsState, p: SeirsParams, dt: f64) -> SeirsState {
    let k1 = seirs_derivatives(state, p);
    let k2 = seirs_derivatives(seirs_add(state, k1, dt / 2.0), p);
    let k3 = seirs_derivatives(seirs_add(state, k2, dt / 2.0), p);
    let k4 = seirs_derivatives(seirs_add(state, k3, dt), p);
    SeirsState {
        s: state.s + dt / 6.0 * (k1.s + 2.0 * k2.s + 2.0 * k3.s + k4.s),
        e: state.e + dt / 6.0 * (k1.e + 2.0 * k2.e + 2.0 * k3.e + k4.e),
        i: state.i + dt / 6.0 * (k1.i + 2.0 * k2.i + 2.0 * k3.i + k4.i),
        r: state.r + dt / 6.0 * (k1.r + 2.0 * k2.r + 2.0 * k3.r + k4.r),
    }
}

/// Integrates the active-bot curve `I(t)` of a SEIRS system.
pub fn seirs_infected_curve(
    initial: SeirsState,
    p: SeirsParams,
    dt: f64,
    steps: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(steps + 1);
    let mut state = initial;
    out.push(state.i);
    for _ in 0..steps {
        state = seirs_rk4_step(state, p, dt);
        out.push(state.i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn si_curve_is_monotone_and_saturates() {
        let curve = infected_curve(
            SirState { s: 99.0, i: 1.0, r: 0.0 },
            SirParams { beta: 0.8, gamma: 0.0 },
            0.5,
            100,
        );
        assert!(curve.windows(2).all(|w| w[1] >= w[0] - 1e-9), "monotone");
        assert!((curve.last().expect("nonempty") - 100.0).abs() < 1.0, "saturates at N");
    }

    #[test]
    fn sir_recovers() {
        let curve = infected_curve(
            SirState { s: 99.0, i: 1.0, r: 0.0 },
            SirParams { beta: 1.0, gamma: 0.3 },
            0.5,
            200,
        );
        let peak = curve.iter().copied().fold(0.0, f64::max);
        assert!(peak > 1.0, "epidemic grows first");
        assert!(*curve.last().expect("nonempty") < peak / 2.0, "then declines");
    }

    #[test]
    fn observed_curve_counts_cumulative() {
        let obs = observed_curve(&[1.0, 2.0, 2.5], 1.0, 4.0);
        assert_eq!(obs, vec![0.0, 1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn fit_recovers_known_beta() {
        let true_beta = 0.6;
        let curve = infected_curve(
            SirState { s: 49.0, i: 1.0, r: 0.0 },
            SirParams { beta: true_beta, gamma: 0.0 },
            1.0,
            60,
        );
        let (beta, err) = fit_si_beta(&curve, 50.0, 1.0, 1.0);
        assert!((beta - true_beta).abs() < 0.02, "fit {beta} vs {true_beta}");
        assert!(err < 0.1);
    }

    #[test]
    #[should_panic(expected = "curve lengths differ")]
    fn rmse_checks_lengths() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn seirs_population_is_conserved() {
        let mut state = SeirsState { s: 95.0, e: 0.0, i: 5.0, r: 0.0 };
        let p = SeirsParams { beta: 0.8, sigma: 0.5, gamma: 0.1, xi: 0.05 };
        for _ in 0..400 {
            state = seirs_rk4_step(state, p, 0.25);
        }
        assert!((state.n() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn seirs_incubation_delays_the_peak() {
        // Slower incubation (smaller sigma) pushes the active-bot peak later.
        let init = SeirsState { s: 99.0, e: 0.0, i: 1.0, r: 0.0 };
        let fast = seirs_infected_curve(
            init,
            SeirsParams { beta: 1.0, sigma: 2.0, gamma: 0.2, xi: 0.0 },
            0.25,
            400,
        );
        let slow = seirs_infected_curve(
            init,
            SeirsParams { beta: 1.0, sigma: 0.2, gamma: 0.2, xi: 0.0 },
            0.25,
            400,
        );
        let argmax = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("nonempty")
        };
        assert!(argmax(&slow) > argmax(&fast), "incubation delays the peak");
    }

    #[test]
    fn seirs_reinfection_sustains_an_endemic_level() {
        // With immunity loss (xi > 0) the infection persists; without it,
        // it burns out.
        let init = SeirsState { s: 99.0, e: 0.0, i: 1.0, r: 0.0 };
        let endemic = seirs_infected_curve(
            init,
            SeirsParams { beta: 1.0, sigma: 1.0, gamma: 0.3, xi: 0.1 },
            0.5,
            2000,
        );
        let burnout = seirs_infected_curve(
            init,
            SeirsParams { beta: 1.0, sigma: 1.0, gamma: 0.3, xi: 0.0 },
            0.5,
            2000,
        );
        assert!(*endemic.last().expect("nonempty") > 5.0, "endemic equilibrium");
        assert!(*burnout.last().expect("nonempty") < 1.0, "burns out without relapse");
    }

    #[test]
    fn population_is_conserved() {
        let mut state = SirState { s: 90.0, i: 10.0, r: 0.0 };
        let p = SirParams { beta: 0.7, gamma: 0.2 };
        for _ in 0..100 {
            state = rk4_step(state, p, 0.25);
        }
        assert!((state.n() - 100.0).abs() < 1e-6);
    }
}
