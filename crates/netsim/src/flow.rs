//! Flows: demands, paths, and TCP-like rate state.
//!
//! Rate dynamics are *analytic*: a flow stores the rate it had the last
//! time its fair share changed (`rate_mbps` as of `rate_as_of_ms`) and
//! the share it is converging toward; the instantaneous rate at any
//! later time is the closed-form first-order response
//! `share + (r0 - share) * exp(-dt / tau)`. The simulator never steps
//! flows tick by tick — it materializes a flow's trajectory only at the
//! events that change its share.

use crate::topo::NodeIdx;
use std::sync::Arc;

/// Unique flow identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A flow request, as the Scheduler hands to the Controller.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Ingress node (host or edge).
    pub src: NodeIdx,
    /// Egress node.
    pub dst: NodeIdx,
    /// Offered load in Mbps; `None` = greedy TCP (take whatever the
    /// network gives, like an iperf3 run).
    pub demand_mbps: Option<f64>,
    /// DiffServ/ToS marking — the paper differentiates its three
    /// Experiment-2 flows by ToS.
    pub tos: u8,
    /// Human-readable label for telemetry and dashboards.
    pub label: String,
}

/// A live flow inside the simulator.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Identifier.
    pub id: FlowId,
    /// Specification.
    pub spec: FlowSpec,
    /// Node path currently assigned (edge-to-edge, hosts included) —
    /// shared: every flow started on one route points at one
    /// allocation.
    pub path: Arc<[NodeIdx]>,
    /// Goodput (Mbps) at `rate_as_of_ms` — the anchor of the analytic
    /// trajectory, **not** necessarily the current rate; use
    /// [`Flow::rate_at`] for the rate at a given time.
    pub rate_mbps: f64,
    /// The max-min fair allocation the flow is converging toward.
    pub fair_share_mbps: f64,
    /// Simulation time (ms) at which `rate_mbps` was materialized.
    pub rate_as_of_ms: u64,
    /// Instant (ms) at which the residual `|rate - share|` falls below
    /// the simulator's epsilon. Once the simulator has drained that
    /// instant, the trajectory is flat and `rate_at` returns the share
    /// exactly. Rewritten on every share change, so no earlier
    /// trajectory's instant can outlive it.
    pub conv_at_ms: u64,
}

impl Flow {
    /// Creates a flow at rate 0 (slow start).
    pub fn new(id: FlowId, spec: FlowSpec, path: Arc<[NodeIdx]>) -> Self {
        Flow {
            id,
            spec,
            path,
            rate_mbps: 0.0,
            fair_share_mbps: 0.0,
            rate_as_of_ms: 0,
            conv_at_ms: 0,
        }
    }

    /// Instantaneous goodput at `at_ms >= rate_as_of_ms`: first-order
    /// convergence toward the fair share, a fluid stand-in for TCP's
    /// ramp (slow start + congestion avoidance). `tau_s` is the
    /// convergence time constant in seconds. `drained_ms` is the last
    /// instant the caller has fully processed: at or past
    /// `conv_at_ms`, the rate is the share exactly.
    pub fn rate_at(&self, at_ms: u64, drained_ms: u64, tau_s: f64) -> f64 {
        if self.conv_at_ms <= drained_ms {
            return self.fair_share_mbps;
        }
        let dt_s = at_ms.saturating_sub(self.rate_as_of_ms) as f64 / 1000.0;
        let decay = (-dt_s / tau_s).exp();
        let r = self.fair_share_mbps + (self.rate_mbps - self.fair_share_mbps) * decay;
        r.max(0.0)
    }

    /// Pins the analytic trajectory at `at_ms`: evaluates the current
    /// rate and re-anchors there. Called right before the fair share
    /// changes, so the new exponential starts from the rate the flow
    /// actually had.
    pub fn materialize(&mut self, at_ms: u64, drained_ms: u64, tau_s: f64) {
        self.rate_mbps = self.rate_at(at_ms, drained_ms, tau_s);
        self.rate_as_of_ms = at_ms;
    }

    /// Milliseconds from `rate_as_of_ms` until the residual
    /// `|rate - share|` first drops below `eps_mbps` (0 when already
    /// there): `conv_at_ms` is `rate_as_of_ms` plus this.
    pub fn convergence_in_ms(&self, tau_s: f64, eps_mbps: f64) -> u64 {
        let gap = (self.rate_mbps - self.fair_share_mbps).abs();
        if gap <= eps_mbps {
            0
        } else {
            (tau_s * (gap / eps_mbps).ln() * 1000.0).ceil() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FlowSpec {
        FlowSpec {
            src: NodeIdx(0),
            dst: NodeIdx(1),
            demand_mbps: None,
            tos: 0,
            label: "test".into(),
        }
    }

    fn converging(share: f64) -> Flow {
        let mut f = Flow::new(FlowId(1), spec(), [NodeIdx(0), NodeIdx(1)].into());
        f.fair_share_mbps = share;
        f.conv_at_ms = u64::MAX;
        f
    }

    #[test]
    fn rate_converges_to_fair_share() {
        let f = converging(10.0);
        assert!((f.rate_at(10_000, 0, 1.0) - 10.0).abs() < 0.01);
    }

    #[test]
    fn rate_tracks_reduced_share_downward() {
        let mut f = converging(10.0);
        f.materialize(10_000, 0, 1.0);
        f.fair_share_mbps = 2.0;
        assert!((f.rate_at(20_000, 0, 1.0) - 2.0).abs() < 0.01);
    }

    #[test]
    fn analytic_rate_matches_iterated_ticks() {
        // The old per-tick stepper composed (1 - alpha)^k with
        // alpha = 1 - exp(-dt/tau); that is exactly exp(-k*dt/tau), so
        // the closed form must agree at every tick boundary.
        let f = converging(10.0);
        let tau = 1.2;
        let mut iterated = 0.0f64;
        let alpha = 1.0 - (-0.1f64 / tau).exp();
        for k in 1..=50 {
            iterated += (10.0 - iterated) * alpha;
            let analytic = f.rate_at(k * 100, 0, tau);
            assert!(
                (analytic - iterated).abs() < 1e-9,
                "tick {k}: {analytic} vs {iterated}"
            );
        }
    }

    #[test]
    fn convergence_speed_scales_with_tau() {
        let fast = converging(10.0);
        let slow = converging(10.0);
        assert!(fast.rate_at(1_000, 0, 0.5) > slow.rate_at(1_000, 0, 5.0));
    }

    #[test]
    fn rate_never_negative() {
        let mut f = converging(0.0);
        f.rate_mbps = 1.0;
        for t in [0, 100, 1_000, 100_000] {
            assert!(f.rate_at(t, 0, 1.0) >= 0.0);
        }
    }

    #[test]
    fn materialize_is_idempotent_at_fixed_time() {
        let mut f = converging(8.0);
        f.materialize(3_000, 0, 1.2);
        let r = f.rate_mbps;
        f.materialize(3_000, 0, 1.2);
        assert_eq!(f.rate_mbps, r);
        assert_eq!(f.rate_as_of_ms, 3_000);
    }

    #[test]
    fn convergence_time_is_zero_once_within_eps() {
        let mut f = converging(10.0);
        f.rate_mbps = 10.0;
        assert_eq!(f.convergence_in_ms(1.2, 1e-9), 0);
        f.rate_mbps = 0.0;
        let ms = f.convergence_in_ms(1.2, 1e-9);
        // tau * ln(10/1e-9) seconds, a bit under 28 s
        assert!(ms > 25_000 && ms < 30_000, "ms {ms}");
        // and the analytic rate really is within eps there
        assert!((f.rate_at(ms, 0, 1.2) - 10.0).abs() <= 1e-9 * 1.01);
    }
}
