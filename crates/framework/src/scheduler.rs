//! The Scheduler: queued flow requests with start times.
//!
//! "When a user requests a new flow via the Dashboard, the request is
//! sent to the Scheduler. The path allocation process for each new flow
//! starts when the Scheduler notifies the Controller of the intent to
//! establish a new connection."

use crate::optimizer::FlowDemand;
use crate::PairId;

/// A user-level flow request, as submitted from the Dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRequest {
    /// Human-readable label (also the ACL name on the edge router).
    pub label: String,
    /// ToS marking differentiating the flow.
    pub tos: u8,
    /// Offered load; `None` = greedy (iperf-style).
    pub demand_mbps: Option<f64>,
    /// Requested start time (sim ms).
    pub start_ms: u64,
    /// Which managed ingress/egress pair carries the flow.
    /// `PairId(0)` on single-pair networks (the default).
    pub pair: PairId,
}

impl FlowRequest {
    /// What the optimizer places: the flow's pair and offered load.
    pub(crate) fn flow_demand(&self) -> FlowDemand {
        FlowDemand {
            pair: self.pair,
            demand: self.demand_mbps,
        }
    }
}

/// A time-ordered queue of flow requests.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    queue: Vec<FlowRequest>,
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a request (keeps the queue sorted by start time; ties
    /// keep submission order).
    pub fn submit(&mut self, request: FlowRequest) {
        let pos = self
            .queue
            .partition_point(|r| r.start_ms <= request.start_ms);
        self.queue.insert(pos, request);
    }

    /// Submits a whole workload of requests.
    pub fn submit_all(&mut self, requests: impl IntoIterator<Item = FlowRequest>) {
        for r in requests {
            self.submit(r);
        }
    }

    /// Pops every request due at or before `now_ms`, in start order.
    ///
    /// The whole batch is returned at once so the controller can decide
    /// it with one amortized consultation
    /// ([`crate::controller::decide_flows_pairs`]) instead of per-flow.
    pub fn due(&mut self, now_ms: u64) -> Vec<FlowRequest> {
        let split = self.queue.partition_point(|r| r.start_ms <= now_ms);
        self.queue.drain(..split).collect()
    }

    /// Time of the next pending request, if any.
    #[cfg(test)]
    fn next_start(&self) -> Option<u64> {
        self.queue.first().map(|r| r.start_ms)
    }

    /// Number of pending requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(label: &str, start_ms: u64) -> FlowRequest {
        FlowRequest {
            label: label.to_string(),
            tos: 0,
            demand_mbps: None,
            start_ms,
            pair: PairId::default(),
        }
    }

    #[test]
    fn due_respects_time_and_order() {
        let mut s = Scheduler::new();
        s.submit(req("b", 2000));
        s.submit(req("a", 1000));
        s.submit(req("c", 3000));
        assert_eq!(s.next_start(), Some(1000));
        let due = s.due(2000);
        assert_eq!(
            due.iter().map(|r| r.label.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(s.pending(), 1);
        assert!(s.due(2500).is_empty());
        assert_eq!(s.due(3000).len(), 1);
    }

    #[test]
    fn ties_keep_submission_order() {
        let mut s = Scheduler::new();
        s.submit(req("first", 1000));
        s.submit(req("second", 1000));
        let due = s.due(1000);
        assert_eq!(due[0].label, "first");
        assert_eq!(due[1].label, "second");
    }

    #[test]
    fn empty_scheduler() {
        let mut s = Scheduler::new();
        assert_eq!(s.next_start(), None);
        assert!(s.due(u64::MAX).is_empty());
    }
}
